"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Inputs are plain tuples made from the seed alone, without importing
tornheim, so that the same seed gives the same inputs whatever the program
does.  A pass runs one workload's whole input once and returns what the
program returned; ``Workload.check`` judges a pass outside the timed region.

Each workload stresses a different layer (see README.md):

* grid: ``cross_check_grid`` at the acceptance tolerance and oracle cutoff,
  reduced in weight.  Oracle-bound; one index is shared by 36 color pairs.
* eval: a stream of ``decompose`` + ``eval_decomposition`` requests.  No
  oracle; the time goes to the Li layer (``eval_li`` -> ``tail_sum`` ->
  ``hurwitz_tail``).
* deep: ``verify_r212`` at its defaults plus one seeded complex-colored index
  through ``eval_mt_direct`` at cutoff 20000.  A few long oracle sums with
  no color sharing.
"""
from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

WORKLOADS = ("grid", "eval", "deep")

R212_PRINTED = -0.2402184755
PRINTED_TOL = 5e-9

# Reduced sizes keep the benchmark's own tests seconds long; "full" is what
# the benchmark measures.
SIZES = {
    "full": {
        "grid_weight": 4,
        "grid_orders": (1, 2, 3, 4),
        "eval_weight": 20,
        "eval_checks": 40,
        "deep_weight": 8,
        "deep_cutoff": 20000,
    },
    "smoke": {
        "grid_weight": 3,
        "grid_orders": (1, 2),
        "eval_weight": 6,
        "eval_checks": 6,
        "deep_weight": 8,
        "deep_cutoff": 2000,
    },
}

GRID_TOLERANCE = 1e-8
GRID_CUTOFF = 1000
EVAL_TOLERANCE = 1e-10
EVAL_ORDERS = (1, 2, 3, 4, 6, 8, 12)
EVAL_CHECK_CUTOFF = 1000
DEEP_COLOR_ORDERS = (1, 2, 3, 4, 6, 8, 12)


def triples(max_weight: int) -> list[tuple[int, int, int]]:
    """Every convergent (p, q, r) of weight 3..max_weight, in a fixed order."""
    out = []
    for w in range(3, max_weight + 1):
        for p in range(w + 1):
            for q in range(w + 1 - p):
                r = w - p - q
                if p + q > 0 and p + r > 1 and q + r > 1:
                    out.append((p, q, r))
    return out


def roots(orders) -> list[tuple[int, int]]:
    """Distinct roots of unity of the given orders as reduced (k, N)."""
    got = set()
    for n in orders:
        for k in range(n):
            g = math.gcd(k, n)
            got.add((k // g, n // g))
    return sorted(got, key=lambda kn: (kn[1], kn[0]))


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's inputs as plain data; equal seeds give equal inputs."""
    sz = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        # The acceptance grid has no free choice; the seed is recorded only.
        n_roots = len(roots(sz["grid_orders"]))
        return {
            "max_weight": sz["grid_weight"],
            "orders": list(sz["grid_orders"]),
            "cases": len(triples(sz["grid_weight"])) * n_roots * n_roots,
        }
    if workload == "eval":
        # Every triple exactly once and every color pair equally often, in
        # seeded order and seeded combination.  The mix of index masses and
        # root orders, which sets cost and bounds, is then the same for
        # every seed.
        idx = triples(sz["eval_weight"])
        rng.shuffle(idx)
        colors = roots(EVAL_ORDERS)
        pairs = [(a, b) for a in colors for b in colors]
        picks = pairs * (len(idx) // len(pairs)) + rng.sample(pairs, len(idx) % len(pairs))
        rng.shuffle(picks)
        requests = [(t, a, b) for t, (a, b) in zip(idx, picks)]
        checks = sorted(rng.sample(range(len(requests)), sz["eval_checks"]))
        return {"requests": requests, "checks": checks}
    if workload == "deep":
        colors = roots(DEEP_COLOR_ORDERS)
        while True:
            alpha, beta = rng.choice(colors), rng.choice(colors)
            if max(alpha[1], beta[1]) >= 3:
                break
        return {
            "index": rng.choice(triples(sz["deep_weight"])),
            "alpha": alpha,
            "beta": beta,
            "cutoff": sz["deep_cutoff"],
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Pass:
    """What one timed pass returned: per-operation outputs and latencies."""

    wall: float
    latencies: list[float]
    outputs: list


class Workload:
    """One workload bound to the tornheim API and its generated inputs."""

    def __init__(self, api, name: str, inputs: dict):
        self.api = api
        self.name = name
        self.inputs = inputs
        root = api.RootOfUnity
        if name == "grid":
            self.cfg = api.EvalConfig(tolerance=GRID_TOLERANCE, oracle_cutoff=GRID_CUTOFF)
        elif name == "eval":
            self.cfg = api.EvalConfig(tolerance=EVAL_TOLERANCE)
            self.requests = [
                (api.MTIndex(*t), root(*a), root(*b)) for t, a, b in inputs["requests"]
            ]
        else:
            self.cfg = api.EvalConfig(oracle_cutoff=inputs["cutoff"])
            self.index = api.MTIndex(*inputs["index"])
            self.alpha = root(*inputs["alpha"])
            self.beta = root(*inputs["beta"])

    @property
    def ops(self) -> int:
        """Operations per pass: grid cases, eval requests, deep oracle calls."""
        if self.name == "grid":
            return self.inputs["cases"]
        if self.name == "eval":
            return len(self.requests)
        return 2

    def run_pass(self) -> Pass:
        return getattr(self, f"_pass_{self.name}")()

    def _pass_grid(self) -> Pass:
        t0 = perf_counter()
        reports = attempt(
            self.api.cross_check_grid, self.inputs["max_weight"], list(self.inputs["orders"]), self.cfg
        )
        wall = perf_counter() - t0
        if isinstance(reports, Exception):
            return Pass(wall, [wall], [reports])
        # Per-case latency is the time the harness itself reports per case.
        return Pass(wall, [r.ms / 1000.0 for r in reports], reports)

    def _pass_eval(self) -> Pass:
        api, cfg = self.api, self.cfg
        lat, out = [], []
        t0 = perf_counter()
        for idx, a, b in self.requests:
            t = perf_counter()
            out.append(attempt(lambda: api.eval_decomposition(api.decompose(idx, a, b), cfg)))
            lat.append(perf_counter() - t)
        return Pass(perf_counter() - t0, lat, out)

    def _pass_deep(self) -> Pass:
        api = self.api
        t0 = perf_counter()
        reports = attempt(api.verify_r212)
        t1 = perf_counter()
        oracle = attempt(api.eval_mt_direct, self.index, self.alpha, self.beta, self.cfg)
        t2 = perf_counter()
        return Pass(t2 - t0, [t1 - t0, t2 - t1], [reports, oracle])

    # -- checks, outside the timed region ---------------------------------

    def check(self, p: Pass) -> "Check":
        return getattr(self, f"_check_{self.name}")(p)

    def _check_grid(self, p: Pass) -> "Check":
        cases = self.inputs["cases"]
        if isinstance(p.outputs[0], Exception):
            return Check(cases, [], [f"cross_check_grid raised {p.outputs[0]!r}"])
        reports = p.outputs
        failed = sum(not r.passed for r in reports) + max(0, cases - len(reports))
        problems = [f"{r.label}: {r.absdiff:.3e} > {r.bound:.3e}" for r in reports if not r.passed]
        if len(reports) != cases:
            problems.append(f"{len(reports)} cases, expected {cases}")
        return Check(failed, [r.bound for r in reports], problems)

    def _check_eval(self, p: Pass) -> "Check":
        api, tol = self.api, self.cfg.tolerance
        failed, bounds, problems, misses = set(), [], [], []
        for i, ((idx, a, b), v) in enumerate(zip(self.requests, p.outputs)):
            if isinstance(v, Exception):
                failed.add(i)
                misses.append(f"MT({idx.p},{idx.q},{idx.r};{a},{b}) raised {type(v).__name__}: {v}")
                continue
            bounds.append(v.error_bound)
            if v.error_bound > tol:
                failed.add(i)
                misses.append(f"MT({idx.p},{idx.q},{idx.r};{a},{b}) bound {v.error_bound:.2e} > tol {tol:.0e}")
        oracle_cfg = api.EvalConfig(oracle_cutoff=EVAL_CHECK_CUTOFF)
        for i in self.inputs["checks"]:
            v = p.outputs[i]
            if isinstance(v, Exception):
                continue
            idx, a, b = self.requests[i]
            o = api.eval_mt_direct(idx, a, b, oracle_cfg)
            diff = abs(o.value - v.value)
            if not diff <= o.error_bound + v.error_bound:
                failed.add(i)
                problems.append(
                    f"MT({idx.p},{idx.q},{idx.r};{a},{b}): |oracle - value| {diff:.3e}"
                    f" > {o.error_bound + v.error_bound:.3e}"
                )
        return Check(len(failed), bounds, problems, misses)

    def _check_deep(self, p: Pass) -> "Check":
        reports, oracle = p.outputs
        problems, bounds = [], []
        if isinstance(reports, Exception):
            problems.append(f"verify_r212 raised {reports!r}")
        else:
            problems += [f"{r.label}: {r.detail or r.status}" for r in reports if not r.passed]
            if len(reports) != 4:
                problems.append(f"verify_r212 gave {len(reports)} reports, expected 4")
            try:
                printed_gap = abs(float(reports[0].lhs) - R212_PRINTED)
            except (IndexError, ValueError):
                printed_gap = math.inf
            if not printed_gap < PRINTED_TOL:
                problems.append(f"R(2,1,2) oracle is {printed_gap:.2e} from {R212_PRINTED}")
            # The R(2,1,2) decomposition-vs-oracle bound is deep's one bound
            # that does not depend on the seed.
            bounds = [r.bound for r in reports[1:2]]
        failed = 1 if problems else 0
        if isinstance(oracle, Exception):
            problems.append(f"eval_mt_direct raised {oracle!r}")
            return Check(failed + 1, bounds, problems)
        dec = self.api.eval_decomposition(
            self.api.decompose(self.index, self.alpha, self.beta), self.cfg
        )
        diff = abs(oracle.value - dec.value)
        if not diff <= oracle.error_bound + dec.error_bound:
            failed += 1
            problems.append(
                f"MT{self.index}({self.alpha},{self.beta}): |oracle - decomposition|"
                f" {diff:.3e} > {oracle.error_bound + dec.error_bound:.3e}"
            )
        return Check(failed, bounds, problems, seeded_bound=oracle.error_bound)


@dataclass
class Check:
    """Outcome of checking one pass; any problem makes the run incorrect."""

    failed: int
    bounds: list[float]
    problems: list[str]
    misses: list[str] = field(default_factory=list)
    seeded_bound: float | None = None


def attempt(fn, *args):
    """fn(*args), or the exception it raised: a failed operation is counted, not fatal."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def fingerprint(outputs: list) -> list:
    """A pass's outputs, exactly, without timings."""
    out = []
    for v in outputs:
        if isinstance(v, list):
            out.append(fingerprint(v))
        elif hasattr(v, "absdiff"):
            out.append((v.label, v.passed, v.lhs, v.rhs, repr(v.absdiff), repr(v.bound)))
        elif hasattr(v, "error_bound"):
            out.append((repr(v.value), repr(v.error_bound)))
        else:
            out.append(repr(v))
    return out


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile; statistics.quantiles needs two samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
