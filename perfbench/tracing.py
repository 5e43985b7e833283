"""Span tracer for the benchmark's traced run.

The tracer wraps tornheim's layer functions in every module namespace that
binds them, so calls from one module into another go through the wrappers
as well.  Each call records a span (layer, start, end, parent span) in
compact in-memory arrays, plus the counts some layers need.  Self time is a
span's duration minus the time its child spans cover.  Nothing in tornheim
is changed: the wrappers are removed when the traced pass ends.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

# Outermost first.  The harness entry points only carry self time.
LAYERS = (
    "cross_check_grid",
    "verify_r212",
    "decompose",
    "eval_decomposition",
    "eval_mt_direct",
    "eval_li",
    "tail_sum",
    "hurwitz_tail",
)

# eval_li's acceleration ladder calls tail_sum at this Euler-Maclaurin order;
# its head call per attempt uses the configured order instead.
LADDER_ORDER = 16


def tornheim_modules() -> list:
    """Every loaded tornheim module, package first."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "tornheim" or name.startswith("tornheim."))
    ]


def find_layer(name: str):
    """What a tornheim module binds under name, package first.

    Looking names up this way keeps the benchmark working when a name moves
    between modules or leaves the package's exports.
    """
    for mod in tornheim_modules():
        obj = mod.__dict__.get(name)
        if obj is not None and not isinstance(obj, ModuleType):
            return obj
    raise LookupError(f"no tornheim module binds {name!r}")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"tail_sum.residues": 0, "eval_li.attempts": 0,
                       "hurwitz_tail.direct_calls": 0, "eval_mt_direct.terms": 0}
        self.roundoff_shares: list[float] = []
        self._tail_bound = None
        self._default_cutoff = None

    @contextmanager
    def installed(self):
        """Wrap every binding of every layer for the duration of the block."""
        self._tail_bound = find_layer("oracle_tail_bound")
        self._default_cutoff = find_layer("DEFAULT_CONFIG").oracle_cutoff
        patched, wrappers = [], {}
        for mod in tornheim_modules():
            for name in LAYERS:
                fn = mod.__dict__.get(name)
                if not callable(fn) or isinstance(fn, ModuleType):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(LAYERS.index(name), fn)
                patched.append((mod, name, fn))
                setattr(mod, name, wrappers[id(fn)])
        try:
            yield self
        finally:
            for mod, name, fn in reversed(patched):
                setattr(mod, name, fn)

    def _wrap(self, layer: int, fn):
        note = getattr(self, f"_note_{LAYERS[layer]}", None)
        layers, parents, starts, ends, stack = self.layer, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            i = len(starts)
            layers.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if note is not None:
                note(parents[i], args, kwargs, result)
            return result

        return traced

    # Per-layer counts, taken from each call's arguments and result.

    def _note_tail_sum(self, parent, args, kwargs, result):
        x = args[1] if len(args) > 1 else kwargs["x"]
        order = args[3] if len(args) > 3 else kwargs.get("order")
        self.counts["tail_sum.residues"] += x.order
        if parent >= 0 and LAYERS[self.layer[parent]] == "eval_li" and order != LADDER_ORDER:
            self.counts["eval_li.attempts"] += 1

    def _note_hurwitz_tail(self, parent, args, kwargs, result):
        s = args[0] if args else kwargs["s"]
        self.counts["hurwitz_tail.direct_calls"] += s >= 30

    def _note_eval_mt_direct(self, parent, args, kwargs, result):
        index = args[0] if args else kwargs["index"]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        cut = cfg.oracle_cutoff if cfg is not None else self._default_cutoff
        self.counts["eval_mt_direct.terms"] += cut * (cut - 1) // 2
        tail = self._tail_bound(index.p, index.q, index.r, cut)
        self.roundoff_shares.append(1.0 - tail / result.error_bound)

    # Derived numbers.

    def layer_times(self) -> dict[str, dict]:
        """Per layer: calls, busy (span) time, self time, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy": 0.0, "self": 0.0} for name in LAYERS}
        for i in range(n):
            d = self.end[i] - self.start[i]
            row = out[LAYERS[self.layer[i]]]
            row["calls"] += 1
            row["busy"] += d
            row["self"] += d - child[i]
        return out

    def eval_li_miss_durations(self) -> list[float]:
        """Durations of eval_li calls that computed (had child spans)."""
        li = LAYERS.index("eval_li")
        has_child = set(self.parent)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.layer[i] == li and i in has_child
        ]

    def layer_metrics(self, cache_hits: int, cache_misses: int) -> dict[str, float]:
        """The per-layer metrics; cache counts are eval_li cache_info deltas."""
        t = self.layer_times()
        ms = 1000.0
        li_calls = cache_hits + cache_misses
        misses = self.eval_li_miss_durations()
        hz, mt = t["hurwitz_tail"], t["eval_mt_direct"]
        terms = self.counts["eval_mt_direct.terms"]
        return {
            "decompose.calls": t["decompose"]["calls"],
            "decompose.self_ms": t["decompose"]["self"] * ms,
            "eval_decomposition.self_ms": t["eval_decomposition"]["self"] * ms,
            "eval_li.calls": t["eval_li"]["calls"],
            "eval_li.misses": cache_misses,
            "eval_li.hit_ratio": cache_hits / li_calls if li_calls else 0.0,
            "eval_li.miss_ms_p50": statistics.median(misses) * ms if misses else 0.0,
            "eval_li.self_ms": t["eval_li"]["self"] * ms,
            "eval_li.attempts": self.counts["eval_li.attempts"],
            "tail_sum.calls": t["tail_sum"]["calls"],
            "tail_sum.residues": self.counts["tail_sum.residues"],
            "tail_sum.self_ms": t["tail_sum"]["self"] * ms,
            "hurwitz_tail.calls": hz["calls"],
            "hurwitz_tail.direct_calls": self.counts["hurwitz_tail.direct_calls"],
            "hurwitz_tail.busy_ms": hz["busy"] * ms,
            "hurwitz_tail.ns_per_call": hz["busy"] * 1e9 / hz["calls"] if hz["calls"] else 0.0,
            "eval_mt_direct.calls": mt["calls"],
            "eval_mt_direct.terms": terms,
            "eval_mt_direct.busy_ms": mt["busy"] * ms,
            "eval_mt_direct.ns_per_term": mt["busy"] * 1e9 / terms if terms else 0.0,
            "eval_mt_direct.roundoff_share": (
                statistics.median(self.roundoff_shares) if self.roundoff_shares else 0.0
            ),
            "cross_check_grid.self_ms": t["cross_check_grid"]["self"] * ms,
            "verify_r212.self_ms": t["verify_r212"]["self"] * ms,
        }

    def write(self, path) -> None:
        """Write all spans: a JSON header line, then the raw columns, gzipped.

        Read back with array(typecode).frombytes over each column's
        count * itemsize bytes, in header order.
        """
        columns = [("layer", self.layer), ("parent", self.parent),
                   ("start", self.start), ("end", self.end)]
        header = {
            "layers": list(LAYERS),
            "spans": len(self.start),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())
