"""Layer probe table: each layer timed alone on fixed inputs.

Run in the traced run only, with tracing off, after the workload.  The
numbers describe single layers, never a user-visible result, so they are
per-layer metrics.  Each time is the median over several batches.
"""
from __future__ import annotations

import statistics
from time import perf_counter

from tracing import find_layer

HURWITZ_S = (2, 9, 30)
HURWITZ_W = ((0.5, "0p5"), (1000.0, "1000"))
ROOT_ORDERS = (1, 2, 4, 12, 97)
DECOMPOSE_WEIGHTS = range(3, 31)
DECOMPOSE_REPORTED = (3, 10, 20, 30)
ORACLE_CUTOFFS = (1000, 2000, 20000)


def per_call(fn, budget: float = 0.02, batches: int = 5) -> float:
    """Median seconds per call, over batches sized to last about budget."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= budget or n >= 1 << 20:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def once(fn, repeats: int, before=None) -> float:
    """Median seconds of single calls, each after before() (untimed)."""
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe_table() -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, full table): probe metrics by name, plus every probe row."""
    root = find_layer("RootOfUnity")
    one = root(0, 1)
    hurwitz_tail = find_layer("hurwitz_tail")
    tail_sum = find_layer("tail_sum")
    eval_li = find_layer("eval_li")
    decompose = find_layer("decompose")
    mt_index = find_layer("MTIndex")
    eval_mt_direct = find_layer("eval_mt_direct")
    eval_config = find_layer("EvalConfig")
    table: dict[str, float] = {}

    for s in HURWITZ_S:
        for w, tag in HURWITZ_W:
            t = per_call(lambda: hurwitz_tail(s, w))
            table[f"probe.hurwitz_tail.s{s}_w{tag}.us"] = t * 1e6

    for n in ROOT_ORDERS:
        x = root(1, n)
        t = per_call(lambda: tail_sum(3, x, 128))
        table[f"probe.tail_sum.order{n}.us"] = t * 1e6

    for n in ROOT_ORDERS:
        x = root(1, n)
        t = once(lambda: eval_li(2, 1, x, one), 3, before=eval_li.cache_clear)
        table[f"probe.eval_li_cold.order{n}.ms"] = t * 1e3
    eval_li.cache_clear()

    a, b = root(1, 3), root(1, 4)
    for w in DECOMPOSE_WEIGHTS:
        idx = mt_index(w // 3, w // 3, w - 2 * (w // 3))
        t = per_call(lambda: decompose(idx, a, b), budget=0.005, batches=3)
        table[f"probe.decompose.w{w}.us"] = t * 1e6

    r212 = mt_index(2, 1, 2)
    for cut in ORACLE_CUTOFFS:
        cfg = eval_config(oracle_cutoff=cut)
        t = once(lambda: eval_mt_direct(r212, root(1, 2), one, cfg), 1 if cut > 5000 else 3)
        table[f"probe.eval_mt_direct.cut{cut}.ns_per_term"] = t * 1e9 / (cut * (cut - 1) // 2)

    return {k: table[k] for k in probe_names()}, table


def probe_names() -> list[str]:
    """The probe metric names probe_table reports, without running it."""
    names = [f"probe.hurwitz_tail.s{s}_w{tag}.us" for s in HURWITZ_S for _, tag in HURWITZ_W]
    names += [f"probe.tail_sum.order{n}.us" for n in ROOT_ORDERS]
    names += [f"probe.eval_li_cold.order{n}.ms" for n in ROOT_ORDERS]
    names += [f"probe.decompose.w{w}.us" for w in DECOMPOSE_REPORTED]
    names += [f"probe.eval_mt_direct.cut{c}.ns_per_term" for c in ORACLE_CUTOFFS]
    return names
