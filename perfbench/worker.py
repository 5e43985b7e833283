"""Benchmark worker: one fresh process that sets up, then runs one workload.

Usage (run.py starts it; one worker runs at a time):

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE SIZE

Set-up imports tornheim from ROOT/src and makes the inputs, then prints
{"ready": ...} and waits for one line on stdin: "run" measures the
workload and prints the result as one JSON line, anything else exits.

The timed phase repeats whole passes over the inputs, each from an empty
eval_li cache, until the next pass would end after SECONDS; at least one
pass runs.  With TRACE 1, one more pass runs with the layer functions
wrapped, its values must equal the untraced ones bit for bit, and the layer
probe table follows.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from probes import probe_table
from tracing import Tracer, find_layer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git, without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    """Digest of every file under src/, so runs outside git name their code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(root: Path, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(root),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(wl: workloads.Workload, seconds: float, trace: bool, out_dir: Path, tag: str) -> dict:
    eval_li = find_layer("eval_li")
    passes = []
    start = perf_counter()
    while True:
        eval_li.cache_clear()
        passes.append(wl.run_pass())
        walls = [p.wall for p in passes]
        if perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = wl.check(passes[0])
    problems = list(check.problems)
    first = workloads.fingerprint(passes[0].outputs)
    if any(workloads.fingerprint(p.outputs) != first for p in passes[1:]):
        problems.append("passes over the same inputs returned different values")

    attempted = wl.ops * len(passes)
    failed = check.failed * len(passes)
    latencies = [x for p in passes for x in p.latencies]
    e2e = {
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "latency_p50_ms": workloads.percentile(latencies, 50) * 1e3,
        "latency_p99_ms": workloads.percentile(latencies, 99) * 1e3,
        "pass_ratio": 1.0 - failed / attempted,
        # No bound at all means every operation failed; the run is incorrect.
        "bound_p50": statistics.median(check.bounds or [math.inf]),
        "bound_max": max(check.bounds, default=math.inf),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": walls,
        "latency_samples": len(latencies),
        "failed_ratio": failed / attempted,
        "tolerance_misses": len(check.misses),
        "tolerance_miss_examples": check.misses[:10],
    }
    if check.seeded_bound is not None:
        detail["seeded_index_oracle_bound"] = check.seeded_bound

    layers = None
    if trace:
        eval_li.cache_clear()
        tracer = Tracer()
        with tracer.installed():
            traced = wl.run_pass()
        info = eval_li.cache_info()
        if workloads.fingerprint(traced.outputs) != first:
            problems.append("traced values differ from untraced values")
        layers = tracer.layer_metrics(info.hits, info.misses)
        layers["trace.overhead_ratio"] = traced.wall / statistics.median(walls)
        probe_metrics, detail["probe_table"] = probe_table()
        layers.update(probe_metrics)
        detail["spans"] = len(tracer.start)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{tag}.bin.gz")

    detail["problems"] = problems[:20]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
    }


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace, size = argv
    root_path = Path(root).resolve()
    sys.path.insert(0, str(root_path / "src"))
    import tornheim

    if not Path(tornheim.__file__).resolve().is_relative_to(root_path / "src"):
        print(f"tornheim imported from {tornheim.__file__}, not from {root_path / 'src'}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(workload, int(seed), size)
    wl = workloads.Workload(tornheim, workload, inputs)
    print(json.dumps({"ready": True, "inputs_sha256": digest(inputs)}), flush=True)

    if sys.stdin.readline().strip() != "run":
        return 0
    out_dir = root_path / ".perfbench_out"
    tag = f"{workload}-seed{seed}-{size}"
    result = measure(wl, float(seconds), trace == "1", out_dir, tag)
    result["facts"] = machine_facts(root_path, int(seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
