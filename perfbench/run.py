"""Run a tornheim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid|eval|deep|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/tornheim and
BENCHMARK.json; it needs nothing installed beyond Python and numpy.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Lines before it show every metric with
its unit and the machine facts; the full result also goes to
.perfbench_out/.

Set-up time is measured here, from outside: SETUP_SAMPLES fresh workers
are started one after the other, each timed from spawn until it reports
ready, and the last one runs the workload.  Workers run single-threaded
and never overlap.
"""
from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid", "eval", "deep")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Worker:
    """One worker process and a thread that collects its output lines."""

    def __init__(self, root: Path, args: list[str]):
        env = dict(os.environ, **SINGLE_THREAD)
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_line(self, deadline: float) -> str:
        try:
            line = self.lines.get(timeout=max(0.0, deadline - perf_counter()))
        except queue.Empty:
            raise BenchError("worker ran past the time limit") from None
        if line is None:
            raise BenchError(f"worker exited with code {self.proc.wait()} before answering")
        return line

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def stop(self) -> None:
        """Kill the process if it still runs, and wait for it and the reader."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.close()


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Set up SETUP_SAMPLES workers, run the workload in the last one."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    setup_s, digests = [], set()
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        worker = Worker(root, [workload, str(seed), str(seconds), str(trace), size])
        try:
            ready = parse(worker.next_line(deadline))
            setup_s.append(perf_counter() - worker.started)
            digests.add(ready["inputs_sha256"])
            worker.send("run" if last else "exit")
            if last:
                result = parse(worker.next_line(deadline))
            code = worker.proc.wait(timeout=max(0.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the time limit") from None
        finally:
            worker.stop()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
    if len(digests) != 1:
        raise BenchError("workers made different inputs from one seed")
    result["e2e"]["setup_s"] = statistics.median(setup_s)
    result["detail"]["setup_samples_s"] = setup_s
    return result


def parse(line: str) -> dict:
    try:
        return json.loads(line)
    except ValueError:
        raise BenchError(f"worker printed {line[:200]!r}, not JSON") from None


def load_spec(root: Path) -> dict:
    try:
        return json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def metrics_of(result: dict, specs: list[dict], source: str) -> dict:
    """The result's metrics named in specs, with units; all must be there."""
    values = result[source] or {}
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def print_table(workload: str, seed: int, result: dict, metrics: dict) -> None:
    d = result["detail"]
    print(f"workload {workload}  seed {seed}  passes {d['passes']}  "
          f"attempted {result['attempted']}  failed {result['failed']} "
          f"(failed_ratio {d['failed_ratio']:.4f})  correct {result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
    for problem in d["problems"]:
        print(f"  problem: {problem}")
    print("facts " + json.dumps(result["facts"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # Exit through the finally blocks that stop the worker when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    try:
        if not (root / "src" / "tornheim" / "__init__.py").is_file():
            raise BenchError(f"no src/tornheim under {root}; run from the repository root")
        spec = load_spec(root)
        source, specs = ("layers", spec["per_layer"]) if args.trace else ("e2e", spec["end_to_end"])
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, args.trace, args.size)
            metrics = metrics_of(result, specs, source)
            print_table(name, args.seed, result, metrics)
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tag = f"{name}-seed{args.seed}-trace{args.trace}-{args.size}"
            (out / f"result-{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
