"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import workloads
from probes import probe_names
from tracing import LAYERS, Tracer, find_layer, tornheim_modules

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def bindings() -> dict:
    return {
        (mod.__name__, name): mod.__dict__[name]
        for mod in tornheim_modules()
        for name in LAYERS
        if name in mod.__dict__
    }


@pytest.fixture(scope="module")
def api():
    sys.path.insert(0, str(ROOT / "src"))
    import tornheim

    return tornheim


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    if workload != "grid":
        assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_eval_stream_uses_every_triple_once():
    assert len(workloads.triples(20)) == 1635
    assert len(workloads.roots(workloads.EVAL_ORDERS)) == 16
    requests = workloads.make_inputs("eval", 3)["requests"]
    assert sorted(t for t, _, _ in requests) == sorted(workloads.triples(20))


def test_grid_case_count_matches_acceptance_grid():
    assert workloads.make_inputs("grid", 1)["cases"] == 396


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(probe_names()) <= layer_names


def test_traced_values_equal_untraced(api):
    wl = workloads.Workload(api, "eval", workloads.make_inputs("eval", 5, "smoke"))
    eval_li = find_layer("eval_li")
    eval_li.cache_clear()
    plain = wl.run_pass()
    eval_li.cache_clear()
    before = bindings()
    tracer = Tracer()
    with tracer.installed():
        assert bindings() != before
        traced = wl.run_pass()
    assert bindings() == before
    assert workloads.fingerprint(traced.outputs) == workloads.fingerprint(plain.outputs)
    info = eval_li.cache_info()
    layers = tracer.layer_metrics(info.hits, info.misses)
    assert layers["eval_li.calls"] == info.hits + info.misses
    assert layers["decompose.calls"] == len(wl.requests)
    assert layers["hurwitz_tail.calls"] > 0 and layers["eval_mt_direct.calls"] == 0


def test_exception_counts_as_failed_request(api):
    inputs = workloads.make_inputs("eval", 5, "smoke")
    bad = workloads.Workload(api, "eval", inputs).requests[0][0]

    def eval_decomposition(d, cfg):
        if d.index == bad:
            raise RuntimeError("injected")
        return api.eval_decomposition(d, cfg)

    stub = SimpleNamespace(**{**vars(api), "eval_decomposition": eval_decomposition})
    wl = workloads.Workload(stub, "eval", inputs)
    p = wl.run_pass()
    assert isinstance(p.outputs[0], RuntimeError) and len(p.outputs) == len(wl.requests)
    check = wl.check(p)
    assert check.failed >= 1 and not check.problems
    assert "raised RuntimeError" in check.misses[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                                 "--trace", "0", "--size", "smoke"))
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    result = result_of(run_bench("--workload", "grid", "--seed", "2", "--seconds", "1",
                                 "--trace", "1", "--size", "smoke"))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["eval_mt_direct.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
