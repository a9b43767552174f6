"""Tests of the benchmark's own inputs, failure accounting and tracing.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They need numpy but not torsionlab: the cases here are stand-ins.
"""

import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run as bench  # noqa: E402

SEEDS = range(8)
CASES = 18

# the ranges the workloads promise, stated independently of inputs.RANGES
TWO_PI = 6.283185307179586
EXPECTED = {
    "A": (1000.0, 2000.0),
    "flow_A": (1000.0, 2000.0),
    "holonomy": (0.5, TWO_PI - 0.5),
    "tilt": (-0.05, 0.05),
    "beta": (0.2, 0.4),
    "amp": (0.1, 0.2),
    "n_fiber": (24, 40),
    "twist": (0.5, TWO_PI - 0.5),
    "theta": (0.5, TWO_PI - 0.5),
    "glue_amp": (0.04, 0.06),
    "small_amp": (0.08, 0.12),
    "fs_amp": (0.08, 0.12),
    "fs_small_T": (20.0, 70.0),
    "fs_large_T": (20.0, 40.0),
    "fs_large_nodes": (2500, 5000),
}


def drawn(workload, seed):
    return [inputs.case_params(workload, seed, case) for case in range(CASES)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for seed in SEEDS:
        assert drawn(workload, seed) == drawn(workload, seed)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    for seed in SEEDS:
        for a, b in zip(drawn(workload, seed), drawn(workload, seed + 100)):
            assert a != b


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_drawn_inputs_lie_inside_the_ranges(workload):
    for seed in SEEDS:
        for params in drawn(workload, seed):
            for key, value in params.items():
                if key in ("y", "points"):
                    assert (params["y"], params["points"]) in (
                        (0.0, 7), (0.5 * 0.0015**2, 8), (-0.5 * 0.0015**2, 6))
                else:
                    lo, hi = EXPECTED[key]
                    for v in value if isinstance(value, list) else [value]:
                        assert lo <= v <= hi, (key, v)
            if workload == "torsion_witten":
                assert isinstance(params["n_fiber"], int)
                assert isinstance(params["fs_large_nodes"], int)


def _third(a):
    return min(2, int(3 * math.log2(a / 1000.0)))


def test_consecutive_cases_cover_every_stratum():
    for seed in SEEDS:
        cases = drawn("census_flow", seed)
        for k in range(CASES - 2):
            block = cases[k:k + 3]
            assert sorted(p["points"] for p in block) == [6, 7, 8]
            assert sorted(_third(p["flow_A"]) for p in block) == [0, 1, 2]
            if k % 3 == 0:
                assert sorted(_third(p["A"]) for p in block) == [0, 1, 2]
        sizes = [p["n_fiber"] for p in drawn("torsion_witten", seed)]
        for a, b in zip(sizes, sizes[1:]):
            assert min(a, b) <= 32 <= max(a, b)


def test_nine_census_cases_pair_each_regime_with_each_amplitude_third():
    for seed in SEEDS:
        cases = drawn("census_flow", seed)[:9]
        assert len({(p["points"], _third(p["A"])) for p in cases}) == 9


def _layer_fn(module, fn):
    fn.__module__ = f"torsionlab.{module}"
    return fn


def test_failing_cases_raise_the_error_rate():
    def case(t, checks, prm):
        if prm == "raises":
            raise RuntimeError("injected failure")
        checks.within("injected check", 2.0 if prm == "wrong" else 0.5, 1.0)

    tracer = bench.Tracer(enabled=False)
    outcomes = [bench.run_case(case, prm, tracer, i)
                for i, prm in enumerate(["right", "raises", "wrong", "right"])]
    assert [o["ok"] for o in outcomes] == [True, False, False, True]
    q = bench.quality(outcomes)
    assert q["error_rate"] == 0.5
    assert q["check_margin_log10"] > 0

    clean = [o for o in outcomes if o["ok"]]
    assert bench.quality(clean)["error_rate"] == 0.0
    assert bench.quality(clean)["check_margin_log10"] < 0


def test_a_run_stops_before_overrunning_but_runs_one_case():
    calls = []
    outcomes, first, last = bench.run_cases(
        lambda t, checks, prm: calls.append(prm), lambda i: i, 0.0,
        bench.Tracer(enabled=False))
    assert calls == [0] and len(outcomes) == 1 and last >= first


def test_warnings_are_counted_per_layer_not_hidden():
    noisy = _layer_fn("forms", lambda: warnings.warn("diagnostic"))
    tracer = bench.Tracer(enabled=False)
    tracer.call(noisy)
    tracer.call(noisy)
    assert tracer.warnings["forms"] == 2
    assert len(tracer.warning_log) == 2


def test_spans_and_bench_time_account_for_the_traced_wall():
    work = _layer_fn("graded", lambda n: sum(range(n)))
    other = _layer_fn("witten1d", lambda n: sorted(range(n, 0, -1)))

    def case(t, checks, prm):
        checks.require("sum", t.call(work, prm) == prm * (prm - 1) // 2)
        t.call(other, prm, tag="small")

    tracer = bench.Tracer(enabled=True)
    first = time.perf_counter()
    outcomes = [bench.run_case(case, 20000 * (i + 1), tracer, i) for i in range(2)]
    last = time.perf_counter()
    values = bench.layer_metrics(tracer, outcomes, first, last)
    spans = sum(v for k, v in values.items() if k.endswith(".s") and not k.startswith("bench."))
    assert values["graded.<lambda>.calls"] == 2
    assert values["witten1d.<lambda>.small.calls"] == 2
    assert spans + values["bench.checks.s"] == pytest.approx(values["bench.traced_wall_s"])
    assert values["graded.share"] + values["witten1d.share"] <= 1.0
    assert {s["parent"] for s in tracer.spans if s["name"] != "bench.case"} == {
        "case 0", "case 1"}


def test_only_registered_metrics_are_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    with pytest.raises(bench.BenchmarkError):
        bench.select_metrics({"nonexistent.metric": 1.0}, spec["per_layer"], True)
    with pytest.raises(bench.BenchmarkError):
        bench.select_metrics({"setup_s": 1.0}, spec["end_to_end"], False)
    filled = bench.select_metrics({}, spec["per_layer"], True)
    assert all(v["value"] == 0.0 for v in filled.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
