"""Seeded benchmark of torsionlab: one workload and one seed in one process.

Run from the repository root:

    python3 perfbench/run.py --workload census_flow --seed 1 --seconds 55 --trace 0

The workloads (census_flow, torsion_witten) are described in
BENCHMARK.json and built in workloads.py from the seeded inputs of
inputs.py. The program is imported from ``src/`` of the same checkout;
without it the benchmark exits with code 2 and prints no result.

A run is a closed loop with one client: it runs cases back to back and
starts another only if it is expected to end within ``--seconds``; at least
one case always runs. Each case calls the layers, then checks every result
against an oracle. A case that raises or fails a check counts as failed;
the run goes on.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json:

- ``setup_s``: from the start of this script to the first timed case
  (imports, warm-up calls), the median over ``SETUP_REPEATS`` processes;
- ``wall_s``: the wall time from the first case's start to the last case's
  checks, divided by the number of cases (the mean case time, idle
  included);
- ``case_p50_s``: the median wall time of one case;
- ``peak_rss_mb``: the peak resident memory of this process.

The error rate and the check margin (max over the numeric checks of
log10(error / tolerance), below 0 when they pass) are printed on the
``summary`` line before it, with the environment.

With ``--trace 1`` the last line holds the per-layer metrics instead: span
time and call count per layer function, each layer's share of the traced
wall time and its warning count, work counters, and the benchmark's own
time. Spans are kept in memory and written to ``perfbench/out/`` at the
end.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("birthdeath", "forms", "graded", "witten1d", "morse")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


class Checks:
    """Oracle checks of one case and the margins of the numeric ones."""

    def __init__(self):
        self.failures = []
        self.margins = []

    def require(self, name, ok):
        if not ok:
            self.failures.append(name)

    def within(self, name, error, tol):
        error = float(error)
        self.margins.append(math.log10(max(error, 1e-300) / tol))
        if not error <= tol:
            self.failures.append(f"{name}: {error:.3e} > {tol:.3e}")


class Tracer:
    """Wraps the benchmark's calls into the layers.

    Every call records the warnings it raised, counted per layer, so none
    is silenced. When enabled, a call also keeps a span (name, case,
    parent, start, end) in memory; the parent is the span of its case. The
    time spent keeping spans is summed as the tracing overhead.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.case = None
        self.spans = []
        self.counters = defaultdict(float)
        self.warnings = defaultdict(int)
        self.warning_log = []
        self.overhead_s = 0.0

    def call(self, fn, *args, tag=None, **kwargs):
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}" + (f".{tag}" if tag else "")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if self.enabled:
                    self.spans.append({"name": name, "case": self.case,
                                       "parent": f"case {self.case}",
                                       "start": start, "end": end})
                    self.overhead_s += time.perf_counter() - end
                for w in caught:
                    self.warnings[layer] += 1
                    self.warning_log.append(
                        f"case {self.case} {name}: {w.category.__name__}: {w.message}")

    def case_span(self, start, end):
        if self.enabled:
            self.spans.append({"name": "bench.case", "case": self.case, "parent": None,
                               "start": start, "end": end})

    def count(self, name, value):
        self.counters[name] += value


def run_case(case_fn, params, tracer, case_id):
    """Run one case; a raise or a failed check marks it failed."""
    checks = Checks()
    tracer.case = case_id
    error = None
    start = time.perf_counter()
    try:
        case_fn(tracer, checks, params)
    except Exception as exc:  # counted in the error rate; the run goes on
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    end = time.perf_counter()
    tracer.case_span(start, end)
    ok = error is None and not checks.failures
    if not ok:
        reason = error or "; ".join(checks.failures)
        print(f"FAILED case {case_id} {params}: {reason}", file=sys.stderr)
    return {"case": case_id, "params": params, "seconds": end - start, "ok": ok,
            "error": error, "failures": checks.failures, "margins": checks.margins}


def run_cases(case_fn, params_fn, seconds, tracer):
    """Cases back to back until another would overrun `seconds`; at least one.

    Returns the case outcomes and the start of the first case and the end
    of the last.
    """
    outcomes = []
    first = time.perf_counter()
    while True:
        index = len(outcomes)
        outcomes.append(run_case(case_fn, params_fn(index), tracer, index))
        last = time.perf_counter()
        if (last - first) * (index + 2) / (index + 1) > seconds:
            return outcomes, first, last


def quality(outcomes):
    """Error rate and check margin; the margin is None if no numeric check ran."""
    margins = [m for o in outcomes for m in o["margins"]]
    return {
        "error_rate": sum(not o["ok"] for o in outcomes) / len(outcomes),
        "check_margin_log10": max(margins) if margins else None,
    }


def layer_metrics(tracer, outcomes, first, last):
    """Per-layer metrics of a traced run, keyed by name."""
    wall = last - first
    out = defaultdict(float)
    busy = defaultdict(float)
    for span in tracer.spans:
        if span["name"] == "bench.case":
            continue
        layer = span["name"].split(".")[0]
        if layer not in LAYERS:
            raise BenchmarkError(f"span {span['name']} is not in a known layer")
        duration = span["end"] - span["start"]
        out[span["name"] + ".s"] += duration
        out[span["name"] + ".calls"] += 1
        busy[layer] += duration
    for layer in LAYERS:
        out[f"{layer}.share"] = busy[layer] / wall
        out[f"{layer}.warnings"] = tracer.warnings[layer]
    c = tracer.counters
    out["birthdeath.find_critical_points.points"] = c["birthdeath.find_critical_points.points"]
    dirs = c["birthdeath.flow_containment_probe.dirs"]
    out["birthdeath.flow_containment_probe.stalled_ratio"] = (
        c["birthdeath.flow_containment_probe.unfinished"] / dirs if dirs else 0.0)
    out["forms.anomaly_check.edge_samples"] = c["forms.anomaly_check.edge_samples"]
    out["forms.transgression.path_samples"] = c["forms.transgression.path_samples"]
    out["bench.checks.s"] = wall - sum(busy.values())
    out["bench.traced_wall_s"] = wall
    out["bench.trace_overhead_s"] = tracer.overhead_s
    out["bench.cases"] = len(outcomes)
    for name, value in quality(outcomes).items():
        if value is not None:
            out[f"bench.{name}"] = value
    return out


def select_metrics(values, registered, fill_missing):
    """Metrics named in BENCHMARK.json, as {name: {"value", "unit"}}.

    A measured name that is not registered is an error. A registered
    per-layer name that the workload never measures (a layer it does not
    call) reads 0.
    """
    units = {m["name"]: m["unit"] for m in registered}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchmarkError(f"metrics not registered in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not fill_missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def cap_blas_threads():
    """Cap the BLAS pool at the CPUs this process may use; before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(blas_threads):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "scipy": scipy.__version__,
    }


def child_setup_seconds(args):
    """Set-up time of a fresh process running the same workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and warm up, print the set-up time, exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no torsionlab sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import torsionlab

    if SRC not in Path(torsionlab.__file__).resolve().parents:
        raise BenchmarkError(f"torsionlab imported from {torsionlab.__file__}, not {SRC}")
    import inputs
    import workloads

    case_fn, warmup = workloads.CASES[args.workload]
    warmup()
    setups = [time.perf_counter() - _SCRIPT_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    setups += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = Tracer(enabled=bool(args.trace))
    outcomes, first, last = run_cases(
        case_fn, lambda case: inputs.case_params(args.workload, args.seed, case),
        args.seconds, tracer)

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": (last - first) / len(outcomes),
        "case_p50_s": statistics.median(o["seconds"] for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(not o["ok"] for o in outcomes)
    env = environment(threads)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(error_rate="ratio", check_margin_log10="decades")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in {**e2e, **quality(outcomes)}.items()},
        "cases": len(outcomes),
        "case_seconds": [o["seconds"] for o in outcomes],
        "setup_samples_s": setups,
        "warnings": dict(tracer.warnings),
        "failed_cases": [o["case"] for o in outcomes if not o["ok"]],
        "environment": env,
    }
    for line in sorted(set(tracer.warning_log)):
        print(f"warning: {line}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(tracer, outcomes, first, last)
        metrics = select_metrics(values, spec["per_layer"], fill_missing=True)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace = {
            "workload": args.workload, "seed": args.seed, "environment": env,
            "spans": [{**s, "start": s["start"] - first, "end": s["end"] - first}
                      for s in tracer.spans],
            "cases": outcomes, "warnings": tracer.warning_log,
        }
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(trace, indent=1) + "\n")
        summary["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = select_metrics(e2e, spec["end_to_end"], fill_missing=False)
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
