"""Seeded inputs of the benchmark workloads.

A case's inputs are a pure function of (seed, workload, case index), so a
seed gives the same inputs however fast the program runs and however many
cases fit into a run. Parameters that change a case's cost markedly are
stratified over consecutive cases, so that every run covers their range
evenly and the per-run medians do not depend on where the seed lands: the
census rotates the unfolding regime and the third of the log-A range it
draws from, the flow study rotates its third of the log-A range, and the
torsion study alternates its fiber size between the halves of its range.
Other parameters are uniform.

The seed varies only the physical parameters. The program's own RNG seeds
are fixed and are not touched here: the Newton census seeds
(``birthdeath.NEWTON_SEED``), the radial-derivative samples (2024), the
forward-trap starting points (7) and the containment-probe directions (99).

This module needs numpy only, so the tests can draw inputs without
importing torsionlab.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("census_flow", "torsion_witten")

DELTA = 0.0015
#: unfolding parameter y and the critical-point count the census must find
REGIMES = ((0.0, 7), (0.5 * DELTA**2, 8), (-0.5 * DELTA**2, 6))
#: twisted holonomies and twists stay this far from 0 mod 2 pi (acyclic)
AWAY_FROM_ZERO = 0.5

RANGES = {
    "A": (1000.0, 2000.0),  # log-uniform
    "holonomy": (AWAY_FROM_ZERO, 2 * math.pi - AWAY_FROM_ZERO),
    "tilt": (-0.05, 0.05),
    "beta": (0.2, 0.4),
    "amp": (0.1, 0.2),
    "n_fiber": (24, 40),
    "twist": (AWAY_FROM_ZERO, 2 * math.pi - AWAY_FROM_ZERO),
    "theta": (AWAY_FROM_ZERO, 2 * math.pi - AWAY_FROM_ZERO),
    "glue_amp": (0.04, 0.06),
    "small_amp": (0.08, 0.12),
    "fs_amp": (0.08, 0.12),
    "fs_small_T": (20.0, 70.0),
    "fs_large_T": (20.0, 40.0),
    "fs_large_nodes": (2500, 5000),
}


def _rng(workload, seed, case):
    return np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(workload), case])


def _uniform(rng, name):
    lo, hi = RANGES[name]
    return float(rng.uniform(lo, hi))


def _binned(rng, name, bin_index, n_bins, log=False):
    """A draw from bin `bin_index` of `n_bins` equal bins of RANGES[name]."""
    lo, hi = RANGES[name]
    u = (bin_index + rng.random()) / n_bins
    if log:
        return float(lo * (hi / lo) ** u)
    return float(lo + (hi - lo) * u)


def case_params(workload, seed, case):
    """Plain-Python parameters of case number `case` (0, 1, ...) of a run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed, case)
    if workload == "census_flow":
        # the regime has period 3 and the census A bin shifts every third
        # case, so nine cases pair each regime with each third of the range
        y, points = REGIMES[case % 3]
        return {
            "y": y,
            "points": points,
            "A": _binned(rng, "A", (case + case // 3) % 3, 3, log=True),
            "flow_A": _binned(rng, "A", case % 3, 3, log=True),
            "holonomy": [_uniform(rng, "holonomy") for _ in range(2)],
            "tilt": [_uniform(rng, "tilt") for _ in range(2)],
        }
    lo_nodes, hi_nodes = RANGES["fs_large_nodes"]
    return {
        "beta": _uniform(rng, "beta"),
        "amp": _uniform(rng, "amp"),
        "n_fiber": round(_binned(rng, "n_fiber", case % 2, 2)),
        "twist": _uniform(rng, "twist"),
        "theta": _uniform(rng, "theta"),
        "glue_amp": _uniform(rng, "glue_amp"),
        "small_amp": _uniform(rng, "small_amp"),
        "fs_amp": _uniform(rng, "fs_amp"),
        "fs_small_T": _uniform(rng, "fs_small_T"),
        "fs_large_T": _uniform(rng, "fs_large_T"),
        "fs_large_nodes": int(rng.integers(lo_nodes, hi_nodes + 1)),
    }
