"""Case bodies, oracle checks and warm-ups of the two workloads.

A census_flow case is one census study (the array evaluator and Newton)
and one flow study (the scalar evaluator in gradient flows, and a torus
Morse complex); a torsion_witten case is one torsion study (forms, graded
and the Cheeger-Mueller oracle) and one witten study (witten1d spectra).

Every call into torsionlab goes through ``tracer.call`` so the traced run
can time it, and uses only names listed in the module's ``__all__``. The
test-only fixtures (``tests/util.py``) and the acceptance module's private
helpers are deliberately not used: the benchmark builds its own complexes
and families from ``GradedComplex`` and ``SuperconnectionFamily``.

A case gets a tracer ``t`` and a ``checks`` object (see run.py) and records
every oracle check there: ``require`` for a condition, ``within`` for an
error against a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from torsionlab import birthdeath as B
from torsionlab import forms as F
from torsionlab import graded as G
from torsionlab import morse as M
from torsionlab import witten1d as W

BD_PARAMS = dict(n=6, i=3, r1=0.04, r2=0.06, delta=0.0015)

# Sizes below the acceptance-criterion defaults keep several cases of each
# workload inside one run; the seeded parameter ranges are unchanged.
CENSUS_RANDOM_SEEDS = 200  # find_critical_points default: 1000
RADIAL_SAMPLES = 5000
FLOW_DIRS = 8
TRAP_TRAJECTORIES = 2
TRAP_T_END = 5.0
#: each torsion study runs the family on both base samplings
BASE_SAMPLES = (32, 64)
TRANSGRESSION_NODES = 33
ANOMALY_NODES = 200
CM_GRID = 500  # the combinatorial/exact gap does not depend on the grid
GLUE_LADDER = [1.0, 4.0, 16.0, 64.0]
SMALL_EIG_LADDER = list(range(20, 81, 10))
CUBIC_NODES = 1500
SPECTRUM_K = 8
#: factor eigenvalues above this are compared between form degrees 0 and 1
PAIRING_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# census: batched evaluator plus Newton
# ---------------------------------------------------------------------------

def census_study(t, checks, prm):
    p = t.call(B.ModelParams, y=prm["y"], A=prm["A"], **BD_PARAMS)
    prof = t.call(B.build_profiles, p, verify=True)
    census = t.call(B.find_critical_points, p, prof, n_random=CENSUS_RANDOM_SEEDS)
    t.count("birthdeath.find_critical_points.points", len(census))
    checks.require(f"census found {len(census)} points, want {prm['points']}",
                   len(census) == prm["points"])
    if prm["y"] == 0.0 and census:
        bd = [c for c in census if c.birth_death]
        checks.require("one birth-death point of index i",
                       len(bd) == 1 and bd[0].morse_index == p.i)
        worst = 0.0
        for cf in t.call(B.closed_form_candidates, p):
            best = min(census, key=lambda c: np.linalg.norm(c.location - cf.location))
            rel = np.linalg.norm(best.location - cf.location) / np.linalg.norm(cf.location)
            rel_s = np.abs(
                np.sort(best.hessian_spectrum) - np.sort(cf.hessian_spectrum)
            ).max() / np.abs(cf.hessian_spectrum).max()
            worst = max(worst, rel, rel_s)
        checks.within("closed-form candidates", worst, 1e-8)
    slope = t.call(B.radial_derivative_check, p, prof, n_samples=RADIAL_SAMPLES)
    checks.require(f"radial derivative {slope} > 0", slope is not None and slope > 0)


def census_warmup():
    p = B.ModelParams(y=0.0, A=1000.0, **BD_PARAMS)
    B.radial_derivative_check(p, B.build_profiles(p, verify=False), n_samples=16)


# ---------------------------------------------------------------------------
# flow: gradient-flow integration through the scalar evaluator
# ---------------------------------------------------------------------------

def flow_study(t, checks, prm):
    p = t.call(B.ModelParams, y=0.0, A=prm["flow_A"], **BD_PARAMS)
    prof = t.call(B.build_profiles, p, verify=False)
    start = [c for c in t.call(B.closed_form_candidates, p) if c.morse_index == p.i]
    probe = t.call(B.flow_containment_probe, p, prof, start[0], c=10 * p.r2**2,
                   n_dirs=FLOW_DIRS)
    t.count("birthdeath.flow_containment_probe.unfinished",
            probe["stalled"] + probe["divergent"])
    t.count("birthdeath.flow_containment_probe.dirs", FLOW_DIRS)
    checks.require("probe crosses the level set", len(probe["crossings"]) >= 1)
    checks.require("probe u0 bound", probe["u0_ok"])
    checks.require("probe u+ bound", probe["uplus_ok"])
    trap = t.call(B.forward_trap_check, p, prof, n_traj=TRAP_TRAJECTORIES,
                  t_end=TRAP_T_END)
    checks.within("forward trap radius", trap["max_radius"], trap["bound"] + 1e-9)

    rep = [np.array([[np.exp(1j * a)]]) for a in prm["holonomy"]]
    model = t.call(M.torus_model, rep=rep, tilt=tuple(prm["tilt"]))
    cpx = t.call(M.build_complex, model).complex
    checks.require(f"torus ranks {cpx.ranks}", cpx.ranks == (1, 2, 1))
    d0, d1 = cpx.diffs
    checks.within("torus d o d", np.abs(d1 @ d0).max(), 1e-9)
    ft = t.call(G.finite_torsion, cpx)
    fti = t.call(G.finite_torsion_integral, cpx)
    checks.within("torus torsion routes", abs(ft - fti), 1e-8 * max(1.0, abs(ft)))


def flow_warmup():
    p = B.ModelParams(y=0.0, A=1000.0, **BD_PARAMS)
    B.forward_trap_check(p, B.build_profiles(p, verify=False), n_traj=1, t_end=0.01)


# ---------------------------------------------------------------------------
# torsion: forms, graded and the morse oracle
# ---------------------------------------------------------------------------

def _direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _flat_family(call, m, beta, amp, metrics=True):
    """Acyclic rank-(1, 2, 1) flat family over an m-sample circle.

    The differential is conjugated around the base by exp(theta * gen), so
    the transports exp(gen * dtheta) keep it covariantly constant; the
    holonomy exp(2 pi gen) is the scalar exp(2 pi i beta). With `metrics`
    the Gram matrices vary with the base point, else they are the identity.
    """
    gen = np.zeros((4, 4), dtype=complex)
    gen[0, 0] = 1j * (beta - 1)
    gen[1:3, 1:3] = 1j * beta * np.eye(2) + 1j * np.array([[0, 1], [1, 0]])
    gen[3, 3] = 1j * (beta + 1)
    v0 = np.zeros((4, 4), dtype=complex)
    v0[1:3, 0] = 0.9
    v0[3, 1:3] = (1.1, -1.1)
    dth = 2 * np.pi / m
    step = scipy.linalg.expm(dth * gen)
    fibers = []
    for j in range(m):
        th = j * dth
        u = scipy.linalg.expm(th * gen)
        v = u @ v0 @ u.conj().T  # gen is skew-Hermitian, so u is unitary
        gram = []
        if metrics:
            a, b = amp * np.sin(th), amp * np.cos(2 * th)
            gram = [
                np.array([[1.0 + amp * np.cos(th)]], dtype=complex),
                np.eye(2) + np.array([[a, 0.3 * b], [0.3 * b, -0.5 * a]], dtype=complex),
                np.array([[1.0 + amp * np.sin(2 * th)]], dtype=complex),
            ]
        fibers.append(call(G.GradedComplex, (1, 2, 1), [v[1:3, 0:1], v[3:4, 1:3]], gram))
    return call(F.SuperconnectionFamily, fibers, [step] * m)


def _twisted_circle(call, n, twist):
    """De Rham complex of an n-node circle whose wrap-around edge carries
    exp(i twist); identity metrics."""
    h = 2 * np.pi / n
    d = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)).astype(complex) / h
    d[n - 1, 0] *= np.exp(1j * twist)
    return call(G.GradedComplex, (n, n), [d])


def torsion_study(t, checks, prm):
    residual = {}
    for m in BASE_SAMPLES:
        fam = _flat_family(t.call, m, prm["beta"], prm["amp"])
        res = t.call(F.anomaly_check, fam, tau=1e-3, t_max=80.0, n_t=ANOMALY_NODES)
        t.count("forms.anomaly_check.edge_samples", m * ANOMALY_NODES)
        residual[m] = res["max_residual"]

        def path(l, j, fam=fam):
            return [(1 - l) * np.eye(len(g)) + l * g for g in fam.fibers[j].metrics]

        tg = t.call(F.transgression, fam, path, n_l=TRANSGRESSION_NODES)
        t.count("forms.transgression.path_samples", m * TRANSGRESSION_NODES)
        h1 = t.call(F.h_form, fam).degree1
        identity = _flat_family(t.call, m, prm["beta"], prm["amp"], metrics=False)
        h0 = t.call(F.h_form, identity).degree1
        checks.within(f"transgression identity at m={m}",
                      np.abs(h1 - h0 - tg.dS()).max(), 1e-6 + 40.0 / m**2)
    # acceptance criterion 3: the bound on the finer base, and at least a
    # threefold drop of the residual when the base is refined
    coarse, fine = BASE_SAMPLES
    checks.within(f"anomaly residual at m={fine}", residual[fine], 1e-4)
    checks.within("anomaly refinement 3 r_fine / r_coarse",
                  3.0 * residual[fine] / residual[coarse], 1.0)

    n, twist = prm["n_fiber"], prm["twist"]
    cpx = _twisted_circle(t.call, n, twist)
    ft = t.call(G.finite_torsion, cpx)
    fti = t.call(G.finite_torsion_integral, cpx)
    # |det d| = |1 - e^{i twist}| / h^n, and the torsion is -log|det d|
    exact = n * math.log(2 * math.pi / n) - math.log(abs(1 - np.exp(1j * twist)))
    scale = 1e-8 * max(1.0, abs(exact))
    checks.within("circle torsion vs integral", abs(ft - fti), scale)
    checks.within("circle torsion vs closed form", abs(ft - exact), scale)

    cm = t.call(M.cheeger_muller_compare, prm["theta"], n_grid=CM_GRID)
    checks.within("Cheeger-Mueller gap", cm["gap_comb_exact"], 1e-6)


def torsion_warmup():
    F.h_form(_flat_family(_direct, 8, 0.3, 0.15))
    G.finite_torsion_integral(_twisted_circle(_direct, 8, 1.0))
    M.cheeger_muller_compare(1.0, n_grid=200)


# ---------------------------------------------------------------------------
# witten: dense SVD and shift-invert on the Witten factors
# ---------------------------------------------------------------------------

def cos2(a):
    """(f, f', f'') of f(s) = a cos 2s: two wells and two ridges."""
    return (
        lambda s: a * np.cos(2 * s),
        lambda s: -2 * a * np.sin(2 * s),
        lambda s: -4 * a * np.cos(2 * s),
    )


def _check_gluing(checks, out):
    for deg in (0, 1):
        rows = out[deg]
        final = rows[-1]
        tol = 1e-2 * np.maximum(final["lambda_split"], 1e-6)
        checks.within(f"gluing deg{deg} final gap / tol", np.max(final["gaps"] / tol), 1.0)
        for r0, r1 in zip(rows, rows[1:]):
            checks.require(f"gluing deg{deg} gaps shrink at A={r1['A']}",
                           bool((r1["gaps"] <= np.maximum(r0["gaps"], tol)).all()))
        checks.require(f"gluing deg{deg} cluster = kernels",
                       final["cluster_count"] == final["kernel_sum"])


def _check_factor_pairing(t, checks, size, f_triple, T, n_nodes):
    lams = []
    for deg in (0, 1):
        prob = t.call(W.circle_problem, f_triple, T, n_nodes=n_nodes, form_degree=deg)
        lam, kernel = t.call(W.factor_spectrum, prob, k=SPECTRUM_K, tag=size)
        checks.require(f"{size} factor deg{deg} kernel {kernel} != 1", kernel == 1)
        lams.append(np.asarray(lam))
    lam0, lam1 = lams
    upper = np.maximum(lam0, lam1) > PAIRING_FLOOR
    rel = np.abs(lam0 - lam1)[upper].max() / np.maximum(lam0, lam1)[upper].max()
    checks.within(f"{size} factor degree pairing", rel, 1e-6)


def witten_study(t, checks, prm):
    out = t.call(W.gluing_scan, cos2(prm["glue_amp"]), T=40.0, A_ladder=GLUE_LADDER,
                 interface_r=0.12, k=7)
    _check_gluing(checks, out)

    scan = t.call(W.small_eigenvalue_scan, cos2(prm["small_amp"]), SMALL_EIG_LADDER)[1]
    checks.require("tunnelling branch ok", scan["ok"])
    checks.within("tunnelling slope", abs(scan["slope"] - scan["prediction"]),
                  0.10 * abs(scan["prediction"]))

    base = t.call(W.cubic_model_eigs, 1.0, 5, n_nodes=CUBIC_NODES)
    for T in (8.0, 64.0):
        w = t.call(W.cubic_model_eigs, T, 5, n_nodes=CUBIC_NODES)
        drift = np.abs(w / T ** (2.0 / 3.0) - base).max() / np.abs(base).max()
        checks.within(f"cubic rescaling drift at T={T:g}", drift, 0.01)

    f_triple = cos2(prm["fs_amp"])
    _check_factor_pairing(t, checks, "small", f_triple, prm["fs_small_T"], None)
    _check_factor_pairing(t, checks, "large", f_triple, prm["fs_large_T"],
                          prm["fs_large_nodes"])


def witten_warmup():
    prob = W.circle_problem(cos2(0.1), 5.0)
    W.factor_spectrum(prob, k=4)
    W.factor_spectrum(prob, k=4, dense_limit=0)
    W.cubic_model_eigs(1.0, 2, n_nodes=64)


def census_flow_case(t, checks, prm):
    census_study(t, checks, prm)
    flow_study(t, checks, prm)


def census_flow_warmup():
    census_warmup()
    flow_warmup()


def torsion_witten_case(t, checks, prm):
    torsion_study(t, checks, prm)
    witten_study(t, checks, prm)


def torsion_witten_warmup():
    torsion_warmup()
    witten_warmup()


CASES = {
    "census_flow": (census_flow_case, census_flow_warmup),
    "torsion_witten": (torsion_witten_case, torsion_witten_warmup),
}
