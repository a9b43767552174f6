"""The acceptance suite: one callable per criterion, shared by the CLI
verify-all command and the pytest acceptance module.

Each criterion returns a dict with 'name', 'passed', 'detail', 'seconds'
and 'budget'; passing requires both the functional check and the runtime
budget.
"""

from __future__ import annotations

import sys
import time
import warnings

import numpy as np

__all__ = ["CRITERIA", "run_all", "random_complex", "random_metric", "cos2", "anomaly_family"]


def _timed(budget):
    def deco(fn):
        def wrapped():
            t0 = time.perf_counter()
            passed, detail = fn()
            dt = time.perf_counter() - t0
            return {
                "name": fn.__name__,
                "passed": bool(passed) and dt <= budget,
                "functional": bool(passed),
                "detail": detail,
                "seconds": dt,
                "budget": budget,
            }

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


BD_PARAMS = dict(n=6, i=3, r1=0.04, r2=0.06, delta=0.0015)


def cos2(a):
    """(f, f', f'') of f(s) = a cos 2s on the circle: two wells, two ridges."""
    return (
        lambda s: a * np.cos(2 * s),
        lambda s: -2 * a * np.sin(2 * s),
        lambda s: -4 * a * np.cos(2 * s),
    )


@_timed(60.0)
def criterion_1_birth_death_census():
    from . import birthdeath as B

    d = BD_PARAMS["delta"]
    ok = True
    details = []
    censuses = {}
    for y, want in ((0.0, 7), (0.5 * d * d, 8), (-0.5 * d * d, 6)):
        p = B.ModelParams(y=y, A=1000.0, **BD_PARAMS)
        prof = B.build_profiles(p, verify=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            census = B.find_critical_points(p, prof)
        censuses[y] = (p, census)
        ok &= len(census) == want
        details.append(f"y={y:+.1e}: {len(census)}/{want}")
    p, census = censuses[0.0]
    bd_pts = [c for c in census if c.birth_death]
    ok &= len(bd_pts) == 1 and bd_pts[0].morse_index == p.i
    inner = [
        c for c in census
        if 0.5 * p.r1 < np.linalg.norm(c.location) < 0.5 * (p.r1 + p.r2)
    ]
    outer = B.outer_triple(census, p)
    ok &= sorted(c.morse_index for c in inner) == sorted([0, p.i, p.i - 1])
    ok &= sorted(c.morse_index for c in outer) == sorted([1, p.i + 1, p.i])
    worst = 0.0
    for cf in B.closed_form_candidates(p):
        best = min(census, key=lambda c: np.linalg.norm(c.location - cf.location))
        rel = np.linalg.norm(best.location - cf.location) / np.linalg.norm(cf.location)
        rel_s = np.abs(
            np.sort(best.hessian_spectrum) - np.sort(cf.hessian_spectrum)
        ).max() / np.abs(cf.hessian_spectrum).max()
        worst = max(worst, rel, rel_s)
    ok &= worst <= 1e-8
    details.append(f"closed-form rel err {worst:.2e}")
    return ok, "; ".join(details)


@_timed(120.0)
def criterion_2_separation_stability():
    from . import birthdeath as B

    p1 = B.ModelParams(y=0.0, A=1000.0, **BD_PARAMS)
    p2 = B.ModelParams(y=0.0, A=2000.0, **BD_PARAMS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c1 = B.find_critical_points(p1, B.build_profiles(p1, verify=False))
        c2 = B.find_critical_points(p2, B.build_profiles(p2, verify=False))
    rep = B.separation_report(c1, c2, p1)
    ok = all(rep[k][2] for k in ("c", "c_prime", "C"))
    det = ", ".join(
        f"{k}: {rep[k][0]:.4g}->{rep[k][1]:.4g}" for k in ("c", "c_prime", "C")
    )
    return ok, det


@_timed(30.0)
def criterion_3_anomaly_formula():
    from . import forms as F

    fam64 = anomaly_family(64)
    out64 = F.anomaly_check(fam64, tau=1e-3, t_max=80.0, n_t=200)
    fam128 = anomaly_family(128)
    out128 = F.anomaly_check(fam128, tau=1e-3, t_max=80.0, n_t=400)
    r64, r128 = out64["max_residual"], out128["max_residual"]
    ok = r64 <= 1e-4 and r64 / r128 >= 3.0
    return ok, f"residual(m=64)={r64:.3e}, refinement ratio={r64 / r128:.2f}"


def anomaly_family(m):
    """Acyclic rank-(1, 2, 1) flat family on m samples (criterion 3, `run anomaly`)."""
    beta, amp = 0.3, 0.15  # phase offset of the fiber rotation, metric wobble
    import scipy.linalg

    from .forms import SuperconnectionFamily
    from .graded import GradedComplex

    d0 = np.array([[1.0], [1.0]], dtype=complex) * 0.9
    d1 = np.array([[1.0, -1.0]], dtype=complex) * 1.1
    gen = np.zeros((4, 4), dtype=complex)
    gen[0, 0] = 1j * (beta - 1)
    gen[1:3, 1:3] = 1j * beta * np.eye(2) + 1j * np.array([[0, 1], [1, 0]])
    gen[3, 3] = 1j * (beta + 1)
    v0 = np.zeros((4, 4), dtype=complex)
    v0[1:3, 0:1] = d0
    v0[3:4, 1:3] = d1
    fibers, transports = [], []
    dth = 2 * np.pi / m
    for j in range(m):
        th = j * dth
        u = scipy.linalg.expm(th * gen)
        v = u @ v0 @ np.linalg.inv(u)
        g0 = np.array([[1.0 + amp * np.cos(th)]], dtype=complex)
        a = amp * np.sin(th)
        b = amp * np.cos(2 * th)
        g1 = np.eye(2, dtype=complex) + np.array(
            [[a, 0.3 * b], [0.3 * b, -0.5 * a]], dtype=complex
        )
        g2 = np.array([[1.0 + amp * np.sin(2 * th)]], dtype=complex)
        fibers.append(
            GradedComplex((1, 2, 1), [v[1:3, 0:1], v[3:4, 1:3]], [g0, g1, g2])
        )
        transports.append(scipy.linalg.expm((th + dth) * gen) @ np.linalg.inv(u))
    return SuperconnectionFamily(fibers, transports)


@_timed(60.0)
def criterion_4_cheeger_muller():
    from . import morse as M

    worst_exact, worst_fem = 0.0, 0.0
    for theta in (np.pi / 3, np.pi / 2, np.pi, 4 * np.pi / 3):
        out = M.cheeger_muller_compare(theta, n_grid=2000)
        worst_exact = max(worst_exact, out["gap_comb_exact"])
        worst_fem = max(worst_fem, out["gap_fem_exact"])
    ok = worst_exact <= 1e-6 and worst_fem <= 1e-2
    return ok, f"comb-exact gap {worst_exact:.2e}, fem gap {worst_fem:.2e}"


@_timed(120.0)
def criterion_5_spectral_gluing():
    from . import witten1d as W

    out = W.gluing_scan(
        cos2(0.05), T=40.0, A_ladder=[1.0, 4.0, 16.0, 64.0], interface_r=0.12, k=7
    )
    ok = True
    details = []
    for deg in (0, 1):
        rows = out[deg]
        final = rows[-1]
        tol = 1e-2 * np.maximum(final["lambda_split"], 1e-6)
        ok &= bool((final["gaps"] <= tol).all())
        for r0, r1 in zip(rows, rows[1:]):
            ok &= bool((r1["gaps"] <= np.maximum(r0["gaps"], tol)).all())
        ok &= final["cluster_count"] == final["kernel_sum"]
        details.append(
            f"deg{deg}: final max gap {final['gaps'].max():.2e}, "
            f"cluster {final['cluster_count']} = kernels {final['kernel_sum']}"
        )
    return ok, "; ".join(details)


@_timed(120.0)
def criterion_6_small_eigenvalue_decay():
    from . import witten1d as W

    out = W.small_eigenvalue_scan(cos2(0.1), list(range(20, 81, 10)))
    r = out[1]
    rel = abs(r["slope"] - r["prediction"]) / abs(r["prediction"])
    return r["ok"], f"slope {r['slope']:.4f} vs -2*barrier {r['prediction']:.4f} ({rel:.1%})"


@_timed(60.0)
def criterion_7_agmon_decay():
    from . import witten1d as W

    sups = W.agmon_decay_check(cos2(0.1), [20, 40, 60, 80], b=0.5)
    spread = float(sups.max() - sups.min())
    return spread <= 2.0, f"sup values {np.round(sups, 3).tolist()}, spread {spread:.2f}"


@_timed(30.0)
def criterion_8_cubic_scaling():
    from . import witten1d as W

    base = W.cubic_model_eigs(1.0, 5, n_nodes=1500)
    worst = 0.0
    for T in (8.0, 64.0):
        w = W.cubic_model_eigs(T, 5, n_nodes=1500)
        worst = max(worst, float(np.abs(w / T ** (2.0 / 3.0) - base).max() / np.abs(base).max()))
    return worst <= 0.01, f"max relative drift of lambda_k / T^(2/3): {worst:.2e}"


@_timed(10.0)
def criterion_9_mayer_vietoris_ranks():
    from . import morse as M
    from .graded import cohomology_dims

    ok = True
    for m_rep in (1, 3):
        for n_sus in (2, 4):
            model = M.circle_model(rep=np.eye(m_rep, dtype=complex))
            ranks = M.ball_removed_ranks(model, n_sus)
            plain = cohomology_dims(M.suspend(M.build_complex(model), n_sus)["complex"])
            ok &= ranks[1] == m_rep
            ok &= all(ranks[l] == 0 for l in range(2, n_sus))
            ok &= all(ranks[l] == plain[l] for l in range(n_sus, len(ranks)))
    return ok, "three-case rank table reproduced for m in {1,3}, N in {2,4}"


@_timed(120.0)
def criterion_10_property_suites():
    from . import birthdeath as B
    from . import witten1d as W
    details = []
    # d^2 = 0 on 200 random complexes (constructor-validated)
    rng = np.random.default_rng(2718)
    count = 0
    while count < 200:
        c = random_complex(rng, identity_metrics=True)
        if c.total_rank == 0:
            continue
        for k in range(len(c.diffs) - 1):
            prod = c.diffs[k + 1] @ c.diffs[k]
            if prod.size and np.abs(prod).max() > 1e-9:
                return False, "d^2 residual exceeded"
        count += 1
    details.append("d2=0 x200")

    # Schauder Hoelder / Minkowski / finite-rank on 100 pairs
    for _ in range(100):
        b1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b2 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        n1, n2 = rng.choice([2.5, 3.0, 4.0, 6.0], size=2)
        n3 = 1.0 / (1.0 / n1 + 1.0 / n2)
        if W.schauder_norm(b1 @ b2, n3) > W.schauder_norm(b1, n1) * W.schauder_norm(b2, n2) * (1 + 1e-12):
            return False, "Hoelder violated"
        nn = float(rng.choice([1.0, 2.0, 3.0]))
        if W.schauder_norm(b1 + b2, nn) > (W.schauder_norm(b1, nn) + W.schauder_norm(b2, nn)) * (1 + 1e-12):
            return False, "Minkowski violated"
        rank = int(rng.integers(1, 4))
        low = sum(np.outer(rng.normal(size=6), rng.normal(size=6)) for _ in range(rank))
        rk = np.linalg.matrix_rank(low)
        if W.schauder_norm(low, 2.0) > rk ** 0.5 * W.schauder_norm(low, np.inf) * (1 + 1e-12):
            return False, "finite-rank bound violated"
    details.append("schauder x100")

    # gradient vs finite differences across the model functions
    p = B.ModelParams(y=0.0, A=500.0, **BD_PARAMS)
    prof = B.build_profiles(p, verify=False)
    h = 1e-6
    for _ in range(60):
        u = rng.normal(size=p.n + 1) * 0.08
        val, grad = B.eval_f(p, prof, u, with_hessian=False)
        fd = np.zeros_like(grad)
        for kk in range(p.n + 1):
            e = np.zeros(p.n + 1)
            e[kk] = h
            fd[kk] = (B.eval_f(p, prof, u + e, with_hessian=False)[0]
                      - B.eval_f(p, prof, u - e, with_hessian=False)[0]) / (2 * h)
        if np.abs(grad - fd).max() > 1e-6 * max(1.0, np.abs(grad).max()):
            return False, "gradient/finite-difference mismatch"
    details.append("grad-fd x60")

    # supersymmetric pairing on the circle
    f1 = (lambda s: 0.2 * np.cos(s), lambda s: -0.2 * np.sin(s),
          lambda s: -0.2 * np.cos(s))
    p0 = W.circle_problem(f1, T=5.0, n_nodes=20000, form_degree=0)
    p1 = W.circle_problem(f1, T=5.0, n_nodes=20000, form_degree=1)
    w0 = W.spectrum(p0, 6).eigenvalues
    w1 = W.spectrum(p1, 6).eigenvalues
    nz0 = w0[w0 > 1e-4][:4]
    nz1 = w1[w1 > 1e-4][:4]
    rel = np.abs(nz0 - nz1).max() / np.abs(nz0).max()
    if rel > 1e-6:
        return False, f"susy pairing off by {rel:.2e}"
    details.append(f"susy {rel:.1e}")
    return True, "; ".join(details)


def random_metric(rng, r):
    """Random Hermitian positive Gram matrix b b^H + I of rank r, b = (X + iY) / 2 Gaussian."""
    if r == 0:
        return np.zeros((0, 0), dtype=complex)
    b = 0.5 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    return b @ b.conj().T + np.eye(r, dtype=complex)


def random_complex(rng, n_deg=3, max_piece=2, acyclic=False, identity_metrics=False):
    """Random complex with exact d^2 = 0 via a split model conjugated by
    random invertibles. Dims per degree: boundaries + harmonics + coboundaries.
    Shared by the property criterion and the test suite.
    """
    from .graded import GradedComplex

    h = [0 if acyclic else int(rng.integers(0, max_piece + 1)) for _ in range(n_deg)]
    c = [int(rng.integers(0, max_piece + 1)) for _ in range(n_deg - 1)]  # c[k] maps iso to b[k+1]
    if sum(h) + sum(c) == 0:
        c[0] = 1
    b = [0] + list(c)
    ranks = [b[k] + h[k] + (c[k] if k < n_deg - 1 else 0) for k in range(n_deg)]
    diffs = []
    for k in range(n_deg - 1):
        d = np.zeros((ranks[k + 1], ranks[k]), dtype=complex)
        for i in range(c[k]):
            d[i, b[k] + h[k] + i] = 0.5 + 2.0 * rng.random()
        diffs.append(d)
    # conjugate by random invertibles per degree
    basis = []
    for r in ranks:
        t = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)) + 3.0 * np.eye(r)
        basis.append(t)
    diffs = [
        (basis[k + 1] @ d @ np.linalg.inv(basis[k])) if d.size else d
        for k, d in enumerate(diffs)
    ]
    if identity_metrics:
        metrics = [np.eye(r, dtype=complex) for r in ranks]
    else:
        metrics = [random_metric(rng, r) for r in ranks]
    return GradedComplex(tuple(ranks), diffs, metrics)


CRITERIA = [
    criterion_1_birth_death_census,
    criterion_2_separation_stability,
    criterion_3_anomaly_formula,
    criterion_4_cheeger_muller,
    criterion_5_spectral_gluing,
    criterion_6_small_eigenvalue_decay,
    criterion_7_agmon_decay,
    criterion_8_cubic_scaling,
    criterion_9_mayer_vietoris_ranks,
    criterion_10_property_suites,
]


def run_all():
    """Run every criterion in order. The PASS/FAIL summary lines go to
    stdout and are deterministic (re-runs are byte-identical); wall times
    go to stderr."""
    results = []
    for fn in CRITERIA:
        res = fn()
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] {res['name']}: {res['detail']}")
        print(f"    {res['name']}: {res['seconds']:.1f}s (budget {res['budget']:.0f}s)",
              file=sys.stderr)
        results.append(res)
    return results
