import dataclasses
import warnings
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from torsionlab import birthdeath as B
from torsionlab import witten1d as W

PARAMS = dict(n=6, i=3, r1=0.04, r2=0.06, delta=0.0015)
DELTA = PARAMS["delta"]


@pytest.fixture(scope="module")
def setup():
    p = B.ModelParams(y=0.0, A=1000.0, **PARAMS)
    prof = B.build_profiles(p)
    census = B.find_critical_points(p, prof)
    return p, prof, census


def test_params_validation():
    with pytest.raises(ValueError, match="1/14"):
        B.ModelParams(n=6, i=3, r1=0.05, r2=0.08, delta=0.001)
    with pytest.raises(ValueError, match="delta"):
        B.ModelParams(n=6, i=3, r1=0.04, r2=0.06, delta=0.002)
    with pytest.raises(ValueError, match="i must"):
        B.ModelParams(n=6, i=6, r1=0.04, r2=0.06, delta=0.001)
    with pytest.raises(ValueError, match=r"\|y\|"):
        B.ModelParams(n=6, i=3, r1=0.04, r2=0.06, delta=0.0015, y=1e-5)


def test_profile_pinned_values(setup):
    p, prof, _ = setup
    mid = 0.5 * (p.r1 + p.r2)
    assert np.isclose(prof.eta.value(mid), p.delta * mid, rtol=0, atol=1e-15)
    assert np.isclose(prof.q_value(0.5 * p.r1), -p.A * (p.r2 - p.r1) ** 2 / 2)
    assert np.isclose(prof.q_value(mid), -p.A * (p.r2 - p.r1) ** 2 / 4)
    ss = np.linspace(0, 3 * p.r2, 500)
    assert np.abs(prof.q_value(ss, A=0.0)).max() == 0.0
    assert np.isclose(prof.eta_tilde.value(0.7 * p.r1), 1.0)


def test_profile_verifier_names_clause(setup):
    p, prof, _ = setup
    broken = B.ShapingProfiles(
        eta=B.PiecewisePoly(prof.eta.knots, [3.0 * c for c in prof.eta.coeffs]),
        eta_tilde=prof.eta_tilde,
        q_shape=prof.q_shape,
        params=p,
        plateau=prof.plateau,
        C1=prof.C1,
        C2=prof.C2,
    )
    with pytest.raises(B.ProfileConstructionError) as exc:
        B._verify_profiles(broken, n_samples=2000)
    assert "eta" in str(exc.value)


def _exact_derivative(pp, s, order):
    """The order-th derivative of pp at s in exact rational arithmetic, from
    the monomial coefficients, and the Horner error scale sum |a_j| |x|^j."""
    s = Fraction(*s.as_integer_ratio())
    i = max([k for k, kn in enumerate(pp.knots) if kn <= s], default=0)
    x = s - Fraction(pp.knots[i])
    c = pp.coeffs[i]
    terms = [
        Fraction(float(c[p])) * math.perm(p, order) * x ** (p - order)
        for p in range(order, len(c))
    ]
    return sum(terms, Fraction(0)), sum((abs(t) for t in terms), Fraction(0))


def _loop_horner(pp, s, order):
    """Per-point Horner straight from the monomial coefficients, in the
    dtype of s: the same arithmetic the coefficient tables must reproduce."""
    i = int(np.searchsorted(pp.knots, float(s), side="right")) - 1
    i = min(max(i, 0), len(pp.coeffs) - 1)
    x = s - s.dtype.type(pp.knots[i])
    acc = s.dtype.type(0)
    for p in range(len(pp.coeffs[i]) - 1, order - 1, -1):
        acc = acc * x + s.dtype.type(math.perm(p, order) * pp.coeffs[i][p])
    return acc


def _oracle_samples(pp):
    ks = list(pp.knots)
    pts = [-1.0, -1e-3, 1.5 * ks[-1], 10.0]
    for a, b in zip(ks, ks[1:] + [2.0 * ks[-1]]):
        pts += [a, np.nextafter(b, -np.inf)] + [a + f * (b - a) for f in (0.1, 0.37, 0.5, 0.93)]
    return np.array(pts)


def test_evaluator_matches_exact_oracle(setup):
    # every piece of every profile, at and inside the knots, below 0 and
    # beyond the last knot; longdouble samples carry bits below float64
    _, prof, _ = setup
    shapes = [prof.eta, prof.eta_tilde, prof.q_shape, W.build_p_profile(64.0, 0.12).shape]
    u64 = np.finfo(float).eps / 2
    for pp in shapes:
        s64 = _oracle_samples(pp)
        extra = np.where(np.isin(s64, pp.knots), 0.0, s64 * 2.0**-58)
        sld = s64.astype(np.longdouble) + extra.astype(np.longdouble)
        for order, fn in enumerate((pp.value, pp.deriv, pp.deriv2)):
            for s_arr in (s64, sld):
                got = fn(s_arr)
                assert got.dtype == s_arr.dtype
                u = np.finfo(s_arr.dtype).eps / 2
                for s, g in zip(s_arr, got):
                    exact, scale = _exact_derivative(pp, s, order)
                    # Horner and the knot offset round in the input's dtype;
                    # a derivative table entry fac * c[p] is rounded once in float64
                    tol = 16 * u * scale + (u64 * scale if order else 0)
                    assert abs(Fraction(*g.as_integer_ratio()) - exact) <= tol, (order, s)
                    assert fn(s) == g == _loop_horner(pp, s, order)
            for s in s64:
                assert pp.eval_scalar(s, order) == fn(s)


def test_profiles_are_immutable(setup):
    _, prof, _ = setup
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.C2 = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.eta = prof.eta_tilde
    for pp in (prof.eta, prof.eta_tilde, prof.q_shape):
        for arr in pp.tables + pp.coeffs:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def test_eval_at_origin(setup):
    p, prof, _ = setup
    val, grad, hess = B.eval_f(p, prof, np.zeros(p.n + 1))
    # the radial deformation pins f(0) at its constant inner value
    assert np.isclose(val, -p.A * (p.r2 - p.r1) ** 2 / 2)
    assert np.abs(grad).max() == 0.0
    spec = np.sort(np.linalg.eigvalsh(hess))
    assert abs(spec[p.i]) < 1e-12  # cubic direction
    assert (spec < 0).sum() == p.i


def test_eval_f_is_a_row_of_the_batched_kernel(setup):
    # one point through eval_f and the same point inside a batch, origin
    # included, give the same bits in both dtypes
    p, prof, _ = setup
    rng = np.random.default_rng(5)
    us = np.vstack([np.zeros(p.n + 1), rng.normal(size=(5, p.n + 1)) * 0.05])
    for dt in (np.float64, np.longdouble):
        batch = B._model(p, prof, us.astype(dt))
        for k, u in enumerate(us.astype(dt)):
            for one, many in zip(B.eval_f(p, prof, u), batch):
                assert one.dtype == dt
                assert np.array_equal(one, many[k])


def test_cubic_pair_critical_point():
    y = 0.5 * DELTA**2
    p = B.ModelParams(y=y, A=0.0, **PARAMS)
    prof = B.build_profiles(p, verify=False)
    u = np.zeros(p.n + 1)
    u[0] = np.sqrt(y / 3.0)
    _, grad = B.eval_f(p, prof, u, with_hessian=False)
    assert np.abs(grad).max() < 1e-15


def test_gradient_and_hessian_match_finite_differences(setup):
    p, prof, _ = setup
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        u = rng.normal(size=p.n + 1) * 0.08
        val, grad, hess = B.eval_f(p, prof, u)
        fd_grad = np.zeros_like(grad)
        for k in range(p.n + 1):
            e = np.zeros(p.n + 1)
            e[k] = h
            vp, _ = B.eval_f(p, prof, u + e, with_hessian=False)
            vm, _ = B.eval_f(p, prof, u - e, with_hessian=False)
            fd_grad[k] = (vp - vm) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd_grad).max() <= 1e-6 * scale
        fd_hess = np.zeros_like(hess)
        for k in range(p.n + 1):
            e = np.zeros(p.n + 1)
            e[k] = h
            _, gp = B.eval_f(p, prof, u + e, with_hessian=False)
            _, gm = B.eval_f(p, prof, u - e, with_hessian=False)
            fd_hess[:, k] = (gp - gm) / (2 * h)
        hscale = max(1.0, np.abs(hess).max())
        assert np.abs(hess - fd_hess).max() <= 1e-4 * hscale


def test_census_seven_points_and_indices(setup):
    p, prof, census = setup
    assert len(census) == 7
    bd_pts = [c for c in census if c.birth_death]
    assert len(bd_pts) == 1 and bd_pts[0].morse_index == p.i
    assert np.linalg.norm(bd_pts[0].location) < 1e-6
    inner = [c for c in census if 0.5 * p.r1 < np.linalg.norm(c.location) < 0.5 * (p.r1 + p.r2)]
    outer = B.outer_triple(census, p)
    assert sorted(c.morse_index for c in inner) == sorted([0, p.i, p.i - 1])
    assert sorted(c.morse_index for c in outer) == sorted([1, p.i + 1, p.i])


def test_census_counts_other_y():
    for y, want in ((0.5 * DELTA**2, 8), (-0.5 * DELTA**2, 6)):
        p = B.ModelParams(y=y, A=1000.0, **PARAMS)
        prof = B.build_profiles(p, verify=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            census = B.find_critical_points(p, prof)
        assert len(census) == want


def test_closed_forms_match_newton(setup):
    p, prof, census = setup
    for cf in B.closed_form_candidates(p):
        best = min(census, key=lambda c: np.linalg.norm(c.location - cf.location))
        rel_loc = np.linalg.norm(best.location - cf.location) / np.linalg.norm(cf.location)
        assert rel_loc <= 1e-8
        rel_spec = np.abs(
            np.sort(best.hessian_spectrum) - np.sort(cf.hessian_spectrum)
        ).max() / np.abs(cf.hessian_spectrum).max()
        assert rel_spec <= 1e-8
        assert best.morse_index == cf.morse_index
    v1, v2 = B.closed_form_candidates(p)
    assert v1.morse_index == 1
    assert v2.morse_index == p.i


def test_residuals_in_extended_precision(setup):
    p, prof, census = setup
    for c in census:
        _, g = B.eval_f(p, prof, c.location.astype(np.longdouble), with_hessian=False)
        assert float(np.linalg.norm(g.astype(float))) <= 1e-10 * (1 + p.A)


def test_classification_stable_under_threshold_halving(setup):
    p, prof, census = setup
    for c in census:
        mags = np.sort(np.abs(c.hessian_spectrum))
        ref = max(1.0, mags[-2])
        bd_half = mags[0] < 0.5 * B.DEGENERACY_RTOL * ref
        assert bd_half == c.birth_death


def test_separation_stability(setup):
    p, prof, census = setup
    p2 = B.ModelParams(y=0.0, A=2.0 * p.A, **PARAMS)
    prof2 = B.build_profiles(p2, verify=False)
    census2 = B.find_critical_points(p2, prof2)
    rep = B.separation_report(census, census2, p)
    for key in ("c", "c_prime", "C"):
        lo, hi, ok = rep[key]
        assert lo > 0 and ok, (key, rep[key])


def test_radial_derivative(setup):
    p, prof, census = setup
    m1 = B.radial_derivative_check(p, prof, n_samples=20000)
    assert m1 is not None and m1 > 0
    p0 = B.ModelParams(y=0.0, A=0.0, **PARAMS)
    assert B.radial_derivative_check(p0, B.build_profiles(p0, verify=False)) is None
    p2 = B.ModelParams(y=0.0, A=2000.0, **PARAMS)
    prof2 = B.build_profiles(p2, verify=False)
    m2 = B.radial_derivative_check(p2, prof2, n_samples=20000)
    assert abs(m2 - m1) <= 0.10 * max(m1, m2)


def test_flow_containment_v2_plus(setup):
    p, prof, census = setup
    v2 = [c for c in B.outer_triple(census, p) if c.morse_index == p.i][0]
    out = B.flow_containment_probe(p, prof, v2, c=10 * p.r2**2, n_dirs=24)
    assert out["crossings"], "expected crossings beyond the deformation band"
    assert out["u0_ok"] and out["uplus_ok"]


def test_forward_flow_trapped(setup):
    p, prof, _ = setup
    rep = B.forward_trap_check(p, prof, n_traj=6, t_end=20.0)
    assert rep["contained"]


def test_trap_flow_matches_explicit_reference(setup):
    # the stiff LSODA flow against an explicit RK45 run of -grad f at the
    # same tolerances, over a horizon short enough for the explicit method
    p, prof, _ = setup
    r_in = p.A * p.r2 / (p.A + B.C0_ANNULUS)
    rng = np.random.default_rng(3)
    for _ in range(2):
        d = rng.normal(size=p.n + 1)
        u0 = 0.9 * r_in * d / np.linalg.norm(d)
        stiff = B._trap_flow(p, prof, u0, 0.2)
        ref = scipy.integrate.solve_ivp(
            lambda t, u: -B.eval_f(p, prof, u, with_hessian=False)[1], (0.0, 0.2), u0,
            method="RK45", rtol=1e-8, atol=1e-12, max_step=1.0,
        )
        assert stiff.success and ref.success
        assert np.linalg.norm(stiff.y[:, -1] - ref.y[:, -1]) <= 1e-6 * r_in
        assert stiff.nfev < ref.nfev


def test_census_grid():
    # reduced grid of valid radii/delta combinations, all three y regimes
    grid = [
        (0.03, 0.05, 0.001),
        (0.04, 0.06, 0.0015),
        (0.05, 0.07, 0.002),
    ]
    for r1, r2, d in grid:
        for y, want in ((0.0, 7), (0.5 * d * d, 8), (-0.5 * d * d, 6)):
            p = B.ModelParams(n=6, i=3, r1=r1, r2=r2, delta=d, y=y, A=1000.0)
            prof = B.build_profiles(p, verify=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                census = B.find_critical_points(p, prof, n_random=200)
            assert len(census) == want, (r1, r2, d, y, len(census))


def test_census_counts_birth_death_point_once():
    # amplitudes at which Newton seeds on the degenerate u0 direction stop
    # at |u0| of 1e-6 to 2e-5: residual-converged, but outside the dedup
    # ball of the birth-death point at the origin
    amplitudes = [1074.0091221758505, 1731.4881308841054, 1173.0566375704902,
                  1246.282624578187, 1139.951369116845, 1263.8224285040108,
                  1670.677274640198, 1954.193300339821]
    for A in amplitudes:
        p = B.ModelParams(y=0.0, A=A, **PARAMS)
        prof = B.build_profiles(p, verify=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            census = B.find_critical_points(p, prof, n_random=200)
        bd_pts = [c for c in census if c.birth_death]
        assert len(census) == 7, (A, len(census))
        assert len(bd_pts) == 1 and bd_pts[0].morse_index == p.i, A


def test_census_records_roundtrip(setup):
    p, prof, census = setup
    recs = B.census_records(census)
    assert len(recs) == 7
    assert all(set(r) >= {"location", "value", "index", "hessian_spectrum"} for r in recs)


def test_smallest_stable_amplitude_smoke():
    p = B.ModelParams(y=0.0, A=0.0, **PARAMS)
    thr = B.smallest_stable_amplitude(p, lo=150.0, hi=1000.0, steps=1, n_random=120)
    assert 150.0 <= thr <= 1000.0
