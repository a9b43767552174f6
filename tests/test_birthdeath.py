import dataclasses
import gc
import tracemalloc
import warnings
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from torsionlab import birthdeath as B
from torsionlab import witten1d as W
from util import (_model_oracle, hermite3_integrated_oracle, hermite5_oracle,
                  trap_flow_lsoda_oracle)

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


@pytest.mark.parametrize("n_cond", [3, 2])
def test_hermite_meets_its_end_conditions(n_cond):
    # derivative k at either end, relative to the magnitude of its terms
    # c_p p! / (p - k)! h^(p - k), over interval lengths 1e-6 to 1
    rng = np.random.default_rng(32)
    for _ in range(200):
        x0 = rng.uniform(-1.0, 1.0)
        x1 = x0 + 10.0 ** rng.uniform(-6.0, 0.0)
        left, right = rng.normal(size=n_cond), rng.normal(size=n_cond)
        c = B._hermite(x0, x1, left, right)
        assert len(c) == 2 * n_cond
        for k in range(n_cond):
            for at, want in ((0.0, left[k]), (x1 - x0, right[k])):
                terms = [c[p] * math.perm(p, k) * at ** (p - k) for p in range(k, len(c))]
                assert abs(sum(terms) - want) <= 1e-9 * sum(abs(t) for t in terms)


def test_hermite_matches_the_two_builders_it_replaced():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        x0 = rng.uniform(-1.0, 1.0)
        x1 = x0 + 10.0 ** rng.uniform(-6.0, 0.0)
        v = rng.normal(size=7) * 10.0 ** rng.uniform(-3.0, 3.0, size=7)
        assert np.array_equal(B._hermite(x0, x1, tuple(v[:3]), tuple(v[3:6])),
                              hermite5_oracle(x0, x1, *v[:6]))
        assert np.array_equal(B._hermite_integral(x0, x1, v[6], tuple(v[:2]), tuple(v[2:4])),
                              hermite3_integrated_oracle(x0, x1, v[6], *v[:4]))
        # the plateau value of the q profile: one Horner sweep, as np.polyval
        c = rng.normal(size=5)
        assert B._horner_rows(c[None], 0, x1 - x0) == np.polyval(c[::-1], x1 - x0)


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
        at = pp.point_evaluator((0, 1, 2))
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
                assert at(float(s))[order] == fn(s)


def test_profiles_are_immutable(setup):
    _, prof, _ = setup
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.C2 = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.eta = prof.eta_tilde
    breaks, knots, tables = prof._merged
    for arr in [breaks, knots, *tables] + [a for pp in (prof.eta, prof.eta_tilde, prof.q_shape)
                                           for a in pp.tables + pp.coeffs]:
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


def test_trap_flow_matches_explicit_reference(setup, monkeypatch):
    # the stiff BDF flow against an explicit RK45 run of -grad f at the
    # same tolerances, over a horizon short enough for the explicit method;
    # the flow's right-hand-side calls are counted through its point kernel
    p, prof, _ = setup
    r_in = p.A * p.r2 / (p.A + B.C0_ANNULUS)
    calls = []
    kernel = B._point_kernel

    def counting(p_, prof_):
        value_grad, hessian = kernel(p_, prof_)
        return (lambda u: calls.append(1) or value_grad(u)), hessian

    monkeypatch.setattr(B, "_point_kernel", counting)
    rng = np.random.default_rng(3)
    for _ in range(2):
        d = rng.normal(size=p.n + 1)
        u0 = 0.9 * r_in * d / np.linalg.norm(d)
        calls.clear()
        stiff = B._trap_flow(p, prof, u0, 0.2)
        ref = scipy.integrate.solve_ivp(
            lambda t, u: -B.eval_f(p, prof, u, with_hessian=False)[1], (0.0, 0.2), u0,
            method="RK45", rtol=1e-8, atol=1e-12, max_step=1.0,
        )
        assert stiff.success and ref.success
        assert stiff.t[-1] == 0.2
        assert np.linalg.norm(stiff.y[:, -1] - ref.y[:, -1]) <= 1e-6 * r_in
        assert 0 < len(calls) < ref.nfev


@pytest.mark.parametrize("A", [400.0, 1000.0, 1400.0, 1500.0, 2000.0])
def test_trap_flow_max_radius_matches_tight_reference(monkeypatch, A):
    # trajectory 2 of the seeded starts grows past its start radius, so its
    # max_radius is set by the integration, not by the start point: the BDF
    # route's lies within 1e-11 r_in of a Radau run at rtol 1e-12 (read at
    # the route's steps from the dense output), and no farther from it than
    # the LSODA route it replaced
    p = B.ModelParams(y=0.0, A=A, **PARAMS)
    prof = B.build_profiles(p, verify=False)
    r_in = p.A * p.r2 / (p.A + B.C0_ANNULUS)
    t_end = 5.0
    _, sols = _flow_runs(monkeypatch, B._point_kernel,
                         lambda: B.forward_trap_check(p, prof, n_traj=3, t_end=t_end))
    new = sols[2]
    u0 = new.y[:, 0]
    value_grad, hessian = B._point_kernel(p, prof)
    ref = scipy.integrate.solve_ivp(
        lambda t, u: [-g for g in value_grad(u)[1]], (0.0, t_end), u0, method="Radau",
        jac=lambda t, u: -hessian(u), rtol=1e-12, atol=1e-14, dense_output=True,
    )
    old = trap_flow_lsoda_oracle(p, prof, u0, t_end)
    assert ref.success and new.success and old.success
    errs = []
    for sol in (new, old):
        radii = np.linalg.norm(sol.y, axis=0)
        assert radii.max() > radii[0]
        errs.append(abs(radii.max() - np.linalg.norm(ref.sol(sol.t), axis=0).max()))
    assert errs[0] <= 1e-11 * r_in
    assert errs[0] <= errs[1]


def test_trap_flow_failure_is_a_numerical_failure(setup, monkeypatch):
    # a gradient that turns NaN makes VODE fail its steps: the failure
    # reaches forward_trap_check as success=False with VODE's message, and
    # VODE's warning does not reach the caller
    p, prof, _ = setup
    u0 = np.full(p.n + 1, 0.01)
    kernel = B._point_kernel

    def turning_nan(p_, prof_):
        value_grad, hessian = kernel(p_, prof_)
        calls = []

        def nan_after_50(u):
            calls.append(1)
            val, grad = value_grad(u)
            return (val, [math.nan] * len(grad)) if len(calls) > 50 else (val, grad)

        return nan_after_50, hessian

    monkeypatch.setattr(B, "_point_kernel", turning_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = B._trap_flow(p, prof, u0, 5.0)
        assert not sol.success and sol.message.startswith("vode: ")
        assert 0.0 < sol.t[-1] < 5.0 and sol.y.shape == (p.n + 1, sol.t.size)
        with pytest.raises(RuntimeError, match=r"trap flow failed at A=1000\.0, .*: vode: "):
            B.forward_trap_check(p, prof, n_traj=2, t_end=5.0)


def test_trap_check_retains_no_solver_memory(setup):
    # each solve frees its solver state: 30 checks keep under 8 KiB alive
    # (the LSODA route kept its work arrays, about 88 KiB over these calls)
    p, prof, _ = setup
    B.forward_trap_check(p, prof, n_traj=2, t_end=0.5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(30):
            B.forward_trap_check(p, prof, n_traj=2, t_end=0.5)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert retained < 8 * 1024


@pytest.mark.parametrize("call", [
    lambda p, prof, start: B.forward_trap_check(p, prof, n_traj=0),
    lambda p, prof, start: B.forward_trap_check(p, prof, t_end=0.0),
    lambda p, prof, start: B.forward_trap_check(p, prof, t_end=-1.0),
    lambda p, prof, start: B.flow_containment_probe(p, prof, start, c=10 * p.r2**2, n_dirs=0),
], ids=["n_traj=0", "t_end=0", "t_end=-1", "n_dirs=0"])
def test_flow_checks_refuse_degenerate_requests(setup, monkeypatch, call):
    # each of these used to return a vacuous or wrong verdict; both flows
    # build their point kernel before integrating, so none is built
    p, prof, _ = setup
    start = [c for c in B.closed_form_candidates(p) if c.morse_index == p.i][0]

    def no_flow(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(B, "_point_kernel", no_flow)
    with pytest.raises(ValueError, match="must be"):
        call(p, prof, start)


def _parent_point_kernel(p, prof):
    """The flows' kernel before the plain-float one, kept as the oracle:
    (value, gradient) by numpy arithmetic on one point with per-point Horner
    profile values, and the Hessian of `eval_f`, a batch of one through
    `_model`."""
    n, i, y, A = p.n, p.i, p.y, p.A
    sgn = np.ones(n + 1)
    sgn[1 : i + 1] = -1.0
    sgn[0] = 0.0

    def value_grad(u):
        u = np.asarray(u, dtype=float)
        val = u[0] ** 3 - y * u[0] + float(np.sum(sgn * u * u))
        grad = 2.0 * sgn * u
        grad[0] = 3.0 * u[0] ** 2 - y
        rho = np.sqrt(np.sum(u * u))
        if rho > 0.0:
            uhat = u / rho
            eta_v, eta_d = (_loop_horner(prof.eta, rho, k) for k in (0, 1))
            et_v, et_d = (_loop_horner(prof.eta_tilde, rho, k) for k in (0, 1))
            q_v, q_d = (A * _loop_horner(prof.q_shape, rho, k) for k in (0, 1))
            val += -eta_v * u[1] + y * et_v * u[0] + q_v
            grad += (-eta_d * u[1] + y * et_d * u[0] + q_d) * uhat
            grad[1] -= eta_v
            grad[0] += y * et_v
        else:
            val += A * _loop_horner(prof.q_shape, rho, 0)
        return val, grad

    return value_grad, lambda u: B.eval_f(p, prof, u)[2]


def _kernel_points(p, prof, rng):
    # random points across the band and beyond, the origin, and points at
    # every knot radius: on three axes (|u| is then the knot exactly) and in
    # random directions
    dim = p.n + 1
    dirs = rng.normal(size=(200, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = [dirs * rng.uniform(0.0, 3.0 * p.r2, size=(200, 1)), np.zeros((1, dim))]
    for knot in sorted(set(prof.eta.knots + prof.eta_tilde.knots + prof.q_shape.knots)):
        pts.append(knot * np.eye(dim)[[0, 1, dim - 1]])
        pts.append(knot * dirs[:3])
    return np.vstack(pts)


@pytest.mark.parametrize("y", [0.0, 0.5 * DELTA**2, -0.5 * DELTA**2])
def test_point_kernel_matches_batched_kernel(y):
    # value and gradient: bit for bit the parent's flow kernel, and within
    # rounding of the _model rows, whose radial terms are grouped otherwise
    # and whose u0**3 is numpy's array power; Hessian: the _model rows bit
    # for bit (n = 6, where numpy sums in index order too)
    p = B.ModelParams(y=y, A=1000.0, **PARAMS)
    prof = B.build_profiles(p, verify=False)
    value_grad, hessian = B._point_kernel(p, prof)
    oracle_vg, _ = _parent_point_kernel(p, prof)
    us = _kernel_points(p, prof, np.random.default_rng(17))
    vals, grads, hesss = B._model(p, prof, us)
    eps = np.finfo(float).eps
    for u, val, grad, hess in zip(us, vals, grads, hesss):
        v, g = value_grad(u)
        ov, og = oracle_vg(u)
        assert v == ov and np.array_equal(g, og)
        assert abs(v - val) <= 2 * eps * max(1.0, abs(val))
        assert np.abs(np.array(g) - grad).max() <= 2 * eps * max(1.0, np.abs(grad).max())
        h = hessian(u)
        assert h.shape == hess.shape and np.array_equal(h, hess)


def _signed_zero_points(p, rng):
    # in-plane points whose other components, and some in-plane ones, are
    # exact +0.0 or -0.0, so that signed zeros reach the results
    pts = np.zeros((24, p.n + 1))
    pts[:, :2] = rng.normal(size=(24, 2)) * p.r2
    pts[::2, 2:] = -0.0
    pts[::3, 0] = -0.0
    pts[1::3, 1] = 0.0
    pts[2::6, 1] = -0.0
    return np.vstack([pts, -np.zeros((1, p.n + 1))])


@pytest.mark.parametrize("A", [1000.0, 1400.0, 2000.0])
@pytest.mark.parametrize("y", [0.0, 0.5 * DELTA**2, -0.5 * DELTA**2])
def test_model_matches_profile_by_profile_oracle(y, A):
    # the merged-knot sweep and the upper-triangle Hessian give the bits of
    # one derivs call per profile and full-matrix Hessian arithmetic: float64
    # compared as bytes (the sign of zero included), longdouble by value and
    # sign bit
    p = B.ModelParams(y=y, A=A, **PARAMS)
    prof = B.build_profiles(p, verify=False)
    rng = np.random.default_rng(23)
    us = np.vstack([_kernel_points(p, prof, rng), _signed_zero_points(p, rng)])
    # longdouble radii just off every knot, on both sides: pieces are
    # located by the float64 rounding of |u|
    uld = np.vstack([us.astype(np.longdouble) * (1 + np.longdouble(e))
                     for e in (2.0**-60, -2.0**-60)])
    for with_hess in (True, False):
        for got, want in zip(B._model(p, prof, us, with_hess),
                             _model_oracle(p, prof, us, with_hess), strict=True):
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for got, want in zip(B._model(p, prof, uld, with_hess),
                             _model_oracle(p, prof, uld, with_hess), strict=True):
            if want is None:
                continue
            assert got.dtype == want.dtype == np.longdouble
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want))


@pytest.mark.parametrize("A", [1000.0, 1400.0, 2000.0])
@pytest.mark.parametrize("y", [0.0, 0.5 * DELTA**2, -0.5 * DELTA**2])
def test_census_matches_oracle_route(monkeypatch, y, A):
    p = B.ModelParams(y=y, A=A, **PARAMS)
    prof = B.build_profiles(p, verify=False)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return B.find_critical_points(p, prof, n_random=200), B.radial_derivative_check(p, prof)

    new, new_radial = run()
    with monkeypatch.context() as m:
        m.setattr(B, "_model", _model_oracle)
        old, old_radial = run()
    assert new_radial == old_radial
    assert len(new) == len(old) > 0
    for a, b in zip(new, old):
        for field in ("location", "hessian_spectrum"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.value, a.newton_residual, a.morse_index, a.birth_death) == \
            (b.value, b.newton_residual, b.morse_index, b.birth_death)


def test_damped_steps_isolate_a_singular_row():
    # an exactly singular H + lam I takes lstsq for its own row only; every
    # other row keeps the bits of the batched solve
    rng = np.random.default_rng(4)
    a = rng.normal(size=(300, 7, 7))
    hesss, grads, lam = a + a.transpose(0, 2, 1), rng.normal(size=(300, 7)), 1e-7
    batched = B._damped_steps(hesss, grads, lam)
    hesss[123] = -lam * np.eye(7)
    steps = B._damped_steps(hesss, grads, lam)
    others = np.arange(300) != 123
    assert steps[others].tobytes() == batched[others].tobytes()
    lstsq = np.linalg.lstsq(hesss[123] + lam * np.eye(7), grads[123], rcond=None)[0]
    assert np.array_equal(steps[123], lstsq)


def _flow_runs(monkeypatch, kernel, run):
    """run() under the given point kernel, with every trap-flow solution."""
    sols = []
    trap_flow = B._trap_flow

    def recording(*args):
        sols.append(trap_flow(*args))
        return sols[-1]

    with monkeypatch.context() as m:
        m.setattr(B, "_point_kernel", kernel)
        m.setattr(B, "_trap_flow", recording)
        return run(), sols


@pytest.mark.parametrize("A", [400.0, 1000.0, 1400.0, 1500.0, 2000.0])
def test_trap_check_matches_parent_route(monkeypatch, A):
    # the trap flows of the plain-float kernel retrace the parent's
    # (value, gradient) right-hand side and eval_f Jacobian bit for bit;
    # trajectory 2 of the seeded starts grows away from its start point
    p = B.ModelParams(y=0.0, A=A, **PARAMS)
    prof = B.build_profiles(p, verify=False)

    def run():
        return B.forward_trap_check(p, prof, n_traj=3, t_end=5.0)

    new, new_sols = _flow_runs(monkeypatch, B._point_kernel, run)
    old, old_sols = _flow_runs(monkeypatch, _parent_point_kernel, run)
    assert new["max_radius"] == old["max_radius"]
    for a, b in zip(new_sols, old_sols, strict=True):
        assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)
    radii = np.linalg.norm(new_sols[2].y, axis=0)
    assert radii.argmax() > 0


@pytest.mark.parametrize("A", [1000.0, 1400.0, 2000.0])
def test_flow_probe_matches_parent_route(monkeypatch, A):
    p = B.ModelParams(y=0.0, A=A, **PARAMS)
    prof = B.build_profiles(p, verify=False)
    start = [c for c in B.closed_form_candidates(p) if c.morse_index == p.i][0]

    def run():
        return B.flow_containment_probe(p, prof, start, c=10 * p.r2**2, n_dirs=8)

    new, _ = _flow_runs(monkeypatch, B._point_kernel, run)
    old, _ = _flow_runs(monkeypatch, _parent_point_kernel, run)
    assert len(new["crossings"]) == len(old["crossings"]) >= 1
    for a, b in zip(new["crossings"], old["crossings"]):
        assert np.array_equal(a, b)
    assert (new["stalled"], new["divergent"]) == (old["stalled"], old["divergent"])


def test_trap_check_makes_no_batched_kernel_calls(setup, monkeypatch):
    p, prof, _ = setup
    calls = []
    model = B._model
    monkeypatch.setattr(B, "_model", lambda *a, **k: calls.append(1) or model(*a, **k))
    rep = B.forward_trap_check(p, prof, n_traj=2, t_end=1.0)
    assert rep["contained"] and not calls


def test_trap_check_raises_on_failed_flow(setup, monkeypatch):
    # a failed solve returns a truncated trajectory, which must not be
    # judged contained
    p, prof, _ = setup

    def failing(p_, prof_, u0, t_end):
        return SimpleNamespace(success=False, t=np.array([0.0, 0.5]), y=np.stack([u0, u0], 1),
                               message="excess work done on this call")

    monkeypatch.setattr(B, "_trap_flow", failing)
    with pytest.raises(RuntimeError, match=r"A=1000\.0, trajectory 0 of 4"):
        B.forward_trap_check(p, prof, n_traj=4, t_end=5.0)


def test_flow_probe_without_directions_has_every_key(setup):
    # the index-0 point has no unstable directions: the early return
    # carries the same keys as a full probe
    p, prof, census = setup
    minimum = [c for c in census if c.morse_index == 0][0]
    out = B.flow_containment_probe(p, prof, minimum, c=10 * p.r2**2, n_dirs=4)
    assert set(out) == {"crossings", "divergent", "stalled", "u0_ok", "uplus_ok", "box"}
    assert out["stalled"] == 0 and out["crossings"] == [] and out["box"] is None


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
