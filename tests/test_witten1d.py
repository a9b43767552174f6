import numpy as np
import pytest

from torsionlab import witten1d as W


def cos2(a):
    return (
        lambda s: a * np.cos(2 * s),
        lambda s: -2 * a * np.sin(2 * s),
        lambda s: -4 * a * np.cos(2 * s),
    )


ZERO = (lambda s: 0.0 * s, lambda s: 0.0 * s, lambda s: 0.0 * s)


def test_p_profile_conditions():
    prof = W.build_p_profile(8.0, 0.1)
    r = 0.1
    assert np.isclose(prof.value(1.5 * r), 8.0 * r * r / 2)
    ss = np.linspace(-2 * r, 2 * r, 1001)
    assert np.abs(prof.value(ss) + prof.value(-ss)).max() < 1e-12
    # zero-amplitude profile vanishes
    p0 = W.build_p_profile(0.0, 0.1)
    assert np.abs(p0.value(ss)).max() == 0.0
    # derivative window on [0, 0.02 r]
    band = np.linspace(0, 0.02 * r, 500)
    dv = prof.deriv(band)
    assert (dv >= prof.C1 * 8.0 - 1e-9).all() and (dv <= 2 * prof.C1 * 8.0 + 1e-9).all()


def test_problem_validation():
    s = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    with pytest.raises(ValueError, match="circle"):
        W.WittenProblem1D("circle", s, 0 * s, 0 * s, 1.0, bc="absolute")
    with pytest.raises(ValueError, match="grid too coarse"):
        W.WittenProblem1D("circle", s, 10.0 + 0 * s, 0 * s, 50.0)


def test_circle_free_laplacian_closed_form():
    prob = W.circle_problem(ZERO, T=7.0, n_nodes=256)
    res = W.spectrum(prob, 4)
    h = 2 * np.pi / 256
    exact = 4 * np.sin(np.pi / 256) ** 2 / h**2
    assert abs(res.eigenvalues[0]) < 1e-10
    assert abs(res.eigenvalues[1] - exact) <= 1e-12 * exact
    assert res.kernel_dim == 1


def test_assemble_symmetric():
    prob = W.circle_problem(cos2(0.1), T=10.0)
    m = W.assemble(prob)
    assert abs(m - m.T).max() == 0.0
    s = np.linspace(-3, 3, 800)
    prob2 = W.WittenProblem1D("interval", s, s, np.ones_like(s), 3.0, bc="absolute")
    m2 = W.assemble(prob2)
    assert abs(m2 - m2.T).max() < 1e-12


def test_harmonic_oscillator_interval():
    T = 5.0
    s = np.linspace(-6, 6, 4000)
    prob = W.WittenProblem1D("interval", s, s, np.ones_like(s), T, bc="absolute")
    res = W.spectrum(prob, 3)
    assert abs(res.eigenvalues[0]) < 1e-3
    assert abs(res.eigenvalues[1] - 2 * T) <= 0.01 * 2 * T
    assert res.kernel_dim == 1


def test_kernel_dims_circle_morse():
    f1 = (lambda s: 0.3 * np.cos(s), lambda s: -0.3 * np.sin(s),
          lambda s: -0.3 * np.cos(s))
    prob = W.circle_problem(f1, T=10.0)
    res = W.spectrum(prob, 4)
    assert res.kernel_dim == 1
    # stability under grid doubling
    prob2 = W.circle_problem(f1, T=10.0, n_nodes=2 * prob.n_nodes)
    assert W.spectrum(prob2, 4).kernel_dim == 1


def test_eigenvalue_refinement_second_order():
    f1 = (lambda s: 0.2 * np.cos(s), lambda s: -0.2 * np.sin(s),
          lambda s: -0.2 * np.cos(s))
    lams = []
    for n in (200, 400, 800):
        prob = W.circle_problem(f1, T=8.0, n_nodes=n)
        lams.append(W.spectrum(prob, 3).eigenvalues[1])
    e1 = abs(lams[0] - lams[2])
    e2 = abs(lams[1] - lams[2])
    assert e2 < e1 / 3.0  # ~O(h^2)


def test_supersymmetric_pairing():
    f1 = (lambda s: 0.2 * np.cos(s), lambda s: -0.2 * np.sin(s),
          lambda s: -0.2 * np.cos(s))
    p0 = W.circle_problem(f1, T=5.0, n_nodes=20000, form_degree=0)
    p1 = W.circle_problem(f1, T=5.0, n_nodes=20000, form_degree=1)
    w0 = W.spectrum(p0, 6).eigenvalues
    w1 = W.spectrum(p1, 6).eigenvalues
    nz0 = w0[w0 > 1e-4][:4]
    nz1 = w1[w1 > 1e-4][:4]
    assert np.abs(nz0 - nz1).max() <= 1e-6 * np.abs(nz0).max()


def test_factor_susy_pairing_exact():
    prob0 = W.circle_problem(cos2(0.1), T=20.0, form_degree=0)
    prob1 = W.circle_problem(cos2(0.1), T=20.0, form_degree=1)
    l0, k0 = W.factor_spectrum(prob0, k=6)
    l1, k1 = W.factor_spectrum(prob1, k=6)
    assert k0 == 1 and k1 == 1
    assert np.allclose(l0, l1, rtol=1e-12, atol=1e-14)
    assert (l0 >= 0).all()


def test_gluing_scan_converges():
    out = W.gluing_scan(cos2(0.05), T=40.0, A_ladder=[1.0, 4.0, 16.0, 64.0],
                        interface_r=0.12, k=7)
    for deg in (0, 1):
        rows = out[deg]
        final = rows[-1]
        tol = 1e-2 * np.maximum(final["lambda_split"], 1e-6)
        assert (final["gaps"] <= tol).all()
        for r0, r1 in zip(rows, rows[1:]):
            assert (r1["gaps"] <= np.maximum(r0["gaps"], tol)).all()
        assert final["cluster_count"] == final["kernel_sum"]
    # hodge bookkeeping of the pieces
    assert out[0][-1]["kernel_abs"] == 1 and out[0][-1]["kernel_rel"] == 0
    assert out[1][-1]["kernel_abs"] == 0 and out[1][-1]["kernel_rel"] == 1


def test_gluing_interface_placement_guard():
    with pytest.raises(ValueError, match="critical point"):
        W.gluing_scan(cos2(0.05), T=40.0, A_ladder=[1.0, 2.0],
                      interface_r=0.12, cuts=(np.pi / 2, 7 * np.pi / 4))


def test_small_eigenvalue_scan_matches_agmon():
    out = W.small_eigenvalue_scan(cos2(0.1), list(range(20, 81, 10)))
    r = out[1]
    assert r["ok"], (r["slope"], r["prediction"])
    assert len(r["T"]) == 7  # no underflow truncation at this amplitude


def test_small_eigenvalue_scan_truncates_underflow():
    out = W.small_eigenvalue_scan(cos2(0.35), [20, 30, 40, 50], k_branches=1)
    r = out[1]
    assert len(r["T"]) < 4  # deep wells underflow at large T


def test_scan_degenerate_pair():
    # symmetric double well: the two 0-form branches below the continuum
    # are the exact zero and one tunneling value; with k_branches=2 the
    # second nonzero branch is already harmonic scale
    out = W.small_eigenvalue_scan(cos2(0.1), [30, 40, 50], k_branches=2)
    lam1 = out[1]["lambda"]
    lam2 = out[2]["lambda"]
    assert (lam2 / lam1 > 1e3).all()


def test_agmon_distance_properties():
    f_triple = cos2(0.1)
    s, rho_t = W.agmon_distance(f_triple, 40.0, [0])
    _, rho_1 = W.agmon_distance(f_triple, 1.0, [0])
    assert np.abs(rho_t - 40.0 * rho_1).max() < 1e-10
    fvals = f_triple[0](s)
    assert (rho_t - 40.0 * np.abs(fvals - fvals[0]) >= -1e-12).all()
    # linear f on a segment: rho = T c L
    lin = (lambda x: 0.05 * np.sin(x), lambda x: 0.05 * np.cos(x),
           lambda x: -0.05 * np.sin(x))
    s2, rho2 = W.agmon_distance(lin, 10.0, [0], n_nodes=4096)
    # integral of |f'| from 0 to pi/2 equals f(pi/2) - f(0) = 0.05
    i_quarter = 1024
    assert abs(rho2[i_quarter] - 10.0 * 0.05) < 1e-3


def test_agmon_decay_bounded_across_ladder():
    sups = W.agmon_decay_check(cos2(0.1), [20, 40, 60, 80], b=0.5)
    assert sups.max() - sups.min() <= 2.0
    assert (sups <= 0.1).all()


def test_agmon_decay_refuses_flat_potential():
    with pytest.raises(ValueError, match="precondition"):
        W.agmon_decay_check(ZERO, [10], b=0.5)


def test_cubic_model_scaling_and_growth():
    base = W.cubic_model_eigs(1.0, 6, n_nodes=1500)
    for T in (8.0, 64.0):
        w = W.cubic_model_eigs(T, 6, n_nodes=1500)
        assert np.abs(w / T ** (2.0 / 3.0) - base).max() <= 0.01 * np.abs(base).max()
    # growth at least quadratic in k
    w10 = W.cubic_model_eigs(1.0, 11, n_nodes=1500)
    ks = np.arange(2, 11, dtype=float)
    fit = np.polyfit(np.log(ks), np.log(w10[2:11] - w10[0] + 1e-12), 1)[0]
    assert fit >= 1.9


def test_cubic_neumann_free_limit():
    # f = 0 on a fixed interval: classical Neumann ladder (k pi / L)^2
    L = 2.0
    s = np.linspace(-1, 1, 3000)
    prob = W.WittenProblem1D("interval", s, 0 * s, 0 * s, 1.0, bc="absolute")
    w = W.spectrum(prob, 4).eigenvalues
    expect = np.array([0.0, (np.pi / L) ** 2, (2 * np.pi / L) ** 2, (3 * np.pi / L) ** 2])
    assert np.abs(w - expect).max() <= 1e-3 * expect.max()


def test_schauder_norms():
    rng = np.random.default_rng(0)
    assert np.isclose(W.schauder_norm(np.eye(7), 2), np.sqrt(7))
    r1m = np.outer(rng.normal(size=5), rng.normal(size=4))
    for n in (1, 2, 3, 7):
        assert np.isclose(W.schauder_norm(r1m, n), W.schauder_norm(r1m, np.inf))
    # Hoelder and Minkowski on random pairs
    for _ in range(100):
        b1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b2 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        n1, n2 = rng.choice([2.5, 3.0, 4.0, 6.0], size=2)
        n3 = 1.0 / (1.0 / n1 + 1.0 / n2)
        lhs = W.schauder_norm(b1 @ b2, n3)
        assert lhs <= W.schauder_norm(b1, n1) * W.schauder_norm(b2, n2) * (1 + 1e-12)
        nn = float(rng.choice([1.0, 2.0, 3.0]))
        assert W.schauder_norm(b1 + b2, nn) <= (
            W.schauder_norm(b1, nn) + W.schauder_norm(b2, nn)
        ) * (1 + 1e-12)
    # finite-rank bound
    for _ in range(50):
        rank = rng.integers(1, 4)
        b = sum(
            np.outer(rng.normal(size=8), rng.normal(size=8)) for _ in range(rank)
        )
        rk = np.linalg.matrix_rank(b)
        for n in (1.0, 2.0, 5.0):
            assert W.schauder_norm(b, n) <= rk ** (1.0 / n) * W.schauder_norm(
                b, np.inf
            ) * (1 + 1e-12)


CUTS = (np.pi / 4, 7 * np.pi / 4)


def _glue_problems(f_triple, T, A, r, n_nodes, deg):
    prof = W.build_p_profile(A, r)
    full = W.circle_problem(f_triple, T, n_nodes=n_nodes, A=A,
                            interface=(CUTS, r, prof), form_degree=deg)
    i0 = int(round(CUTS[0] / full.h))
    i1 = int(round(CUTS[1] / full.h))
    return (full, W.interval_problem(full, i0, i1, "absolute"),
            W.interval_problem(full, i1, i0 + full.n_nodes, "relative"))


def test_gluing_scan_matches_per_degree_factor_spectrum():
    # reference: one public factor_spectrum call per degree, factor and rung
    f_triple, T, ladder, r, k, n_nodes = cos2(0.05), 10.0, [1.0, 4.0], 0.12, 7, 2400
    out = W.gluing_scan(f_triple, T=T, A_ladder=ladder, interface_r=r, k=k,
                        n_nodes=n_nodes)
    for deg in (0, 1):
        for A, row in zip(ladder, out[deg]):
            full, piece_abs, piece_rel = _glue_problems(f_triple, T, A, r, n_nodes, deg)
            # the ladder crosses the dense/sparse switch (dense_limit 1800):
            # the circle is sparse, the relative piece dense, and the
            # absolute piece is sparse in degree 0 and dense in degree 1
            assert W.assemble_factor(piece_abs).shape == (1800, 1801)
            lam, _ = W.factor_spectrum(full, k=k)
            la, ka = W.factor_spectrum(piece_abs)
            lb, kb = W.factor_spectrum(piece_rel)
            split = np.sort(np.concatenate([la, lb]))[:k]
            assert row["A"] == A
            assert np.array_equal(row["lambda"], lam)
            assert np.array_equal(row["lambda_split"], split)
            assert np.array_equal(row["gaps"], np.abs(lam - split))
            assert row["cluster_count"] == W._small_cluster_count(lam)
            assert (row["kernel_abs"], row["kernel_rel"], row["kernel_sum"]) == (ka, kb, ka + kb)


def test_gluing_scan_one_dense_svd_per_factor_and_rung(monkeypatch):
    shapes = []
    svals = W._factor_svals

    def counting(b):
        shapes.append(b.shape)
        return svals(b)

    monkeypatch.setattr(W, "_factor_svals", counting)
    ladder = [1.0, 2.0, 4.0]
    W.gluing_scan(cos2(0.05), T=10.0, A_ladder=ladder, interface_r=0.12, k=7,
                  n_nodes=480)
    # full circle, absolute and relative piece, each dense in both degrees
    assert len(shapes) == 3 * len(ladder)
    assert len(set(shapes)) == 3


def _sturm_count(diag, off, x):
    """Eigenvalues below x of the symmetric tridiagonal (diag, off)."""
    import mpmath

    count = 0
    d = diag[0] - x
    count += d < 0
    for i in range(1, len(diag)):
        if d == 0:
            d = mpmath.mpf(10) ** (-2 * mpmath.mp.dps)
        d = diag[i] - x - off[i - 1] ** 2 / d
        count += d < 0
    return count


def test_dense_factor_svd_accuracy_against_mpmath():
    # oracle: 50-digit Sturm bisection on B B^T (tridiagonal) for the two
    # lowest eigenvalues of the 1-form Laplacian of a double-well interval
    # piece; the lowest is the tunnelling value, 1e-11 of sigma_max^2
    import mpmath

    full = W.circle_problem(cos2(0.1), 60.0)
    i0 = int(round(np.pi / 4 / full.h))
    i1 = int(round(7 * np.pi / 4 / full.h))
    piece = W.interval_problem(full, i0, i1, "absolute", form_degree=1)
    b = W.assemble_factor(piece).toarray()
    rows = b.shape[0]
    lam, kernel = W.factor_spectrum(piece, k=2)
    assert kernel == 0 and 0 < lam[0] < 1e-9 < lam[1]
    sigma_max = np.linalg.svd(b, compute_uv=False).max()
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(b[i, i])) for i in range(rows)]
        c = [mpmath.mpf(float(b[i, i + 1])) for i in range(rows)]
        diag = [a[i] ** 2 + c[i] ** 2 for i in range(rows)]
        off = [c[i] * a[i + 1] for i in range(rows - 1)]
        for j in range(2):
            lo, hi = mpmath.mpf(0), mpmath.mpf(2 * lam[j])
            assert _sturm_count(diag, off, hi) >= j + 1
            while hi - lo > mpmath.mpf(10) ** -25 * hi:
                mid = (lo + hi) / 2
                if _sturm_count(diag, off, mid) >= j + 1:
                    hi = mid
                else:
                    lo = mid
            sigma = float(mpmath.sqrt((lo + hi) / 2))
            # backward stable: absolute error a few eps * sigma_max in
            # sigma, so the relative error of lambda = sigma^2 is about
            # 2 eps sigma_max / sigma (2.4e-9 here for the lowest value,
            # against eps sigma_max^2 / lambda = 2.7e-2 for the assembled
            # second-order operator)
            err = abs(np.sqrt(lam[j]) - sigma)
            assert err <= 8 * np.finfo(float).eps * sigma_max, (j, err / sigma)


def _loop_sign_changes(vals, count_zero):
    # the per-node scans the vectorized helper replaced
    n = len(vals)
    out = []
    for i in range(n):
        a, b = vals[i], vals[(i + 1) % n]
        if (count_zero and a == 0.0) or (a < 0) != (b < 0):
            out.append(i)
    return np.asarray(out, dtype=int)


@pytest.mark.parametrize("amp", [0.08, 0.1, 0.12, 0.35])
def test_sign_change_scans_match_loops(amp):
    f_triple = cos2(amp)
    _, fp, fpp = f_triple
    s = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    changes = _loop_sign_changes(fp(s), count_zero=False)
    wells = np.array([i for i in changes if fpp(s[i]) > 0], dtype=int)
    ridges = np.array([i for i in changes if fpp(s[i]) < 0], dtype=int)
    assert np.array_equal(W._critical_nodes(f_triple, 2048, +1), wells)
    assert np.array_equal(W._critical_nodes(f_triple, 2048, -1), ridges)
    assert len(wells) == len(ridges) == 2
    fine = np.linspace(0, 2 * np.pi, 16384, endpoint=False)
    # fp(0) = 0 exactly, which the mask counts as a critical point
    crit = fine[_loop_sign_changes(fp(fine), count_zero=True)]
    assert 0.0 in crit
    for T in (20.0, 80.0):
        nodes = W.circle_problem(f_triple, T).nodes
        ref = np.zeros(len(nodes), dtype=bool)
        for c in crit:
            ref |= np.abs((nodes - c + np.pi) % (2 * np.pi) - np.pi) <= 0.3
        assert np.array_equal(W.critical_neighborhood_mask(f_triple, nodes), ref)
