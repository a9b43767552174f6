import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torsionlab import witten1d as W
from torsionlab.acceptance import cos2

from util import (agmon_distance_dijkstra, assemble_circle_lil_oracle, band_sigma_max,
                  factor_eigenpairs_splu_oracle, factor_spectra_splu_oracle,
                  factor_svals_band_oracle, factor_svals_exact_floor, golub_kahan_band,
                  spectrum_dense_oracle)


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


def test_problem_refuses_mismatched_samples_and_uneven_nodes():
    p = W.circle_problem(cos2(0.1), 5.0)
    assert p.n_nodes == 126
    with pytest.raises(ValueError, match="one entry per node"):
        W.WittenProblem1D("circle", p.nodes, p.fp[:10], p.fpp[:10], 5.0)
    shifted = p.nodes + 0.3 * (np.arange(p.n_nodes) >= 5)
    with pytest.raises(ValueError, match="uniform spacing"):
        W.WittenProblem1D("circle", shifted, p.fp, p.fpp, 5.0)
    with pytest.raises(ValueError, match="uniform spacing"):
        W.WittenProblem1D("circle", p.nodes[::-1], p.fp[::-1], p.fpp[::-1], 5.0)


@pytest.mark.parametrize("n", [63, 257, 2000])
def test_circle_assembly_matches_lil_oracle(n):
    # 63 nodes is the coarsest grid the problem accepts for f = 0
    for f_triple, T in ((ZERO, 1.0), (cos2(0.1), 1e-3)):
        for deg in (0, 1):
            prob = W.circle_problem(f_triple, T, n_nodes=n, form_degree=deg)
            mat, ref = W.assemble(prob), assemble_circle_lil_oracle(prob)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(mat, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
    with pytest.raises(ValueError, match="grid too coarse"):
        W.circle_problem(ZERO, 1.0, n_nodes=62)


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


def _spectrum_oracle_problems():
    """The Agmon ladder of criterion 7 and the problems of the spectrum
    tests above with n <= 3000, each with its k."""
    f3 = (lambda s: 0.3 * np.cos(s), lambda s: -0.3 * np.sin(s),
          lambda s: -0.3 * np.cos(s))
    f2 = (lambda s: 0.2 * np.cos(s), lambda s: -0.2 * np.sin(s),
          lambda s: -0.2 * np.cos(s))
    s = np.linspace(-1, 1, 3000)
    return ([(W.circle_problem(cos2(0.1), T), 2) for T in (20, 40, 60, 80)]
            + [(W.circle_problem(ZERO, T=7.0, n_nodes=256), 4),
               (W.circle_problem(f3, T=10.0), 4),
               (W.circle_problem(f3, T=10.0, n_nodes=504), 4)]
            + [(W.circle_problem(f2, T=8.0, n_nodes=n), 3) for n in (200, 400, 800)]
            + [(W.WittenProblem1D("interval", s, 0 * s, 0 * s, 1.0, bc="absolute"), 4)])


def test_spectrum_matches_dense_oracle():
    # shift-invert Lanczos against every eigenvalue of the dense operator
    # (measured worst 5.3 eps ||K||_1)
    eps = np.finfo(float).eps
    for prob, k in _spectrum_oracle_problems():
        res = W.spectrum(prob, k)
        ref = spectrum_dense_oracle(prob, k, vectors=False)
        norm = abs(W.assemble(prob)).sum(axis=0).max()
        assert np.abs(res.eigenvalues - ref.eigenvalues).max() <= 64 * eps * norm
        assert res.kernel_dim == ref.kernel_dim


def test_agmon_decay_matches_dense_oracle(monkeypatch):
    # the two lowest values lie 1.1e-9 apart at T=60 and within roundoff
    # (below 3e-11 on both routes) at T=80, yet the sups of both routes agree
    ladder = [20, 40, 60, 80]
    sups = W.agmon_decay_check(cos2(0.1), ladder, b=0.5)
    monkeypatch.setattr(W, "spectrum", spectrum_dense_oracle)
    ref = W.agmon_decay_check(cos2(0.1), ladder, b=0.5)
    assert np.abs(sups - ref).max() <= 1e-9


def test_spectrum_makes_no_dense_eigensolve(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    prob = W.circle_problem(cos2(0.1), T=20.0)
    assert prob.n_nodes == 315
    assert W.spectrum(prob, 2).kernel_dim == 1


def test_factor_solvers_refuse_k_below_one():
    prob = W.circle_problem(cos2(0.1), T=5.0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            W.factor_spectrum(prob, k=k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            W.factor_eigenpairs(prob, k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            W.spectrum(prob, k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            W.gluing_scan(cos2(0.05), T=10.0, A_ladder=[1.0], interface_r=0.12, k=k)


def test_factor_susy_pairing_exact():
    prob0 = W.circle_problem(cos2(0.1), T=20.0, form_degree=0)
    prob1 = W.circle_problem(cos2(0.1), T=20.0, form_degree=1)
    # the secular solve, then shift-invert Lanczos: one solve of the factor
    # serves both degrees on either path
    for dense_limit in (1800, 0):
        l0, k0 = W.factor_spectrum(prob0, k=6, dense_limit=dense_limit)
        l1, k1 = W.factor_spectrum(prob1, k=6, dense_limit=dense_limit)
        assert k0 == 1 and k1 == 1
        assert np.array_equal(l0, l1)
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
    # both degrees read one solve per factor, on the bisection and the sparse
    # rungs: the circle's values agree bit for bit, and so do the pieces'
    # once their structural zeros are padded in
    for r0, r1 in zip(out[0], out[1]):
        assert np.array_equal(r0["lambda"], r1["lambda"])
        assert np.array_equal(r0["lambda_split"], r1["lambda_split"])
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
    # below the kernel floor the branch is gone: no continuum value stands in
    assert list(r["T"]) == [20] and (r["lambda"] < 1e-8).all()


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


@pytest.mark.parametrize("amplitude", [0.08, 0.1, 0.12, 0.35])
def test_agmon_distance_matches_dijkstra_bitwise(amplitude):
    for T in (1.0, 20.0, 80.0):
        for sources in ([0], [3, 1500], [100, 612, 1024, 2047]):
            s, rho = W.agmon_distance(cos2(amplitude), T, sources)
            s_ref, rho_ref = agmon_distance_dijkstra(cos2(amplitude), T, sources)
            assert np.array_equal(s, s_ref) and np.array_equal(rho, rho_ref)


def test_torsionlab_imports_no_graph_library():
    code = ("import sys, torsionlab.cli, torsionlab.acceptance, torsionlab.witten1d; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(W.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_agmon_decay_bounded_across_ladder():
    sups = W.agmon_decay_check(cos2(0.1), [20, 40, 60, 80], b=0.5)
    assert sups.max() - sups.min() <= 2.0
    assert (sups <= 0.1).all()


def test_agmon_decay_refuses_flat_potential():
    with pytest.raises(ValueError, match="precondition"):
        W.agmon_decay_check(ZERO, [10], b=0.5)


def test_agmon_decay_refuses_flat_potential_before_any_eigensolve(monkeypatch):
    # f = 0 leaves no node off the critical neighborhoods, so c_f does not
    # exist: the refusal comes from that rule, not from the eigenvalue
    def no_solve(*args, **kwargs):
        raise AssertionError("spectrum called")

    monkeypatch.setattr(W, "spectrum", no_solve)
    with pytest.raises(ValueError, match="precondition undefined at T=10"):
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
            # the ladder crosses the bisection/sparse switch (rank 1800): the
            # circle is sparse, and both pieces are bisected in both degrees,
            # the absolute one at rank exactly 1800
            assert W.assemble_factor(piece_abs).shape == (1800, 1801)
            lam, _ = W.factor_spectrum(full, k=k)
            la, ka = W.factor_spectrum(piece_abs, k=k)
            lb, kb = W.factor_spectrum(piece_rel, k=k)
            split = np.sort(np.concatenate([la, lb]))[:k]
            assert row["A"] == A
            assert np.array_equal(row["lambda"], lam)
            assert np.array_equal(row["lambda_split"], split)
            assert np.array_equal(row["gaps"], np.abs(lam - split))
            assert row["cluster_count"] == W._small_cluster_count(lam)
            assert (row["kernel_abs"], row["kernel_rel"], row["kernel_sum"]) == (ka, kb, ka + kb)


def test_gluing_scan_window_beyond_ten():
    # the pieces are solved with the scan's k: at A=64 every factor takes
    # the sparse path, which returns only 10 values when k is None
    f_triple, T, A, r, k = cos2(0.05), 40.0, 64.0, 0.12, 20
    out = W.gluing_scan(f_triple, T=T, A_ladder=[A], interface_r=r, k=k)
    for deg in (0, 1):
        full, piece_abs, piece_rel = _glue_problems(f_triple, T, A, r, None, deg)
        assert min(W.assemble_factor(piece_abs).shape) > 1800
        lam, _ = W.factor_spectrum(full, k=k)
        la, _ = W.factor_spectrum(piece_abs, k=k)
        lb, _ = W.factor_spectrum(piece_rel, k=k)
        split = np.sort(np.concatenate([la, lb]))[:k]
        row = out[deg][0]
        assert len(row["lambda_split"]) == len(row["lambda"]) == k
        assert np.allclose(row["lambda"], lam, rtol=1e-9, atol=1e-12)
        assert np.allclose(row["lambda_split"], split, rtol=1e-9, atol=1e-12)


def test_gluing_scan_default_window():
    # k=None takes factor_spectrum's default of at most 10 values, for the
    # circle and for the two pieces together
    f_triple, T, r, n_nodes = cos2(0.05), 10.0, 0.12, 480
    out = W.gluing_scan(f_triple, T=T, A_ladder=[1.0], interface_r=r, k=None,
                        n_nodes=n_nodes)
    for deg in (0, 1):
        full, piece_abs, piece_rel = _glue_problems(f_triple, T, 1.0, r, n_nodes, deg)
        lam, _ = W.factor_spectrum(full)
        la, _ = W.factor_spectrum(piece_abs)
        lb, _ = W.factor_spectrum(piece_rel)
        split = np.sort(np.concatenate([la, lb]))[:10]
        row = out[deg][0]
        assert len(lam) == len(split) == 10
        assert np.array_equal(row["lambda"], lam)
        assert np.array_equal(row["lambda_split"], split)
        assert np.array_equal(row["gaps"], np.abs(lam - split))


def test_gluing_scan_one_band_solve_per_factor_and_rung(monkeypatch):
    calls = []
    solve = W._factor_svals

    def counting(b, want):
        calls.append((b.shape, want))
        return solve(b, want)

    monkeypatch.setattr(W, "_factor_svals", counting)
    ladder = [1.0, 2.0, 4.0]
    W.gluing_scan(cos2(0.05), T=10.0, A_ladder=ladder, interface_r=0.12, k=7,
                  n_nodes=480)
    # full circle, absolute and relative piece, each solved once for both degrees,
    # each with the window k: bisection gets exactly the indices it asks for
    assert len(calls) == 3 * len(ladder)
    assert len({shape for shape, _ in calls}) == 3
    assert {want for _, want in calls} == {7}

    # the benchmark ladder crosses the switch: each factor of rank above
    # 1800 takes one eigsh on its rank-sized Gram operator instead
    sizes, eigsh_kwargs = [], []
    eigsh = W.spla.eigsh

    def counting_eigsh(op, **kwargs):
        sizes.append(op.shape[0])
        eigsh_kwargs.append((float(np.abs(op.diagonal()).max()), kwargs))
        return eigsh(op, **kwargs)

    monkeypatch.setattr(W.spla, "eigsh", counting_eigsh)
    calls.clear()
    ladder = [1.0, 4.0, 16.0, 64.0]
    W.gluing_scan(cos2(0.05), T=40.0, A_ladder=ladder, interface_r=0.12, k=7)
    ranks = [min(W.assemble_factor(p).shape) for A in ladder
             for p in _glue_problems(cos2(0.05), 40.0, A, 0.12, None, 0)]
    assert sorted(sizes) == sorted(r for r in ranks if r > 1800)
    assert sorted(min(shape) for shape, _ in calls) == sorted(r for r in ranks if r <= 1800)
    assert len(sizes) == 5
    # each asks for exactly k values, at the shift -1e-8 ||op|| (||op||
    # estimated as 2 max|diag op|), and solves op - shift I by the
    # tridiagonal LDL^T, not by eigsh's own sparse LU
    for diag_max, kwargs in eigsh_kwargs:
        assert kwargs["k"] == 7
        assert kwargs["sigma"] == -1e-8 * 2 * diag_max
        assert isinstance(kwargs.get("OPinv"), spla.LinearOperator)


def _gram_norm(problem):
    """The largest diagonal entry of the factor's Gram operators B^H B and
    B B^H (the largest squared column or row norm of B), a lower bound on
    their norm ||op||_2 = sigma_max^2."""
    sq = abs(W.assemble_factor(problem)).power(2)
    return max(sq.sum(axis=0).max(), sq.sum(axis=1).max())


def _sparse_route_problems():
    """Factors of rank above 1800: the A = 16 and 64 rungs of the benchmark
    gluing ladder (circle, absolute and relative piece; the A = 16 relative
    piece has rank 1279) and circles like the benchmark's large
    factor_spectrum study."""
    return ([p for A in (16.0, 64.0)
             for p in _glue_problems(cos2(0.05), 40.0, A, 0.12, None, 0)]
            + [W.circle_problem(cos2(amp), T, n_nodes=n)
               for amp, T, n in ((0.08, 20.0, 2500), (0.1, 30.0, 3700), (0.12, 40.0, 5000))])


def test_factor_spectra_match_splu_oracle():
    # the LDL^T OPinv against eigsh's own SuperLU factorization of
    # op - shift I (measured worst 0.012 eps ||op||_2); dense_limit=0 keeps
    # every factor on the sparse route
    eps = np.finfo(float).eps
    problems = _sparse_route_problems()
    assert sum(min(W.assemble_factor(p).shape) > 1800 for p in problems) == 8
    for prob in problems:
        norm = _gram_norm(prob)
        for k in (7, 8):
            ref = factor_spectra_splu_oracle(prob, k=k)
            for (lam, kernel), (lam_ref, kernel_ref) in zip(
                    W._factor_spectra(prob, k=k, dense_limit=0), ref):
                assert kernel == kernel_ref
                assert np.abs(lam - lam_ref).max() <= 8 * eps * norm


def test_factor_spectra_sparse_route_matches_bisection_route():
    # the shift-invert route (dense_limit=0) against the bisection route of
    # _factor_svals at every rank, which takes no shift: equal kernels, and
    # values within the eps ||op|| class of the Lanczos solve; at k = 1 the
    # circle's whole window is its kernel
    eps = np.finfo(float).eps
    for prob in _sparse_route_problems():
        norm = _gram_norm(prob)
        for k in (1, 7, 8, None):
            sparse = W._factor_spectra(prob, k=k, dense_limit=0)
            bisected = W._factor_spectra(prob, k=k, dense_limit=10**6)
            for (lam, kernel), (lam_ref, kernel_ref) in zip(sparse, bisected):
                assert kernel == kernel_ref
                assert len(lam) == len(lam_ref) == W._count(k)
                assert np.abs(lam - lam_ref).max() <= 8 * eps * norm


def test_factor_eigenpairs_match_splu_oracle():
    # witten-glue's companion table (the circle at the last rung of its
    # default ladder, k = 6) in both degrees, and the absolute piece
    eps = np.finfo(float).eps
    full0, piece, _ = _glue_problems(cos2(0.05), 40.0, 64.0, 0.12, None, 0)
    full1 = _glue_problems(cos2(0.05), 40.0, 64.0, 0.12, None, 1)[0]
    for prob in (full0, full1, piece):
        res = W.factor_eigenpairs(prob, 6)
        ref = factor_eigenpairs_splu_oracle(prob, 6)
        lam = res.eigenvalues
        assert res.kernel_dim == ref.kernel_dim
        assert np.abs(lam - ref.eigenvalues).max() <= 8 * eps * _gram_norm(prob)
        assert (res.metadata["residuals"] <= 1e-8 * np.maximum(1.0, np.abs(lam))).all()


def test_shift_inverse_backward_error():
    # random right-hand sides on the cyclic circle operators and the plain
    # interval ones, at the shift of _factor_operator
    eps = np.finfo(float).eps
    rng = np.random.default_rng(25)
    full, piece, _ = _glue_problems(cos2(0.05), 40.0, 16.0, 0.12, None, 0)
    for prob, cyclic in ((full, True), (piece, False)):
        b = W.assemble_factor(prob)
        for op in (b.T @ b, b @ b.T):
            n = op.shape[0]
            assert (op[0, n - 1] != 0) == cyclic
            shift = -2e-8 * np.abs(op.diagonal()).max()
            mat = op - shift * sp.identity(n)
            norm = np.abs(mat).sum(axis=0).max()
            solve = W._shift_inverse(op, shift)
            for _ in range(4):
                r = rng.standard_normal(n)
                x = solve.matvec(r)
                assert np.linalg.norm(mat @ x - r) <= 16 * eps * norm * np.linalg.norm(x)


def test_shift_inverse_refuses_indefinite_operator():
    # dpttrf reports the negative pivot of the plain operator and of the
    # leading block of a cyclic one; the bordered step reports the negative
    # Schur complement of a cyclic operator whose leading block is definite
    plain = sp.diags([[2.0, -1.0, 2.0, 2.0], [-1.0] * 3, [-1.0] * 3], [0, 1, -1],
                     format="csr")
    cyclic = sp.lil_matrix(plain)
    cyclic[0, 3] = cyclic[3, 0] = -1.0
    bordered = sp.diags([[2.0] * 3, [-1.0] * 2, [-1.0] * 2], [0, 1, -1], format="lil")
    bordered[0, 2] = bordered[2, 0] = -2.0
    for op in (plain, cyclic.tocsr(), bordered.tocsr()):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            W._shift_inverse(op, 0.0)
    # a negative shift, like _factor_operator's, makes the positive
    # semi-definite bordered circulant definite
    circulant = sp.diags([[2.0] * 3, [-1.0] * 2, [-1.0] * 2], [0, 1, -1], format="lil")
    circulant[0, 2] = circulant[2, 0] = -1.0
    x = W._shift_inverse(circulant.tocsr(), -1e-6).matvec(np.ones(3))
    assert np.allclose(x, 1e6, rtol=1e-9)


def test_factor_paths_make_no_superlu_factorization(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called")

    # the name eigsh factors op - sigma I by
    monkeypatch.setitem(spla.eigsh.__globals__, "splu", no_splu)
    monkeypatch.setattr(spla, "splu", no_splu)
    out = W.gluing_scan(cos2(0.05), T=40.0, A_ladder=[1.0, 4.0, 16.0, 64.0],
                        interface_r=0.12, k=7)
    assert [row["A"] for row in out[0]] == [1.0, 4.0, 16.0, 64.0]
    full = _glue_problems(cos2(0.05), 40.0, 64.0, 0.12, None, 0)[0]
    assert W.factor_eigenpairs(full, 6).kernel_dim == 1
    with pytest.raises(AssertionError, match="splu called"):
        factor_spectra_splu_oracle(full, k=4)


def test_factor_svals_window_never_undercounts_kernel():
    # 12 zero singular values: the first windows hold only kernel values
    # and must widen until they reach a nonzero one
    diag = np.concatenate([np.zeros(12), np.linspace(1.0, 2.0, 50)])
    b = sp.diags(diag, 0, shape=(62, 63), format="csr")
    svals, floor = W._factor_svals(b, 4)
    assert floor == pytest.approx(128 * np.finfo(float).eps, rel=1e-15)
    assert len(svals) == 16 and (svals[:12] == 0).all() and svals[12] > 0.9
    for dim, structural in ((63, 1), (62, 0)):
        lam, kernel = W._padded_spectrum(svals**2, int((svals <= floor).sum()),
                                         dim, 62, 14)
        assert kernel == 12 + structural
        assert (lam[:kernel] == 0).all() and (lam[kernel:] > 0.9).all()


def test_factor_floor_norm_within_sqrt2_of_sigma_max():
    # the floor reads ||GK||_inf = max(||B||_1, ||B||_inf): two entries per
    # row and column of a (cyclic) bidiagonal B keep it in
    # [sigma_max, sqrt(2) sigma_max], sigma_max from a dense SVD
    eps = np.finfo(float).eps
    factors = [W.assemble_factor(p) for A in (1.0, 2.0, 4.0)
               for p in _glue_problems(cos2(0.05), 10.0, A, 0.12, 480, 0)]
    factors += [W.assemble_factor(W.circle_problem(cos2(amp), T))
                for amp, T in ((0.1, 20.0), (0.1, 30.0), (0.35, 20.0))]
    assert {b.shape[0] == b.shape[1] for b in factors} == {True, False}
    for b in factors:
        sigma_max = np.linalg.svd(b.toarray(), compute_uv=False).max()
        norm = max(np.abs(b).sum(axis=0).max(), np.abs(b).sum(axis=1).max())
        _, floor = W._factor_svals(b, 4)
        assert norm > 1 and floor == 64 * eps * norm
        assert sigma_max <= norm * (1 + 4 * eps) and norm <= np.sqrt(2) * sigma_max


def test_factor_svals_one_band_reduction_per_window(monkeypatch):
    windows, solves = [], []
    path_eigvals = W._path_eigvals
    solve = W._factor_svals

    def counting_path(off, lo, hi, tol=0.0):
        windows.append((lo, hi))
        return path_eigvals(off, lo, hi, tol)

    def counting_solve(b, want):
        solves.append(want)
        return solve(b, want)

    monkeypatch.setattr(W, "_path_eigvals", counting_path)
    monkeypatch.setattr(W, "_factor_svals", counting_solve)
    W.gluing_scan(cos2(0.05), T=10.0, A_ladder=[1.0, 2.0], interface_r=0.12, k=7,
                  n_nodes=480)
    W.small_eigenvalue_scan(cos2(0.1), [20, 30, 40])
    # one stebz window of `want` values per solve: the first window of every
    # interval piece already reaches past the floor, and so does the
    # bracket window of every circle
    assert len(solves) == 9 and len(windows) == len(solves)
    assert [hi - lo + 1 for lo, hi in windows] == solves
    # a window that holds only kernel values widens, one stebz call per window
    windows.clear()
    diag = np.concatenate([np.zeros(12), np.linspace(1.0, 2.0, 50)])
    solve(sp.diags(diag, 0, shape=(62, 63), format="csr"), 4)
    assert [hi - lo + 1 for lo, hi in windows] == [4, 8, 16]


def test_factor_svals_match_exact_sigma_max_floor(monkeypatch):
    # oracle: the floor from an exact sigma_max solve (tests/util.py); no
    # singular value lies between the two floors, so on the interval pieces
    # values, windows and kernels agree bit for bit with eig_banded (LAPACK
    # sbevx) on B's own-order band; the circles take the secular solve and
    # are held to the band route within 8 eps sigma_max, with equal kernels
    solve = W._factor_svals
    shapes = []

    def checked(b, want):
        svals, floor = solve(b, want)
        ref, ref_floor = factor_svals_exact_floor(b, want)
        if b.shape[0] == b.shape[1]:
            _assert_matches_band_oracle(b, svals, floor)
        else:
            assert np.array_equal(svals, ref)
        assert (svals <= floor).sum() == (ref <= ref_floor).sum()
        assert ref_floor * (1 - 1e-12) <= floor <= np.sqrt(2) * ref_floor
        shapes.append(b.shape)
        return svals, floor

    monkeypatch.setattr(W, "_factor_svals", checked)
    # benchmark-like: the gluing ladder's bisection rungs at T=40 and circles of
    # factor_spectrum across its amplitude and T ranges
    for amp in (0.04, 0.06):
        W.gluing_scan(cos2(amp), T=40.0, A_ladder=[1.0, 4.0, 16.0], interface_r=0.12, k=7)
    for amp, T in ((0.08, 20.0), (0.12, 70.0)):
        for deg in (0, 1):
            W.factor_spectrum(W.circle_problem(cos2(amp), T, form_degree=deg), k=8)
    # the gluing ladders and small-eigenvalue scans of the tests above, and
    # the A = 2 rung at T = 40 (a 688 x 689 absolute piece)
    W.gluing_scan(cos2(0.05), T=10.0, A_ladder=[1.0, 2.0, 4.0], interface_r=0.12, k=7,
                  n_nodes=480)
    W.gluing_scan(cos2(0.05), T=40.0, A_ladder=[2.0], interface_r=0.12, k=7)
    W.gluing_scan(cos2(0.05), T=10.0, A_ladder=[1.0, 4.0], interface_r=0.12, k=7,
                  n_nodes=2400)
    W.small_eigenvalue_scan(cos2(0.1), list(range(20, 81, 10)))
    W.small_eigenvalue_scan(cos2(0.35), [20, 30, 40, 50])
    W.small_eigenvalue_scan(cos2(0.1), [30, 40, 50], k_branches=2)
    assert len(shapes) >= 40 and (688, 689) in shapes


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


def _periodic_sturm_count(diag, off, x):
    """Eigenvalues below x of the cyclic tridiagonal (diag, off), off[i]
    coupling nodes i and i + 1 mod n: the inertia of the path on nodes
    1..n-1 (its LDL^T) plus the sign of the Schur complement on node 0."""
    import mpmath

    n = len(diag)
    count = 0
    schur = diag[0] - x
    d = z = None
    for i in range(1, n):
        u = (off[0] if i == 1 else 0) + (off[n - 1] if i == n - 1 else 0)
        if d is None:
            d, z = diag[i] - x, u
        else:
            ell = off[i - 1] / d
            d = diag[i] - x - off[i - 1] * ell
            z = u - ell * z
        if d == 0:
            d = mpmath.mpf(10) ** (-2 * mpmath.mp.dps)
        count += d < 0
        schur -= z * z / d
    return count + (schur < 0)


def _bisect_singular_value(count, j, guess):
    """Square root of the j-th lowest eigenvalue (from 0) of B^T B or B B^T,
    whose eigenvalue count below x is count(x), by bisection from
    [guess / 2, 2 guess]."""
    import mpmath

    lo, hi = mpmath.mpf(guess) / 2, mpmath.mpf(guess) * 2
    assert count(lo) <= j < count(hi)
    while hi - lo > mpmath.mpf(10) ** -20 * hi:
        mid = (lo + hi) / 2
        if count(mid) >= j + 1:
            hi = mid
        else:
            lo = mid
    return mpmath.sqrt((lo + hi) / 2)


def test_interval_factor_svals_relative_accuracy_against_mpmath():
    # oracle: 50-digit Sturm bisection on B B^T (tridiagonal) for the two
    # lowest eigenvalues of the 1-form Laplacian of a double-well interval
    # piece; the lowest is the tunnelling value (5.04e-7 in sigma at T=80,
    # where a dense SVD of the factor is 4.8e-7 off in relative terms)
    import mpmath

    eps = np.finfo(float).eps
    for T in (60.0, 80.0):
        full = W.circle_problem(cos2(0.1), T)
        i0 = int(round(np.pi / 4 / full.h))
        i1 = int(round(7 * np.pi / 4 / full.h))
        piece = W.interval_problem(full, i0, i1, "absolute", form_degree=1)
        b = W.assemble_factor(piece)
        rows = b.shape[0]
        lam, kernel = W.factor_spectrum(piece, k=2)
        assert kernel == 0 and 0 < lam[0] < 1e-9 < lam[1]
        with mpmath.workdps(50):
            a = [mpmath.mpf(float(b[i, i])) for i in range(rows)]
            c = [mpmath.mpf(float(b[i, i + 1])) for i in range(rows)]
            diag = [a[i] ** 2 + c[i] ** 2 for i in range(rows)]
            off = [c[i] * a[i + 1] for i in range(rows - 1)]
            for j in range(2):
                sigma = _bisect_singular_value(
                    lambda x: _sturm_count(diag, off, x), j, lam[j])
                # bisection on the zero-diagonal Golub-Kahan tridiagonal:
                # relative accuracy however small sigma is
                err = float(abs(mpmath.mpf(float(np.sqrt(lam[j]))) - sigma) / sigma)
                assert err <= 16 * eps, (T, j, err / eps)


def test_circle_factor_svals_against_periodic_mpmath():
    # oracle: 50-digit periodic Sturm bisection on the cyclic tridiagonal
    # B^T B of the circle factor, for its two lowest nonzero eigenvalues;
    # the secular solve of the cyclic factor resolves its roots to about
    # eps * ||GK||, so the error is absolute, about eps * sigma_max
    import mpmath

    prob = W.circle_problem(cos2(0.1), 60.0)
    b = W.assemble_factor(prob)
    n = b.shape[0]
    lam, kernel = W.factor_spectrum(prob, k=3)
    assert kernel == 1 and lam[0] == 0 and 0 < lam[1] < 1e-8 < lam[2]
    sigma_max = np.linalg.svd(b.toarray(), compute_uv=False).max()
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(b[i, i])) for i in range(n)]
        c = [mpmath.mpf(float(b[i, (i + 1) % n])) for i in range(n)]
        diag = [a[i] ** 2 + c[i - 1] ** 2 for i in range(n)]
        off = [a[i] * c[i] for i in range(n)]
        for j in (1, 2):
            sigma = _bisect_singular_value(
                lambda x: _periodic_sturm_count(diag, off, x), j, lam[j])
            err = abs(np.sqrt(lam[j]) - float(sigma))
            assert err <= 8 * np.finfo(float).eps * sigma_max, (j, err)


EPS = np.finfo(float).eps


def _mp_circle_singular_value(b, j, guess):
    """The j-th lowest singular value of the cyclic factor b by 40-digit
    periodic Sturm bisection on B^T B."""
    import mpmath

    n = b.shape[0]
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(b[i, i])) for i in range(n)]
        c = [mpmath.mpf(float(b[i, (i + 1) % n])) for i in range(n)]
        diag = [a[i] ** 2 + c[i - 1] ** 2 for i in range(n)]
        off = [a[i] * c[i] for i in range(n)]
        return float(_bisect_singular_value(
            lambda x: _periodic_sturm_count(diag, off, x), j, guess**2))


def _assert_matches_band_oracle(b, svals, floor):
    """Circle values of the secular solve against the band route of
    tests/util.py: equal floors and kernels, and every nonzero value within
    8 eps sigma_max. The band route is itself only that accurate: where it
    misses by more, the 40-digit value decides, and the secular value must
    lie within eps sigma_max of it, closer than the band route."""
    ref, ref_floor = factor_svals_band_oracle(b, len(svals))
    kernel = int((svals <= floor).sum())
    assert ref_floor == floor and kernel == int((ref <= ref_floor).sum())
    assert (svals[:kernel] == 0).all()
    tol = 8 * EPS * band_sigma_max(golub_kahan_band(b))
    for j in range(kernel, min(len(svals), len(ref))):
        if abs(svals[j] - ref[j]) > tol:
            exact = _mp_circle_singular_value(b, j, svals[j])
            assert abs(svals[j] - exact) <= tol / 8 < abs(ref[j] - exact), (j, svals[j], ref[j])


def test_small_eig_default_ladder_sigma1_against_mpmath():
    # sigma_1 of the default small-eig ladder (cos2(0.1), T = 20..80), from
    # the window of k_branches + 1 = 2 values the scan asks for, within
    # eps sigma_max of the 40-digit value (measured worst 0.43)
    ladder = list(range(20, 81, 10))
    out = W.small_eigenvalue_scan(cos2(0.1), ladder)[1]
    assert list(out["T"]) == ladder
    for T, lam in zip(ladder, out["lambda"]):
        b = W.assemble_factor(W.circle_problem(cos2(0.1), T))
        sigma = W._factor_svals(b, 2)[0][1]
        assert sigma**2 == lam
        sigma_max = band_sigma_max(golub_kahan_band(b))
        assert abs(sigma - _mp_circle_singular_value(b, 1, sigma)) <= EPS * sigma_max, T


def test_interval_factor_svals_independent_of_numpy_cpu_dispatch(tmp_path):
    # the A = 1 absolute piece of the default witten-glue config, solved
    # again in a child whose numpy dispatches no AVX2 or AVX-512 kernels,
    # gives the same bytes
    b = W.assemble_factor(_glue_problems(cos2(0.05), 40.0, 1.0, 0.12, None, 0)[1])
    assert b.shape == (461, 462)
    sp.save_npz(tmp_path / "b.npz", b)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.path.dirname(os.path.dirname(W.__file__))}
    if subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                      capture_output=True).returncode != 0:
        pytest.skip("numpy does not start with those CPU features disabled")
    code = ("import sys, scipy.sparse as sp; from torsionlab.witten1d import _factor_svals; "
            "print(_factor_svals(sp.load_npz(sys.argv[1]), 9)[0].tobytes().hex())")
    child = subprocess.run([sys.executable, "-c", code, str(tmp_path / "b.npz")], env=env,
                           check=True, capture_output=True, text=True).stdout
    assert bytes.fromhex(child.strip()) == W._factor_svals(b, 9)[0].tobytes()


def _circle_factors():
    """Benchmark-like cyclic factors and their windows: the small-eigenvalue
    ladders, the A = 1 and A = 4 gluing circles at T = 40 and the circles
    of factor_spectrum at T = 20 and 70."""
    out = [(W.assemble_factor(W.circle_problem(cos2(amp), T)), 4)
           for amp in (0.08, 0.12) for T in range(20, 81, 10)]
    out += [(W.assemble_factor(_glue_problems(cos2(amp), 40.0, A, 0.12, None, 0)[0]), 9)
            for amp in (0.04, 0.06) for A in (1.0, 4.0)]
    out += [(W.assemble_factor(W.circle_problem(cos2(amp), T)), 10)
            for amp, T in ((0.08, 20.0), (0.12, 70.0))]
    return out


def test_circle_factor_svals_match_band_oracle():
    # the secular solve against the band route it replaced, with the
    # 40-digit value deciding where the two differ by more than
    # 8 eps sigma_max (the sigma_4 of the A = 4 gluing circle of
    # cos2(0.06), where the band route is 9.7 eps sigma_max off)
    for b, want in _circle_factors():
        svals, floor = W._factor_svals(b, want)
        assert len(svals) == want
        _assert_matches_band_oracle(b, svals, floor)


def test_circle_factor_svals_near_pole_root():
    # sigma_1 of cos2(0.1) at T = 20 lies within an ulp-scale distance of an
    # eigenvalue of the path P, where the secular function cannot be
    # resolved: the guard returns that eigenvalue, which is within
    # 8 eps sigma_max of the 40-digit value
    b = W.assemble_factor(W.circle_problem(cos2(0.1), 20.0))
    n = b.shape[0]
    svals, floor = W._factor_svals(b, 4)
    norm = max(abs(b).sum(axis=0).max(), abs(b).sum(axis=1).max())
    off = np.empty(2 * n - 2)
    off[0::2], off[1::2] = b.diagonal(1), b.diagonal()[1:]
    mu = scipy.linalg.eigh_tridiagonal(np.zeros(2 * n - 1), off, eigvals_only=True)
    assert np.abs(mu - svals[1]).min() <= 2 * EPS * norm
    sigma_max = band_sigma_max(golub_kahan_band(b))
    assert abs(svals[1] - _mp_circle_singular_value(b, 1, svals[1])) <= 8 * EPS * sigma_max
    _assert_matches_band_oracle(b, svals, floor)


def _cyclic(diag, upper):
    """Square cyclic factor with B[i, i] = diag[i], B[i, i+1 mod n] = upper[i]."""
    n = len(diag)
    i = np.arange(n)
    return sp.csr_matrix((np.concatenate([diag, upper]),
                          (np.concatenate([i, i]), np.concatenate([i, (i + 1) % n]))),
                         shape=(n, n))


def test_twisted_cyclic_factor_svals_have_no_kernel():
    # antiperiodic difference on 64 nodes: B is normal with singular values
    # 2 sin((2k + 1) pi / 128), each double, so half the roots sit exactly
    # on eigenvalues of the path P; and a random twisted factor against a
    # dense SVD
    n = 64
    b = _cyclic(-np.ones(n), np.concatenate([np.ones(n - 1), [-1.0]]))
    svals, floor = W._factor_svals(b, 8)
    exact = 2 * np.sin((2 * (np.arange(8) // 2) + 1) * np.pi / (2 * n))
    assert (svals > floor).all() and np.abs(svals - exact).max() <= 8 * EPS * 2
    rng = np.random.default_rng(5)
    upper = rng.uniform(0.5, 2.0, n)
    upper[-1] *= -1.0
    b = _cyclic(-rng.uniform(0.5, 2.0, n), upper)
    svals, floor = W._factor_svals(b, 10)
    dense = np.linalg.svd(b.toarray(), compute_uv=False)
    assert (svals > floor).all()
    assert np.abs(svals - np.sort(dense)[:10]).max() <= 8 * EPS * dense.max()


def test_cyclic_factor_svals_window_never_undercounts_kernel():
    # three zero rows give three zero singular values: a window of two
    # holds only kernel values and must widen until it passes the floor
    rng = np.random.default_rng(7)
    n = 40
    diag, upper = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    diag[[5, 17, 29]] = upper[[5, 17, 29]] = 0.0
    b = _cyclic(diag, upper)
    svals, floor = W._factor_svals(b, 2)
    dense = np.sort(np.linalg.svd(b.toarray(), compute_uv=False))
    assert len(svals) == 4 and (svals[:3] == 0).all() and svals[3] > floor
    assert np.abs(svals[3:] - dense[3:4]).max() <= 8 * EPS * dense.max()
    lam, kernel = W._padded_spectrum(svals**2, int((svals <= floor).sum()), n, n, 4)
    assert kernel == 3 and (lam[:3] == 0).all() and lam[3] > 0


def test_cyclic_factor_kernel_counted_at_the_floor():
    # a corner 1 + delta on the free circle leaves one singular value of
    # 35 (delta = 1e-12) or 70 (2e-12) eps * ||GK||_inf: the first lies
    # below the floor 64 eps * ||GK||_inf and is counted by the inertia of
    # the bordered matrix, an exact zero, though root-finding would resolve
    # it; the second is a root
    n = 64
    for delta, kernel in ((1e-12, 1), (2e-12, 0)):
        b = _cyclic(-np.ones(n), np.concatenate([np.ones(n - 1), [1.0 + delta]]))
        svals, floor = W._factor_svals(b, 4)
        dense = np.sort(np.linalg.svd(b.toarray(), compute_uv=False))
        assert int((svals <= floor).sum()) == kernel == int((dense <= floor).sum())
        assert (svals[:kernel] == 0).all()
        assert np.abs(svals[kernel:] - dense[kernel:4]).max() <= 8 * EPS * dense.max()


def test_circle_secular_solves_per_value(monkeypatch):
    # one dgtsv solve per secular step: the guards settle most roots, and
    # the interior ones converge in a few Newton steps. Measured: 45 solves
    # for these 13 values (3.5 per value, the kernel's floor count
    # included); midpoint bisection would take about 50 per value
    calls = []
    dgtsv = scipy.linalg.lapack.dgtsv

    def counting(*args, **kwargs):
        calls.append(1)
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counting)
    values = 0
    for b, want in ((W.assemble_factor(_glue_problems(cos2(0.05), 40.0, 4.0, 0.12, None, 0)[0]), 9),
                    (W.assemble_factor(W.circle_problem(cos2(0.1), 50.0)), 4)):
        values += len(W._factor_svals(b, want)[0])
    assert values == 13 and len(calls) <= 48


def test_cubic_model_matches_dense_eigh():
    for T in (1.0, 64.0):
        for deg in (0, 1):
            ell = T ** (-1.0 / 3.0)
            s = np.linspace(-ell, ell, 1500)
            prob = W.WittenProblem1D("interval", s, s**2, 2.0 * s, T,
                                     bc="absolute", form_degree=deg)
            ref = scipy.linalg.eigh(W.assemble(prob).toarray(), eigvals_only=True)[:6]
            w = W.cubic_model_eigs(T, 6, n_nodes=1500, form_degree=deg)
            assert np.abs(w - ref).max() <= 1e-11 * np.abs(ref).max()


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
