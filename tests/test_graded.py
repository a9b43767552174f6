import json

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from torsionlab import graded as G

from util import random_complex


def two_term(c, g0=1.0, g1=1.0):
    return G.GradedComplex(
        (1, 1),
        [np.array([[c]], dtype=complex)],
        [g0 * np.eye(1, dtype=complex), g1 * np.eye(1, dtype=complex)],
    )


def test_h_scalar_values():
    assert G.h_scalar(0) == 0
    assert G.h_prime(0) == 1
    assert np.isclose(G.h_scalar(1.0), np.e)


def test_d2_enforced():
    d0 = np.array([[1.0], [0.0]])
    d1 = np.array([[1.0, 0.0]])  # d1 d0 = 1 != 0
    with pytest.raises(ValueError, match="d_1 d_0"):
        G.GradedComplex((1, 2, 1), [d0, d1])


def test_metric_validation():
    with pytest.raises(G.InvalidMetricError):
        G.GradedComplex((1, 1), [np.eye(1)], [np.array([[-1.0]]), np.eye(1)])
    with pytest.raises(G.InvalidMetricError):
        G.GradedComplex((2, 0), [np.zeros((0, 2))], [np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((0, 0))])


def test_adjoint_orthonormal_case():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    c = G.GradedComplex((2, 3), [m])
    adj = G.adjoints(c)[0]
    assert np.allclose(adj, m.conj().T)


def test_adjoint_hand_example():
    c = two_term(2.0, g0=1.0, g1=4.0)
    assert np.isclose(G.adjoints(c)[0][0, 0], 8.0)


def test_adjoint_pairing_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = random_complex(rng)
        adj = G.adjoints(c)
        for k, d in enumerate(c.diffs):
            if d.size == 0:
                continue
            x = rng.normal(size=c.ranks[k]) + 1j * rng.normal(size=c.ranks[k])
            y = rng.normal(size=c.ranks[k + 1]) + 1j * rng.normal(size=c.ranks[k + 1])
            lhs = (d @ x).conj() @ c.metrics[k + 1] @ y
            rhs = x.conj() @ c.metrics[k] @ (adj[k] @ y)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_laplacian_zero_differential():
    c = G.GradedComplex((2, 3), [np.zeros((3, 2))])
    assert np.allclose(G.laplacian(c, 0), 0)
    assert np.allclose(G.laplacian(c, 1), 0)


def test_laplacian_two_term():
    c = two_term(3.0)
    assert np.isclose(G.laplacian(c, 0)[0, 0], 9.0)
    assert np.isclose(G.laplacian(c, 1)[0, 0], 9.0)


def test_laplacian_selfadjoint_and_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = random_complex(rng)
        for k in range(len(c.ranks)):
            if c.ranks[k] == 0:
                continue
            lap = G.laplacian(c, k)
            g = c.metrics[k]
            assert np.allclose(g @ lap, (g @ lap).conj().T, atol=1e-9)
            assert G.laplacian_spectrum(c, k).min() > -1e-9


def test_kernel_dim_matches_elimination_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = random_complex(rng, n_deg=4, max_piece=2)
        if c.total_rank > 12:
            continue
        dims = G.cohomology_dims(c)
        for k in range(len(c.ranks)):
            rk_out = np.linalg.matrix_rank(c.diffs[k]) if k < len(c.diffs) and c.diffs[k].size else 0
            rk_in = np.linalg.matrix_rank(c.diffs[k - 1]) if k > 0 and c.diffs[k - 1].size else 0
            assert dims[k] == c.ranks[k] - rk_out - rk_in


def test_euler_chars():
    c = two_term(2.0)
    e = G.euler_chars(c)
    assert (e.chi, e.chi_prime) == (0, -1)
    eh = G.euler_chars_cohomology(c)
    assert (eh.chi, eh.chi_prime) == (0, 0)
    c2 = G.GradedComplex((2, 1), [np.zeros((1, 2))])
    e2 = G.euler_chars(c2)
    assert (e2.chi, e2.chi_prime) == (1, -1)


def test_euler_poincare_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = random_complex(rng)
        assert G.euler_chars(c).chi == G.euler_chars_cohomology(c).chi


def test_torsion_zero_differential():
    c = G.GradedComplex((2, 1), [np.zeros((1, 2))])
    assert G.finite_torsion(c) == 0.0


def test_torsion_two_term_closed_form():
    c = two_term(2.0)
    assert np.isclose(G.finite_torsion(c), -np.log(2.0))


def test_torsion_metric_scaling_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = random_complex(rng)
        t0 = G.finite_torsion(c)
        c2 = c.with_metrics([3.7 * g for g in c.metrics])
        assert abs(G.finite_torsion(c2) - t0) <= 1e-10 * max(1.0, abs(t0))


def test_torsion_integral_route_agrees():
    rng = np.random.default_rng(6)
    done = 0
    while done < 12:
        c = random_complex(rng, n_deg=3, max_piece=2, acyclic=True)
        if c.total_rank == 0 or c.total_rank > 8:
            continue
        # keep spectra O(1) so the integral tail is short
        from util import _min_nonzero_eig
        if _min_nonzero_eig(c) < 0.05:
            continue
        closed = G.finite_torsion(c)
        integral = G.finite_torsion_integral(c)
        assert abs(integral - closed) <= 1e-6 * max(1.0, abs(closed))
        done += 1


def test_torsion_integral_requires_acyclic():
    c = G.GradedComplex((1, 1), [np.zeros((1, 1))])
    with pytest.raises(ValueError, match="acyclic"):
        G.finite_torsion_integral(c)


def test_ambiguity_band_raises():
    # one Laplacian eigenvalue placed inside the ambiguity band around the
    # kernel threshold of the top eigenvalue
    lam_top = 4.0
    thr = G.KERNEL_RTOL * lam_top
    bad = np.sqrt(thr)  # eigenvalue thr, inside (0.1 thr, 10 thr)
    d = np.array([[2.0, 0.0], [0.0, bad]], dtype=complex)
    c = G.GradedComplex((2, 2), [d])
    with pytest.raises(G.IndeterminateKernelError):
        G.finite_torsion(c)


def test_complex_json_round_trip():
    # through the JSON text, so the float reprs must carry every bit
    rng = np.random.default_rng(8)
    for kw in ({}, {"n_deg": 4, "max_piece": 2}, {"acyclic": True}):
        c = random_complex(rng, **kw)
        back = G.complex_from_json(json.loads(json.dumps(G.complex_to_json(c))))
        assert back.ranks == c.ranks
        for a, b in zip(back.diffs + back.metrics, c.diffs + c.metrics):
            assert a.shape == b.shape and np.array_equal(a, b)
    empty = G.GradedComplex((0, 1), [np.zeros((1, 0))])
    assert G.complex_from_json(G.complex_to_json(empty)).ranks == (0, 1)


def test_torsion_integrand_counterterms():
    # n = 1 and H = C^0: the supertrace of (N - n/2) h'(X_t) is -1/2 for
    # every t and the counterterm must cancel it exactly (a bare chi'(H)
    # leaves t * integrand at n chi(H)/4 for large t)
    c = G.GradedComplex((1, 0), [np.zeros((0, 1))])
    ts = np.geomspace(1e-6, 1e6, 13)
    assert np.abs(ts * G.torsion_integrand(c, ts)).max() < 1e-12


def test_torsion_integrand_integrates_to_torsion_with_cohomology():
    # with both limits of the supertrace removed the integral converges for
    # complexes with cohomology too and equals the log-determinant route
    rng = np.random.default_rng(10)
    done = 0
    while done < 8:
        c = random_complex(rng, n_deg=3, max_piece=2)
        from util import _min_nonzero_eig
        if not any(G.cohomology_dims(c)) or _min_nonzero_eig(c) < 0.05:
            continue
        val = sum(
            scipy.integrate.quad(lambda t: float(G.torsion_integrand(c, np.array([t]))[0]),
                                 a, b, limit=400)[0]
            for a, b in ((0.0, 1.0), (1.0, 200.0 / _min_nonzero_eig(c)))
        )
        closed = G.finite_torsion(c)
        assert abs(val - closed) <= 1e-6 * max(1.0, abs(closed)), (c.ranks, val, closed)
        done += 1


def test_finite_torsion_integral_solves_each_spectrum_once(monkeypatch):
    h = 2 * np.pi / 6
    d = (np.roll(np.eye(6), 1, axis=1) - np.eye(6)).astype(complex) / h
    d[5, 0] *= np.exp(0.7j)
    expected = G.finite_torsion_integral(G.GradedComplex((6, 6), [d]))
    c = G.GradedComplex((6, 6), [d])  # a fresh complex: spectra are solved on first use
    calls = []
    solve = G._laplacian_eigh

    def counting(diffs, grams, k, vectors=False):
        calls.append(k)
        return solve(diffs, grams, k, vectors)

    monkeypatch.setattr(G, "_laplacian_eigh", counting)
    assert G.finite_torsion_integral(c) == expected
    assert sorted(calls) == [0, 1]
    assert G.finite_torsion_integral(c) == expected
    assert sorted(calls) == [0, 1]


def test_block_diag_matches_scipy():
    rng = np.random.default_rng(9)
    blocks = [
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        np.zeros((0, 0), dtype=complex),
        rng.normal(size=(3, 1)),
        np.zeros((2, 0)),
        np.ones((1, 1), dtype=complex),
    ]
    for sub in (blocks, blocks[:1], blocks[1:2], blocks[2:4]):
        ref = scipy.linalg.block_diag(*sub)
        got = G._block_diag(sub)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    assert G._block_diag([]).shape == (0, 0)
    for _ in range(20):
        c = random_complex(rng)
        assert np.array_equal(c.full_metric(), scipy.linalg.block_diag(*c.metrics))


def test_pencil_broadcasts_over_stacked_metrics():
    # one _pencil call over a stack of metrics of one complex gives the
    # pencils of the complexes with those metrics, slice by slice; d_0
    # broadcasts without a batch axis, d_1 with a batch axis of size 1
    rng = np.random.default_rng(10)
    from torsionlab.acceptance import random_metric

    for _ in range(10):
        c = random_complex(rng, n_deg=3, max_piece=2)
        stacks = [np.stack([random_metric(rng, r) for _ in range(5)]) for r in c.ranks]
        diffs = [c.diffs[0], c.diffs[1][None]]
        for k in range(3):
            got = G._pencil(diffs, stacks, k)
            for s in range(5):
                cs = c.with_metrics([g[s] for g in stacks])
                ref = G._pencil(cs.diffs, cs.metrics, k)
                assert np.allclose(got[s], ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max(initial=1.0))


def test_hermitian_test_is_allclose_written_directly(monkeypatch):
    # the constructor tests |G - G^H| <= 1e-12 + 1e-12 |G^H| entrywise
    # without np.allclose, and refuses exactly the finite metrics that
    # np.allclose(G, G^H, atol=1e-12, rtol=1e-12) refuses: entries moved to
    # just inside and just outside the tolerance
    from torsionlab.acceptance import random_metric

    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", None)
    rng = np.random.default_rng(12)
    outcomes = []
    for _ in range(120):
        r = int(rng.integers(1, 5))
        g = random_metric(rng, r)
        i, j = (int(x) for x in rng.integers(0, r, size=2))
        tol = 1e-12 + 1e-12 * abs(g[j, i])
        for f in (0.5, 0.999999, 1.000001, 2.0):
            g2 = g.copy()
            g2[i, j] += f * tol * (1j if i == j else rng.choice([1.0, -1.0, 1j]))
            want = allclose(g2, g2.conj().T, atol=1e-12, rtol=1e-12)
            try:
                G.GradedComplex((r,), [], [g2])
                got = True
            except G.InvalidMetricError as exc:
                assert "not Hermitian" in str(exc)
                got = False
            assert got == want, (g2, f)
            outcomes.append(got)
    assert any(outcomes) and not all(outcomes)


def test_spectra_solved_once_per_complex(monkeypatch):
    # finite_torsion, finite_torsion_integral, torsion_integrand,
    # cohomology_dims and laplacian_spectrum all read the complex's one
    # spectrum per degree
    c = random_complex(np.random.default_rng(13), n_deg=3, max_piece=2, acyclic=True)
    calls = []
    solve = G._laplacian_eigh

    def counting(diffs, grams, k, vectors=False):
        calls.append(k)
        return solve(diffs, grams, k, vectors)

    monkeypatch.setattr(G, "_laplacian_eigh", counting)
    G.finite_torsion(c)
    G.finite_torsion_integral(c)
    G.torsion_integrand(c, np.array([0.5, 2.0]))
    assert G.cohomology_dims(c) == [0, 0, 0]
    for k in range(3):
        assert G.laplacian_spectrum(c, k) is c.spectra[k]
    assert sorted(calls) == [0, 1, 2]
