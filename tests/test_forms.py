import numpy as np
import pytest
import scipy.linalg

from torsionlab import forms as F
from torsionlab import graded as G
from torsionlab.acceptance import anomaly_family
from torsionlab.acceptance import random_metric
from torsionlab.graded import GradedComplex, euler_chars_cohomology, finite_torsion

from util import (circle_fiber_family, constant_family, edge_data, h_form_expm, h_prime_mat,
                  harmonic_basis, harmonic_connection_form_per_fiber, random_complex,
                  random_flat_family, torsion_form_per_fiber, transgression_expm)


def _x0(fiber):
    """Degree-0 part (v* - v)/2 of the superconnection of one fiber."""
    v = fiber.full_differential()
    g = fiber.full_metric()
    return 0.5 * (np.linalg.solve(g, v.conj().T @ g) - v)


def _h_prime_frechet(x, y):
    """Directional derivative of h_prime_mat at X in direction Y."""
    x2 = x @ x
    s = x @ y + y @ x
    e, f = scipy.linalg.expm_frechet(x2, s)
    return 2.0 * s @ e + (np.eye(len(x)) + 2.0 * x2) @ f


def test_family_validation():
    fib = GradedComplex((1, 1), [np.array([[1.0]])])
    fam = constant_family(fib, 8)
    assert fam.n_samples == 8
    with pytest.raises(ValueError, match="8 base samples"):
        constant_family(fib, 4)
    # grading violation
    bad = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="grading"):
        F.SuperconnectionFamily([fib] * 8, [bad] * 8)
    # flatness violation: conjugate v without moving the transports
    fib2 = GradedComplex((1, 1), [np.array([[2.0]])])
    fibs = [fib if j % 2 == 0 else fib2 for j in range(8)]
    with pytest.raises(ValueError, match="flatness"):
        F.SuperconnectionFamily(fibs, [np.eye(2, dtype=complex)] * 8)


def test_adjoint_superconnection_unitary_case():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1)))
    fib = GradedComplex((1, 1), [np.array([[1.5]], dtype=complex)])
    p = np.kron(np.eye(2), q)  # block scalar unitary on both degrees
    fam = constant_family(fib, 8, transport=p)
    adj = F.adjoint_superconnection(fam)
    v = fib.full_differential()
    assert np.allclose(adj["vstar"][0], v.conj().T)
    assert np.allclose(adj["transports_adjoint"][0], p)
    assert np.allclose(adj["X0"][0], 0.5 * (v.conj().T - v))
    assert np.allclose(adj["W"][0], 0.0)


def test_adjoint_transport_pairing_random():
    rng = np.random.default_rng(1)
    fam = random_flat_family(rng, m=16)
    adj = F.adjoint_superconnection(fam)
    m = fam.n_samples
    for j in range(m):
        g_j = fam.fibers[j].full_metric()
        g_j1 = fam.fibers[(j + 1) % m].full_metric()
        p = fam.transports[j]
        pp = adj["transports_adjoint"][j]
        res = p.conj().T @ g_j1 @ pp - g_j
        assert np.abs(res).max() < 1e-9


def test_h_form_unitary_flat_case():
    # v = 0, unitary transport, constant metric: degree-1 part vanishes
    fib = GradedComplex((2, 2), [np.zeros((2, 2))])
    fam0 = constant_family(fib, 8)
    h0 = F.h_form(fam0)
    assert np.abs(h0.degree1).max() < 1e-14


def test_h_form_discrete_closedness():
    # h is closed, so its period over the base circle is a flat invariant;
    # for unitary holonomy it vanishes. Random flat families reach it to
    # rounding, the anomaly family at second order in dtheta.
    rng = np.random.default_rng(3)
    for m in (16, 32):
        fam = random_flat_family(rng, m=m)
        assert abs(F.h_form(fam).degree1.sum() * fam.dtheta) < 1e-12
    periods = [abs(F.h_form(anomaly_family(m)).degree1.sum()) * 2 * np.pi / m
               for m in (16, 32, 64)]
    assert periods[-1] < 2e-5
    assert periods[0] / periods[1] >= 3.0 and periods[1] / periods[2] >= 3.0


def test_transgression_constant_path_zero():
    fam = anomaly_family(16)
    fib = fam.fibers[0]
    path = lambda l, j: [np.asarray(g) for g in fam.fibers[j].metrics]
    tg = F.transgression(fam, path, n_l=17)
    assert np.abs(tg.degree0).max() < 1e-14


def test_transgression_uniform_scaling_closed_form():
    fam = anomaly_family(16)
    fib = fam.fibers[0]
    consts = constant_family(fib, 16)
    path = lambda l, j: [np.exp(2 * l) * np.asarray(g) for g in fib.metrics]
    tg = F.transgression(consts, path, n_l=33)
    x0 = _x0(fib)
    expected = np.sum(fib.sign_weights() * np.diag(h_prime_mat(x0)))
    assert abs(tg.degree0[0] - expected) < 1e-10


def test_transgression_identity_with_refinement():
    prev = None
    for m in (32, 64):
        fam = anomaly_family(m)

        def path(l, j, fam=fam):
            return [
                (1 - l) * np.eye(g.shape[0], dtype=complex) + l * np.asarray(g)
                for g in fam.fibers[j].metrics
            ]

        tg = F.transgression(fam, path, n_l=65)
        h1 = F.h_form(fam).degree1
        fam_id = F.SuperconnectionFamily(
            [GradedComplex(f.ranks, [d.copy() for d in f.diffs]) for f in fam.fibers],
            [t.copy() for t in fam.transports],
        )
        h0 = F.h_form(fam_id).degree1
        res = np.abs(h1 - h0 - tg.dS()).max()
        assert res <= 1e-6 + 40.0 / m**2
        if prev is not None:
            assert res < prev / 2.5
        prev = res


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _metric(rng, r):
    """Random complex Hermitian positive Gram matrix, Hermitian to the bit."""
    g = random_metric(rng, r)
    return 0.5 * (g + g.conj().T)


def _oracle_families(rng):
    """Random flat families whose rank-0 degree sits at the top, the middle
    and the bottom (seeds 8, 25, 27), the same with complex Hermitian
    metrics drawn per sample, and the anomaly family."""
    fams = [random_flat_family(np.random.default_rng(s), m=8) for s in (8, 25, 27)]
    fams += [
        F.SuperconnectionFamily(
            [f.with_metrics([_metric(rng, r) for r in f.ranks]) for f in fam.fibers],
            fam.transports)
        for fam in fams
    ]
    return fams + [anomaly_family(16)]


def test_h_form_matches_expm_oracle():
    for fam in _oracle_families(np.random.default_rng(11)):
        for t_scale in (None, 1e-3):
            want = h_form_expm(fam, t_scale=t_scale)
            assert _rel(F.h_form(fam, t_scale=t_scale).degree1, want) <= 1e-12


def test_transgression_matches_expm_oracle():
    # straight paths from each sample's metrics to random complex Hermitian
    # ones, also under the canonical rescaling tau^{k - n/2}; the path with
    # an exact 'derivative' attribute agrees with the oracle and, to the
    # centered difference's rounding, with the difference route
    rng = np.random.default_rng(12)
    for fam in _oracle_families(rng):
        ends = [[_metric(rng, r) for r in fam.ranks] for _ in range(fam.n_samples)]
        n = len(fam.ranks) - 1
        for tau in (1.0, 1e-2):
            def path(l, j, fam=fam, ends=ends, tau=tau):
                return [tau ** (k - 0.5 * n) * ((1 - l) * g + l * h)
                        for k, (g, h) in enumerate(zip(fam.fibers[j].metrics, ends[j]))]

            def exact(l, j, fam=fam, ends=ends, tau=tau):
                return [tau ** (k - 0.5 * n) * (h - g)
                        for k, (g, h) in enumerate(zip(fam.fibers[j].metrics, ends[j]))]

            by_diff = F.transgression(fam, path, n_l=17).degree0
            assert _rel(by_diff, transgression_expm(fam, path, n_l=17)) <= 1e-12
            path.derivative = exact
            by_deriv = F.transgression(fam, path, n_l=17).degree0
            assert _rel(by_deriv, transgression_expm(fam, path, n_l=17)) <= 1e-12
            assert _rel(by_diff, by_deriv) <= 1e-8


def test_transgression_positivity_guard():
    # n_l=17 puts the nodes at l = i/16; the first path is indefinite on
    # sample 3 from l = 0.6 on, so first at the node 0.625; the second only
    # at the forward difference point 0.5 + 1e-6 of the node 0.5
    fam = anomaly_family(16)

    def interior(l, j):
        s = 0.6 - l if j == 3 else 1.0
        return [s * np.asarray(g) for g in fam.fibers[j].metrics]

    def difference_point(l, j):
        s = -1.0 if l == 0.5 + 1e-6 else 1.0
        return [s * np.asarray(g) for g in fam.fibers[j].metrics]

    with pytest.raises(ValueError, match=r"positive cone at l=0\.625$"):
        F.transgression(fam, interior, n_l=17)
    with pytest.raises(ValueError, match=r"positive cone at l=0\.500001$"):
        F.transgression(fam, difference_point, n_l=17)


def test_transgression_calls_path_once_per_point():
    # each sample's path is called at the n_l nodes and at the difference
    # points l +- 1e-6 inside [0, 1]: 3 n_l - 2 distinct l, none twice
    fam = anomaly_family(16)
    calls = {}

    def path(l, j):
        calls.setdefault(j, []).append(l)
        return [(1 - l) * np.eye(len(g)) + l * np.asarray(g) for g in fam.fibers[j].metrics]

    F.transgression(fam, path, n_l=17)
    assert sorted(calls) == list(range(16))
    for ls in calls.values():
        assert len(ls) == len(set(ls)) == 3 * 17 - 2
        assert (min(ls), max(ls)) == (0.0, 1.0)


def test_parity_zero_parts_vanish():
    # the parts of the forms that are not computed are exactly zero: for
    # odd X and even Y, Dh'(X)[Y] has a zero block diagonal
    rng = np.random.default_rng(6)
    for ranks in ((1, 1), (1, 2, 1), (2, 3, 1), (2, 1, 3, 2)):
        n = sum(ranks)
        deg = np.repeat(np.arange(len(ranks)), ranks)
        shift = np.abs(deg[:, None] - deg[None, :])
        z = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        x = np.where(shift == 1, 0.5 * z[0], 0.0)  # odd: degree +-1 blocks
        y = np.where(shift == 0, z[1], 0.0)  # even: diagonal blocks
        frech = _h_prime_frechet(x, y)
        assert not frech[shift == 0].any()
        eps = 1e-5
        fd = (h_prime_mat(x + eps * y) - h_prime_mat(x - eps * y)) / (2 * eps)
        assert np.abs(fd - frech).max() <= 1e-7 * np.abs(frech).max()
    # on families: Tr_s h(X0) per sample (the h-form in degree 0) and the
    # degree-1 torsion-form integrand Tr[(N - n/2) Dh'(X0_t)[sigma W]] per
    # edge are exactly zero
    for fam in (random_flat_family(rng, m=16), anomaly_family(16)):
        fib0 = fam.fibers[0]
        sign = fib0.sign_weights()
        kvec = fib0.degree_weights() - 0.5 * fib0.top_degree
        for j in range(fam.n_samples):
            x0 = _x0(fam.fibers[j])
            assert not np.sum(sign * np.diag(x0 @ scipy.linalg.expm(x0 @ x0)))
            g_mid, v, w = edge_data(fam, j)
            vstar_mid = np.linalg.solve(g_mid, v.conj().T @ g_mid)
            for t in (1e-3, 1.0, 80.0):
                frech = _h_prime_frechet(0.5 * (t * vstar_mid - v), sign[:, None] * w)
                assert not np.sum(kvec * np.diag(frech))


def test_torsion_form_point_base_matches_finite_torsion():
    rng = np.random.default_rng(4)
    done = 0
    while done < 3:
        fib = random_complex(rng, n_deg=3, max_piece=2, acyclic=True)
        if fib.total_rank == 0 or fib.total_rank > 6:
            continue
        from util import _min_nonzero_eig

        if _min_nonzero_eig(fib) < 0.5:
            continue
        fam = constant_family(fib, 8)
        vals = [
            F.torsion_form_TL(fam, tau, t_max=200.0, n_t=3000).degree0[0].real
            for tau in (4e-4, 2e-4)
        ]
        rich = 2 * vals[1] - vals[0]
        assert abs(rich - finite_torsion(fib)) <= 1e-4
        done += 1


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_batched_eigensolves_match_per_fiber_routes():
    # one eigensolve per degree over all fibers gives the bits of the
    # fiber-by-fiber routes: acyclic fibers (anomaly family), a rank-0
    # degree with H^0 != 0, and a circle fiber with a varying harmonic metric
    prof = lambda th: (np.exp(0.25 * np.sin(th)), 1.0)
    rank0 = random_flat_family(np.random.default_rng(8), m=16)
    assert 0 in rank0.ranks
    cases = [(anomaly_family(32), 80.0, False), (anomaly_family(64), 80.0, False),
             (rank0, 80.0, True),
             (circle_fiber_family(32, 10, harmonic_scale_profile=prof), 150.0, True)]
    for fam, t_max, harmonic in cases:
        assert any(b.size for b in harmonic_basis(fam.fibers[0])) == harmonic
        tl = F.torsion_form_TL(fam, 1e-3, t_max=t_max, n_t=150)
        assert _same_bits(tl.degree0, torsion_form_per_fiber(fam, 1e-3, t_max=t_max, n_t=150))
        gm = harmonic_connection_form_per_fiber(fam)
        assert _same_bits(F.harmonic_connection_form(fam), gm)
        local = F.h_form(fam, t_scale=1e-3).degree1
        out = F.anomaly_check(fam, 1e-3, t_max=t_max, n_t=150)
        assert _same_bits(out["residual"], tl.dS() - (local - gm if harmonic else local))
        out = F.grr_residual(fam, 1e-3, t_max=t_max, n_t=150)
        gm_or_zero = gm if harmonic else np.zeros(fam.n_samples)
        assert _same_bits(out["residual"], tl.dS() + gm_or_zero)


def test_harmonic_connection_form_reads_kernel_dims_once(monkeypatch):
    # flat families have one cohomology: dim H^k comes from the fiber-0
    # spectrum, one _split_spectrum call per degree, not one per fiber
    prof = lambda th: (np.exp(0.25 * np.sin(th)), 1.0)
    fam = circle_fiber_family(32, 10, harmonic_scale_profile=prof)
    gm = harmonic_connection_form_per_fiber(fam)
    calls = []
    split = G._split_spectrum

    def counting(spec, *args, **kwargs):
        calls.append(spec.shape)
        return split(spec, *args, **kwargs)

    monkeypatch.setattr(G, "_split_spectrum", counting)
    assert _same_bits(F.harmonic_connection_form(fam), gm)
    assert calls == [(10,), (10,)]


def test_torsion_form_one_eigensolve_per_degree(monkeypatch):
    calls = []
    solve = scipy.linalg.eigh

    def counting(a, b, **kwargs):
        calls.append(a.shape)
        return solve(a, b, **kwargs)

    for m in (16, 64):
        fam = anomaly_family(m)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg, "eigh", counting)
            F.torsion_form_TL(fam, 1e-3)
        assert calls == [(m, 1, 1), (m, 2, 2), (m, 1, 1)]


def test_torsion_form_tail_guard():
    fib = GradedComplex((1, 1), [np.array([[0.05]])])  # tiny spectrum
    fam = constant_family(fib, 8)
    with pytest.raises(F.TailNotConvergedError):
        F.torsion_form_TL(fam, tau=1e-3, t_max=20.0, n_t=100)


def test_torsion_form_tail_with_cohomology():
    # fibers with n chi(H) != 0: the supertrace tends to chi'(H) - n/2 chi(H)
    # at large t, which the counterterm must cancel for the tail to decay
    for seed in range(3):
        fam = random_flat_family(np.random.default_rng(seed), m=16)
        fib = fam.fibers[0]
        assert fib.top_degree * euler_chars_cohomology(fib).chi != 0
        tl = F.torsion_form_TL(fam, tau=1e-3, t_max=2000.0, n_t=200)
        assert np.isfinite(tl.degree0).all()
        out = F.anomaly_check(fam, tau=1e-3, t_max=80.0, n_t=200)
        assert out["max_residual"] <= 5e-5


def test_anomaly_constant_family_zero():
    fib = GradedComplex((1, 2, 1),
                        [np.array([[1.0], [1.0]]), np.array([[1.0, -1.0]])])
    fam = constant_family(fib, 8)
    out = F.anomaly_check(fam, tau=1e-3, t_max=80.0, n_t=120)
    assert out["max_residual"] < 1e-10


def test_anomaly_acyclic_family_converges():
    out64 = F.anomaly_check(anomaly_family(64), tau=1e-3, t_max=80.0, n_t=200)
    assert out64["max_residual"] <= 1e-4
    out128 = F.anomaly_check(anomaly_family(128), tau=1e-3, t_max=80.0, n_t=400)
    assert out64["max_residual"] / out128["max_residual"] >= 3.0


def test_metric_change_formula_cross_module():
    # finite_torsion(h1) - finite_torsion(h0) equals the degree-0
    # transgression on the constant family, for acyclic fibers
    rng = np.random.default_rng(5)
    done = 0
    while done < 3:
        fib = random_complex(rng, n_deg=3, max_piece=2, acyclic=True)
        if fib.total_rank == 0 or fib.total_rank > 6:
            continue
        from util import _min_nonzero_eig

        if _min_nonzero_eig(fib) < 0.5:
            continue
        fib0 = fib.with_metrics([np.eye(r, dtype=complex) for r in fib.ranks])
        fam = constant_family(fib0, 8)
        n = fib.top_degree

        def path_at(tau, fib=fib, n=n):
            def path(l, j):
                return [
                    tau ** (k - 0.5 * n)
                    * ((1 - l) * np.eye(g.shape[0], dtype=complex) + l * np.asarray(g))
                    for k, g in enumerate(fib.metrics)
                ]
            return path

        # the anomaly identity's metric-variation form pairs the torsion
        # difference with the rescaled metric path; extrapolate to tau -> 0
        t1 = F.transgression(fam, path_at(2e-4), n_l=129).degree0[0].real
        t2 = F.transgression(fam, path_at(1e-4), n_l=129).degree0[0].real
        rich = 2 * t2 - t1
        delta = finite_torsion(fib) - finite_torsion(fib0)
        assert abs(rich - delta) < 1e-6
        done += 1


def test_anomaly_with_harmonic_term():
    # family with nonzero cohomology and varying harmonic metric: the
    # Gauss-Manin term enters the identity and the residual stays tiny
    prof = lambda th: (np.exp(0.25 * np.sin(th)), 1.0)
    fam = circle_fiber_family(32, 10, harmonic_scale_profile=prof)
    out = F.anomaly_check(fam, tau=1e-3, t_max=150.0, n_t=150)
    assert out["max_residual"] <= 1e-8


def test_grr_trivial_cases():
    fam = circle_fiber_family(16, 10)
    r = F.grr_residual(fam, tau=1e-3, t_max=150.0, n_t=150)
    assert r["max_residual"] < 1e-12
    fam = circle_fiber_family(16, 10, fiber_twist=0.7)
    r = F.grr_residual(fam, tau=1e-3, t_max=8000.0, n_t=400)
    assert r["max_residual"] < 1e-12


def test_grr_varying_harmonic_metric():
    prof = lambda th: (np.exp(0.3 * np.sin(th)),) * 2
    fam = circle_fiber_family(64, 10, base_twist=1.3, harmonic_scale_profile=prof)
    r = F.grr_residual(fam, tau=1e-3, t_max=150.0, n_t=200)
    assert r["max_residual"] <= 1e-3


def test_grr_asymmetric_variation_matches_local_term():
    # the identity d T = local - h(GM): with only the degree-0 harmonic
    # metric varying, the residual must equal the reported local term
    prof = lambda th: (np.exp(0.3 * np.sin(th)), 1.0)
    fam = circle_fiber_family(32, 10, harmonic_scale_profile=prof)
    r = F.grr_residual(fam, tau=1e-3, t_max=150.0, n_t=150)
    assert r["max_local_term"] > 0.05  # genuinely nonzero local term
    assert np.abs(r["residual"] - r["local_term"]).max() < 1e-8


def _per_edge_validation_error(fibers, transports):
    """The first error of the per-edge family validation: shape and grading
    transport by transport, then flatness edge by edge (None if valid)."""
    m, ranks = len(fibers), fibers[0].ranks
    off, n = fibers[0].offsets(), fibers[0].total_rank
    ps = [np.asarray(p, dtype=complex) for p in transports]
    for j, p in enumerate(ps):
        if p.shape != (n, n):
            return f"transport {j} has wrong shape {p.shape}"
        for a in range(len(ranks)):
            for b in range(len(ranks)):
                blk = p[off[a] : off[a + 1], off[b] : off[b + 1]]
                if a != b and blk.size and np.abs(blk).max() > 1e-12:
                    return f"transport {j} does not preserve grading"
    for j in range(m):
        v_j, v_next = fibers[j].full_differential(), fibers[(j + 1) % m].full_differential()
        res = np.abs(ps[j] @ v_j - v_next @ ps[j])
        if res.size and res.max() > 1e-9:
            return f"flatness residual {res.max():.3e} on edge {j}"
    return None


def test_batched_family_validation_names_the_first_failing_edge(monkeypatch):
    fam = anomaly_family(16)

    def leak(j):  # an entry from degree 1 into degree 0
        q = np.array(fam.transports[j])
        q[0, 1] = 1e-9
        return q

    def unflat(j):  # grading kept, flatness broken: degree 0 alone rescaled
        q = np.array(fam.transports[j])
        q[0, 0] *= 1.1
        return q

    cases = [{5: leak(5)}, {9: leak(9), 3: unflat(3)}, {3: unflat(3), 11: unflat(11)},
             {7: np.eye(3), 4: leak(4)}, {2: np.eye(3), 4: leak(4)}, {0: unflat(0)},
             {15: unflat(15)}, {6: np.eye(4)[:, :3], 1: unflat(1)}]
    for case in cases:
        ps = [case.get(j, t) for j, t in enumerate(fam.transports)]
        want = _per_edge_validation_error(fam.fibers, ps)
        assert want is not None
        with pytest.raises(ValueError) as info:
            F.SuperconnectionFamily(fam.fibers, ps)
        assert str(info.value) == want
    # each fiber's differential is built once, not once per edge end
    calls = []
    full = G.GradedComplex.full_differential
    monkeypatch.setattr(G.GradedComplex, "full_differential",
                        lambda self: calls.append(1) or full(self))
    F.SuperconnectionFamily(fam.fibers, fam.transports)
    assert len(calls) == fam.n_samples


def test_transgression_passes_floats_to_path_callbacks():
    # metric_path and its derivative get plain floats, and degree0 has the
    # bits of the same callbacks fed numpy float64 nodes
    fam = anomaly_family(8)
    types = []

    def metric(l, j):
        types.append(type(l))
        return [(1 - l) * np.eye(len(g)) + l * g for g in fam.fibers[j].metrics]

    def derivative(l, j):
        types.append(type(l))
        return [g - np.eye(len(g)) for g in fam.fibers[j].metrics]

    def float64(fn):
        return lambda l, j: fn(np.float64(l), j)

    def exact(l, j):
        return metric(l, j)

    exact.derivative = derivative
    exact64 = float64(metric)
    exact64.derivative = float64(derivative)
    for path, ref in ((metric, float64(metric)), (exact, exact64)):
        types.clear()
        got = F.transgression(fam, path, n_l=17).degree0
        assert set(types) == {float}
        assert _same_bits(got, F.transgression(fam, ref, n_l=17).degree0)
