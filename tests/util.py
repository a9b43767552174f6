"""Shared generators for test complexes and families."""

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg as spla

from torsionlab import birthdeath
from torsionlab.acceptance import random_complex
from torsionlab.graded import (GradedComplex, _pencil, _spectral_integrand, _split_spectrum,
                               euler_chars, euler_chars_cohomology, laplacian_spectrum)
from torsionlab.forms import SuperconnectionFamily, _trapezoid_weights_log
from torsionlab.witten1d import (SpectrumResult, _checked_residuals, _factor_operator,
                                 _padded_spectrum, assemble, assemble_factor)


def random_flat_family(rng, m=16):
    """Random flat family: a random acyclic-ish fiber conjugated around the
    circle by exp(theta K) with exp(2 pi K) commuting with v (K built from
    integer-spaced spectra), plus random smooth periodic metrics.
    """
    fib = random_complex(rng, n_deg=3, max_piece=2, identity_metrics=True)
    n_tot = fib.total_rank
    off = fib.offsets()
    blocks = []
    for k, r in enumerate(fib.ranks):
        if r == 0:
            blocks.append(np.zeros((0, 0), dtype=complex))
            continue
        q = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        q, _ = np.linalg.qr(q)
        ints = rng.integers(-1, 2, size=r).astype(float)
        blocks.append(q @ np.diag(1j * ints) @ q.conj().T)
    gen = scipy.linalg.block_diag(*blocks) if n_tot else np.zeros((0, 0))
    # exp(2 pi gen) has integer spectrum per block: commutes with everything
    # only if blocks are scalar; enforce by using a single integer multiple
    # of the identity per degree instead.
    gen = scipy.linalg.block_diag(
        *[1j * float(rng.integers(-1, 2)) * np.eye(r) for r in fib.ranks]
    )
    phase = 1j * 0.37

    def rot(th):
        return scipy.linalg.expm(th * (gen + phase * np.eye(n_tot)))

    dth = 2 * np.pi / m
    v0 = fib.full_differential()
    fibers, transports = [], []
    for j in range(m):
        th = j * dth
        u = rot(th)
        v = u @ v0 @ np.linalg.inv(u)
        diffs = [v[off[k + 1] : off[k + 2], off[k] : off[k + 1]] for k in range(len(fib.ranks) - 1)]
        mets = []
        for k, r in enumerate(fib.ranks):
            if r == 0:
                mets.append(np.zeros((0, 0), dtype=complex))
                continue
            a = 0.1 * np.sin(th + k)
            base = np.eye(r, dtype=complex) * (1.0 + a)
            mets.append(base)
        fibers.append(GradedComplex(fib.ranks, diffs, mets))
        transports.append(rot(th + dth) @ np.linalg.inv(u))
    return SuperconnectionFamily(fibers, transports)


# ---------------------------------------------------------------------------
# fixture families: constant fibers and the discretized circle fiber
# ---------------------------------------------------------------------------

def constant_family(fiber: GradedComplex, m: int, transport=None):
    """Family with m copies of one fiber and a fixed transport."""
    if transport is None:
        transport = np.eye(fiber.total_rank, dtype=complex)
    fibers = [
        GradedComplex(fiber.ranks, [d.copy() for d in fiber.diffs],
                      [g.copy() for g in fiber.metrics])
        for _ in range(m)
    ]
    return SuperconnectionFamily(fibers, [np.array(transport, dtype=complex)] * m)


def circle_fiber_complex(n_fiber, twist=0.0, harmonic_scale=(1.0, 1.0)):
    """De Rham complex of a discretized circle fiber as a graded complex.

    n_fiber nodes; the wrap-around edge of the difference operator carries
    e^{i twist}. harmonic_scale = (c0, c1) rescales the metric on the
    identity-metric harmonic representatives in degrees 0 and 1 (only
    meaningful for twist = 0 mod 2 pi, where harmonics exist).
    """
    nf = int(n_fiber)
    h = 2.0 * np.pi / nf
    d = np.zeros((nf, nf), dtype=complex)
    for i in range(nf):
        d[i, i] = -1.0 / h
        d[i, (i + 1) % nf] = (np.exp(1j * twist) if i == nf - 1 else 1.0) / h
    g0 = np.eye(nf, dtype=complex)
    g1 = np.eye(nf, dtype=complex)
    c0, c1 = harmonic_scale
    if abs(np.exp(1j * twist) - 1.0) < 1e-12:
        e0 = np.full(nf, 1.0 / np.sqrt(nf), dtype=complex)  # constants
        g0 = g0 + (c0 - 1.0) * np.outer(e0, e0.conj())
        # harmonic 1-cochain for the identity metric: kernel of d^H
        w, vecs = np.linalg.eigh(d @ d.conj().T)
        e1 = vecs[:, 0]
        g1 = g1 + (c1 - 1.0) * np.outer(e1, e1.conj())
    return GradedComplex((nf, nf), [d], [g0, g1])


def circle_fiber_family(m, n_fiber, fiber_twist=0.0, base_twist=0.0,
                        harmonic_scale_profile=None):
    """Trivial circle-fiber family over an m-sample base circle.

    harmonic_scale_profile(theta) -> (c0, c1) varies the metric on the
    harmonic part of the fiber complex with the base point; base_twist is
    a unitary scalar holonomy distributed evenly over the edges.
    """
    fibers = []
    for j in range(m):
        theta = 2.0 * np.pi * j / m
        hs = (1.0, 1.0) if harmonic_scale_profile is None else harmonic_scale_profile(theta)
        fibers.append(circle_fiber_complex(n_fiber, twist=fiber_twist, harmonic_scale=hs))
    p = np.exp(1j * base_twist / m) * np.eye(2 * n_fiber, dtype=complex)
    return SuperconnectionFamily(fibers, [p.copy() for _ in range(m)])


def _min_nonzero_eig(c):
    vals = []
    for k in range(len(c.ranks)):
        if c.ranks[k] == 0:
            continue
        nz = _split_spectrum(laplacian_spectrum(c, k), check_band=False)[1]
        if nz.size:
            vals.append(nz.min())
    return min(vals) if vals else 1.0


# ---------------------------------------------------------------------------
# the matrix-exponential route to the h-form and the transgression: an
# oracle for the spectral kernel of torsionlab.forms
# ---------------------------------------------------------------------------

def h_prime_mat(x):
    """(1 + 2 X^2) exp(X^2) for a square matrix X."""
    x2 = x @ x
    return (np.eye(len(x)) + 2.0 * x2) @ scipy.linalg.expm(x2)


def x0_of(v, g):
    """X0 = (v* - v)/2 for the differential v and Gram matrix g."""
    return 0.5 * (np.linalg.solve(g, v.conj().T @ g) - v)


def edge_data(fam, j, t_scale=None):
    """Midpoint metric, differential and W on edge j, in the frame at j,
    on the direct sum of all degrees; t_scale rescales degree k of both
    endpoint metrics by t^{k - n/2}."""
    fib = fam.fibers[j]
    g_j = fib.full_metric()
    p = fam.transports[j]
    g_par = p.conj().T @ fam.fibers[(j + 1) % fam.n_samples].full_metric() @ p
    if t_scale is not None:
        s = np.diag(np.power(float(t_scale), fib.degree_weights() - 0.5 * fib.top_degree))
        g_j, g_par = s @ g_j, s @ g_par
    g_mid = 0.5 * (g_j + g_par)
    w = np.linalg.solve(g_mid, (g_par - g_j) / (2.0 * fam.dtheta))
    return g_mid, fib.full_differential(), w


def h_form_expm(fam, t_scale=None):
    """degree1[j] = Tr_s[W h'(X0)] at the midpoint of edge j, by expm."""
    sign = fam.fibers[0].sign_weights()
    out = np.zeros(fam.n_samples, dtype=complex)
    for j in range(fam.n_samples):
        g_mid, v, w = edge_data(fam, j, t_scale=t_scale)
        out[j] = np.sum(sign * np.diag(w @ h_prime_mat(x0_of(v, g_mid))))
    return out


def transgression_expm(fam, metric_path, n_l=33):
    """degree0[j] = int_0^1 Tr_s[(1/2) G^{-1} dG/dl h'(X0_l)] dl by expm,
    with the nodes, Simpson weights and derivative rule of
    forms.transgression."""
    n_l += 1 - n_l % 2
    ls = np.linspace(0.0, 1.0, n_l)
    simp = np.ones(n_l)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    simp *= (ls[1] - ls[0]) / 3.0
    sign = fam.fibers[0].sign_weights()
    deriv = getattr(metric_path, "derivative", None)

    def full(f, l, j):
        return scipy.linalg.block_diag(*[np.asarray(g, dtype=complex) for g in f(l, j)])

    out = np.zeros(fam.n_samples, dtype=complex)
    for j in range(fam.n_samples):
        v = fam.fibers[j].full_differential()
        for wl, l in zip(simp, ls):
            g = full(metric_path, l, j)
            if deriv is not None:
                gdot = full(deriv, l, j)
            else:
                l0, l1 = max(0.0, l - 1e-6), min(1.0, l + 1e-6)
                gdot = (full(metric_path, l1, j) - full(metric_path, l0, j)) / (l1 - l0)
            c = 0.5 * np.linalg.solve(g, gdot)
            out[j] += wl * np.sum(sign * np.diag(c @ h_prime_mat(x0_of(v, g))))
    return out


# ---------------------------------------------------------------------------
# the fiber-by-fiber routes to the torsion form and the Gauss-Manin term: an
# oracle for the batched Laplacian eigensolves of torsionlab.forms
# ---------------------------------------------------------------------------

def torsion_form_per_fiber(fam, tau, t_max=80.0, n_t=200):
    """degree0 of forms.torsion_form_TL from one eigensolve per fiber and
    degree and one integrand call per fiber."""
    e, eh = euler_chars(fam.fibers[0]), euler_chars_cohomology(fam.fibers[0])
    ts = np.geomspace(tau, t_max, n_t)
    deg0_int = np.zeros((fam.n_samples, n_t))
    for j, fib in enumerate(fam.fibers):
        spectra = [laplacian_spectrum(fib, k) for k in range(len(fib.ranks))]
        deg0_int[j] = _spectral_integrand(spectra, e, eh, ts)
    return (deg0_int * (_trapezoid_weights_log(ts) * ts)[None, :]).sum(axis=1).astype(complex)


def harmonic_basis(fib):
    """Per degree: G-orthonormal basis of ker(Laplacian_k) of one fiber,
    from its own eigensolve (eigh with a Gram matrix returns G-orthonormal
    vectors)."""
    per_deg = []
    for k, r in enumerate(fib.ranks):
        if r == 0:
            per_deg.append(np.zeros((0, 0), dtype=complex))
            continue
        w, vecs = scipy.linalg.eigh(_pencil(fib.diffs, fib.metrics, k), fib.metrics[k])
        ker = r - _split_spectrum(w, check_band=False)[1].size
        per_deg.append(vecs[:, :ker])
    return per_deg


def harmonic_connection_form_per_fiber(fam):
    """forms.harmonic_connection_form from the bases of harmonic_basis."""
    m = fam.n_samples
    bases = [harmonic_basis(fib) for fib in fam.fibers]
    off = fam.fibers[0].offsets()
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        jn = (j + 1) % m
        acc = 0.0 + 0.0j
        for k in range(len(fam.ranks)):
            b_j, b_jn = bases[j][k], bases[jn][k]
            if b_j.size == 0 or b_jn.size == 0:
                continue
            p_blk = fam.transports[j][off[k] : off[k + 1], off[k] : off[k + 1]]
            ph = b_jn.conj().T @ fam.fibers[jn].metrics[k] @ (p_blk @ b_j)
            phi = ph.conj().T @ ph
            eye = np.eye(phi.shape[0])
            w_h = np.linalg.solve(0.5 * (eye + phi), (phi - eye)) / (2.0 * fam.dtheta)
            acc += (-1.0) ** k * np.trace(w_h)
        out[j] = acc
    return out


# ---------------------------------------------------------------------------
# the band route of the Witten factor: eig_banded (LAPACK sbevx) on the
# Golub-Kahan matrix, an oracle for the stebz path of the bidiagonal factor
# and, after reverse Cuthill-McKee, for the secular solve of the cyclic one
# in torsionlab.witten1d._factor_svals
# ---------------------------------------------------------------------------

def golub_kahan_band(b):
    """Lower band storage of the Golub-Kahan matrix [[0, B], [B^H, 0]]: for
    a bidiagonal B the zero-diagonal tridiagonal of B's two diagonals
    interleaved in B's own order (bandwidth 1), for a cyclic one its
    reverse Cuthill-McKee reordering (bandwidth 2)."""
    rows, cols = b.shape
    if rows != cols:
        band = np.zeros((2, rows + cols))
        band[1, 0:-1:2], band[1, 1:-1:2] = b.diagonal(), b.diagonal(1 if rows < cols else -1)
        return band
    gk = sp.bmat([[None, b], [b.conj().T, None]], format="csr")
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(gk, symmetric_mode=True)
    gk = gk[perm][:, perm].tocoo()
    lower = gk.row >= gk.col
    i, j = gk.row[lower], gk.col[lower]
    band = np.zeros((int((i - j).max()) + 1, gk.shape[0]), dtype=gk.dtype)
    band[i - j, j] = gk.data[lower]
    return band


def _band_windows(b, want, floor, band=None):
    """Index-selected eig_banded windows of `want` lowest singular values,
    widened until one passes the floor, as witten1d._factor_svals takes
    them on a bidiagonal factor."""
    band = golub_kahan_band(b) if band is None else band
    lo, rank = max(b.shape), min(b.shape)
    while True:
        svals = np.sort(np.abs(scipy.linalg.eig_banded(
            band, lower=True, eigvals_only=True, select="i", select_range=(lo, lo + want - 1))))
        if want == rank or svals[-1] > floor:
            return svals, floor
        want = min(rank, 2 * want)


def factor_svals_band_oracle(b, want):
    """witten1d._factor_svals by band bisection for every factor, circles
    included: the route of the cyclic factor before the secular solve,
    with the same floor 64 eps * max(||GK||_inf, 1)."""
    norm = max(spla.norm(b, 1), spla.norm(b, np.inf))
    return _band_windows(b, want, 64 * np.finfo(float).eps * max(norm, 1.0))


def band_sigma_max(band):
    """The largest eigenvalue of the Golub-Kahan band, sigma_max of B, by
    one index-selected eig_banded solve."""
    n = band.shape[1]
    return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, select="i",
                                   select_range=(n - 1, n - 1))[0]


def factor_svals_exact_floor(b, want):
    """witten1d._factor_svals by band bisection with the floor
    64 eps * max(sigma_max, 1), sigma_max taken by a second index-selected
    eig_banded solve of the Golub-Kahan band; the window rule is the same."""
    band = golub_kahan_band(b)
    return _band_windows(b, want, 64 * np.finfo(float).eps * max(band_sigma_max(band), 1.0),
                         band)


# ---------------------------------------------------------------------------
# eigsh's own SuperLU shift-invert of the Witten factor Gram operators: an
# oracle for the tridiagonal LDL^T OPinv of torsionlab.witten1d
# ---------------------------------------------------------------------------

def _factor_splu_eigsh(b, form_degree, nev, vectors):
    """The factor Gram operator op, its clamp, and the eigsh pairs (or
    values) of op nearest the shift, at most dim - 2 of them, with
    op - shift I factored by SuperLU."""
    op, shift, clamp, _ = _factor_operator(b, form_degree)
    n = op.shape[0]
    return op, clamp, spla.eigsh(op.tocsc(), k=min(n - 2, nev), sigma=shift, which="LM",
                                 v0=np.full(n, 1.0 / np.sqrt(n)), return_eigenvectors=vectors)


def factor_spectra_splu_oracle(problem, k=None):
    """witten1d._factor_spectra by its sparse route at every rank, with
    eigsh factoring op - shift I by SuperLU instead of taking the LDL^T
    OPinv: the route of factors of rank > dense_limit before that solve."""
    b = assemble_factor(problem)
    rows, cols = b.shape
    rank = min(rows, cols)
    _, clamp, lam = _factor_splu_eigsh(b, 0 if rows >= cols else 1, (k or 8) + 2, False)
    lam = np.sort(lam)
    lam[np.abs(lam) < clamp] = 0.0
    n_zero = int((lam == 0.0).sum())
    return tuple(_padded_spectrum(lam, n_zero, dim, rank, k) for dim in (cols, rows))


def factor_eigenpairs_splu_oracle(problem, k):
    """witten1d.factor_eigenpairs with eigsh factoring op - shift I by
    SuperLU, its clamp and its residual gate."""
    op, clamp, (w, vecs) = _factor_splu_eigsh(assemble_factor(problem), problem.form_degree,
                                              k + 2, True)
    order = np.argsort(w)[:k]
    w, vecs = w[order], vecs[:, order]
    w[np.abs(w) < clamp] = 0.0
    _checked_residuals(op, w, vecs)
    return SpectrumResult(eigenvalues=w, eigenvectors=vecs,
                          kernel_dim=int((w == 0.0).sum()))


# ---------------------------------------------------------------------------
# the dense route of the assembled Witten operator: an oracle for the
# shift-invert Lanczos of torsionlab.witten1d.spectrum
# ---------------------------------------------------------------------------

def spectrum_dense_oracle(problem, k, vectors=True):
    """witten1d.spectrum from every eigenpair of the dense assembled
    operator (scipy.linalg.eigh), cut to the lowest k, with spectrum()'s
    residual gate and kernel rule: the route it took up to n = 1200.
    vectors=False skips the eigenvectors and the gate."""
    mat = assemble(problem)
    if vectors:
        w, vecs = scipy.linalg.eigh(mat.toarray())
        w, vecs = w[:k], vecs[:, :k]
        _checked_residuals(mat, w, vecs)
    else:
        w, vecs = scipy.linalg.eigh(mat.toarray(), eigvals_only=True)[:k], None
    kernel_tol = max(1e-8, 2e-6 * max(np.abs(w).max(), 1.0))
    return SpectrumResult(eigenvalues=w, eigenvectors=vecs,
                          kernel_dim=int((w < kernel_tol).sum()))


# ---------------------------------------------------------------------------
# the numerically differentiated zeta sum: an oracle for the Hurwitz zeta
# derivative of torsionlab.morse.zeta_log_det_twisted_circle
# ---------------------------------------------------------------------------

def zeta_log_det_twisted_circle_diff(theta):
    """morse.zeta_log_det_twisted_circle by mpmath.diff of
    zeta_H(2s, a) + zeta_H(2s, 1 - a) at s = 0, at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf((theta / (2.0 * np.pi)) % 1.0)

        def zsum(s):
            return mpmath.zeta(2 * s, a) + mpmath.zeta(2 * s, 1 - a)

        return float(-mpmath.diff(zsum, 0))


# ---------------------------------------------------------------------------
# the profile-by-profile model kernel: an oracle for the merged-knot sweep
# and the upper-triangle Hessian of torsionlab.birthdeath._model
# ---------------------------------------------------------------------------

def _model_oracle(p, prof, us, with_hess=True):
    """birthdeath._model with one PiecewisePoly.derivs call per profile and
    the Hessian built on full (m, n+1, n+1) arrays."""
    us = np.asarray(us)
    dt = us.dtype if us.dtype == np.longdouble else np.dtype(float)
    us = us.astype(dt)
    m, dim = us.shape
    y, A = dt.type(p.y), dt.type(p.A)
    sgn = np.ones(dim, dtype=dt)
    sgn[1 : p.i + 1] = -1.0
    sgn[0] = 0.0
    u0, u1 = us[:, 0], us[:, 1]
    rho = np.sqrt(np.sum(us * us, axis=1))
    r = np.where(rho > 0, rho, 1)
    uh = us / r[:, None]
    orders = (0, 1, 2) if with_hess else (0, 1)
    eta = prof.eta.derivs(rho, orders)
    et = prof.eta_tilde.derivs(rho, orders)
    q = [A * c for c in prof.q_shape.derivs(rho, orders)]

    vals = u0**3 - y * u0 + np.sum(sgn * us * us, axis=1)
    vals += -eta[0] * u1 + y * et[0] * u0 + q[0]
    grads = 2.0 * sgn * us
    grads[:, 0] = 3.0 * u0**2 - y
    grads += -eta[1][:, None] * uh * u1[:, None]
    grads[:, 1] -= eta[0]
    grads += y * et[1][:, None] * uh * u0[:, None]
    grads[:, 0] += y * et[0]
    grads += q[1][:, None] * uh
    if not with_hess:
        return vals, grads, None

    def col(v):
        return v[:, None, None]

    eye = np.eye(dim, dtype=dt)
    radial = uh[:, :, None] * uh[:, None, :]
    proj = (eye - radial) / col(r)
    cross1 = uh[:, :, None] * eye[1] + eye[1][:, None] * uh[:, None, :]
    cross0 = uh[:, :, None] * eye[0] + eye[0][:, None] * uh[:, None, :]
    hesss = np.tile(np.diag(2.0 * sgn), (m, 1, 1))
    hesss[:, 0, 0] = 6.0 * u0
    hesss += -col(u1) * (col(eta[2]) * radial + col(eta[1]) * proj)
    hesss += -col(eta[1]) * cross1
    hesss += y * col(u0) * (col(et[2]) * radial + col(et[1]) * proj)
    hesss += y * col(et[1]) * cross0
    hesss += col(q[2]) * radial + col(q[1]) * proj
    return vals, grads, hesss


# ---------------------------------------------------------------------------
# the LSODA trap flow: the route torsionlab.birthdeath._trap_flow replaced
# ---------------------------------------------------------------------------

def trap_flow_lsoda_oracle(p, prof, u0, t_end):
    """birthdeath._trap_flow as solve_ivp's LSODA, with the same right-hand
    side, analytic Jacobian, tolerances and max_step."""
    value_grad, hessian = birthdeath._point_kernel(p, prof)
    return scipy.integrate.solve_ivp(
        lambda t, u: [-g for g in value_grad(u)[1]], (0.0, t_end), u0, method="LSODA",
        jac=lambda t, u: -hessian(u), rtol=1e-8, atol=1e-12, max_step=1.0)


def agmon_distance_dijkstra(f_triple, T, from_set, n_nodes=2048):
    """witten1d.agmon_distance by Dijkstra's search on the cycle graph of
    the nodes, with the same edge weights."""
    f, fp, _ = f_triple
    s = np.linspace(0, 2 * np.pi, n_nodes, endpoint=False)
    h = s[1] - s[0]
    w = T * np.maximum(np.abs(fp(s + 0.5 * h)) * h, np.abs(f(np.roll(s, -1)) - f(s)))
    rows = np.arange(n_nodes)
    graph = sp.coo_matrix((w, (rows, (rows + 1) % n_nodes)), shape=(n_nodes, n_nodes))
    dist = scipy.sparse.csgraph.dijkstra(graph + graph.T, directed=False,
                                         indices=np.asarray(from_set, dtype=int))
    return s, dist.min(axis=0)


# ---------------------------------------------------------------------------
# the two Hermite builders and the LIL circle assembly that
# torsionlab.birthdeath._hermite and torsionlab.witten1d.assemble replaced
# ---------------------------------------------------------------------------

def hermite5_oracle(x0, x1, v0, d0, dd0, v1, d1, dd1):
    """Quintic on [x0, x1] matching value/slope/curvature at both ends,
    returned as monomial coefficients in (s - x0)."""
    h = x1 - x0
    a = np.zeros((6, 6))
    b = np.array([v0, d0, dd0, v1, d1, dd1], dtype=float)
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    a[2, 2] = 2.0
    for p in range(6):
        a[3, p] = h**p
        a[4, p] = p * h ** (p - 1) if p >= 1 else 0.0
        a[5, p] = p * (p - 1) * h ** (p - 2) if p >= 2 else 0.0
    return np.linalg.solve(a, b)


def hermite3_integrated_oracle(x0, x1, q0, dp0, ddp0, dp1, ddp1):
    """Quartic whose derivative is the cubic Hermite on [x0, x1] with
    derivative values dp0 -> dp1 and curvature values ddp0 -> ddp1;
    the constant term is q0. Monomial coefficients in (s - x0)."""
    h = x1 - x0
    a = np.zeros((4, 4))
    b = np.array([dp0, ddp0, dp1, ddp1], dtype=float)
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    for p in range(4):
        a[2, p] = h**p
        a[3, p] = p * h ** (p - 1) if p >= 1 else 0.0
    c = np.linalg.solve(a, b)  # cubic coefficients of the derivative
    out = np.zeros(5)
    out[0] = q0
    out[1:] = c / np.arange(1, 5)
    return out


def assemble_circle_lil_oracle(problem):
    """witten1d.assemble on a circle: the tridiagonal part by sp.diags into
    LIL, the two periodic corners patched in entry by entry, then CSR."""
    h, n = problem.h, problem.n_nodes
    sign = -1.0 if problem.form_degree == 0 else 1.0
    v = (problem.T * problem.fp) ** 2 + sign * problem.T * problem.fpp
    main = np.full(n, 2.0 / h**2) + v
    mat = sp.diags([main, np.full(n - 1, -1.0 / h**2), np.full(n - 1, -1.0 / h**2)],
                   [0, 1, -1], format="lil")
    mat[0, n - 1] = -1.0 / h**2
    mat[n - 1, 0] = -1.0 / h**2
    return mat.tocsr()
