"""Flat superconnection families over a discretized circle.

A family is one graded complex per base sample plus grading-preserving
parallel transports along the edges, with the differential covariantly
constant ([transport, v] = 0 up to a small residual). On such data we
compute the characteristic form built from h(a) = a exp(a^2), its metric
transgression, the deformation-parameter torsion form, and the residuals of
the anomaly identity and of its odd-fiber specialization.

Conventions for a circle base with m samples, spacing dtheta = 2 pi / m:
a 0-form is a per-sample scalar, a 1-form a per-edge scalar holding the
coefficient of dtheta at the edge midpoint. The exterior derivative of a
0-form f is the edge array (f[j+1] - f[j]) / dtheta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graded import (GradedComplex, _block_diag, _spectra, _spectral_integrand,
                     euler_chars)

__all__ = [
    "SuperconnectionFamily",
    "FormOnBase",
    "TailNotConvergedError",
    "adjoint_superconnection",
    "h_form",
    "transgression",
    "torsion_form_TL",
    "anomaly_check",
    "harmonic_connection_form",
    "grr_residual",
]

class TailNotConvergedError(RuntimeError):
    """Torsion-form integrand has not decayed at the upper cutoff."""


@dataclass
class FormOnBase:
    """Mixed-degree form on the discretized circle (degrees 0 and 1 only).

    Only the degree that can be nonzero is computed; the other field holds
    zeros. X0 = (t v* - v)/2 is odd and the connection term sigma W is
    even, so Dh'(X0)[sigma W] is a sum of terms X0^a (sigma W) X0^b with
    a + b odd. Each shifts degree, so its block diagonal, and with it every
    trace against a grading-preserving matrix, is exactly zero; the same
    holds for h(X0), an odd series in X0. On a circle base the torsion form
    and the transgression thus live in degree 0 and the h-form in degree 1
    (Bismut-Lott 1995).
    """

    degree0: np.ndarray
    degree1: np.ndarray

    def dS(self):
        """Exterior derivative of the degree-0 part, as a per-edge array."""
        f = self.degree0
        m = len(f)
        dtheta = 2.0 * np.pi / m
        return (np.roll(f, -1) - f) / dtheta


@dataclass
class SuperconnectionFamily:
    """Per-sample complexes plus flat transports over a circle base.

    fibers[j] is the complex over sample j (identical ranks across j);
    transports[j] is the invertible grading-preserving matrix carrying the
    fiber at j to the fiber at j+1 (mod m), written on the direct sum of
    all degrees.
    """

    fibers: list
    transports: list
    flatness_tol: float = 1e-9

    def __post_init__(self):
        m = len(self.fibers)
        if m < 8:
            raise ValueError("need at least 8 base samples")
        if len(self.transports) != m:
            raise ValueError("need one transport per edge")
        ranks = self.fibers[0].ranks
        if any(f.ranks != ranks for f in self.fibers):
            raise ValueError("all fibers must share the same ranks")
        off = self.fibers[0].offsets()
        N = self.fibers[0].total_rank
        self.transports = [np.asarray(p, dtype=complex) for p in self.transports]
        for j, p in enumerate(self.transports):
            if p.shape != (N, N):
                raise ValueError(f"transport {j} has wrong shape {p.shape}")
            for a in range(len(ranks)):
                for b in range(len(ranks)):
                    if a == b:
                        continue
                    blk = p[off[a] : off[a + 1], off[b] : off[b + 1]]
                    if blk.size and np.abs(blk).max() > 1e-12:
                        raise ValueError(f"transport {j} does not preserve grading")
        for j in range(m):
            v_j = self.fibers[j].full_differential()
            v_next = self.fibers[(j + 1) % m].full_differential()
            res = self.transports[j] @ v_j - v_next @ self.transports[j]
            if res.size and np.abs(res).max() > self.flatness_tol:
                raise ValueError(
                    f"flatness residual {np.abs(res).max():.3e} on edge {j}"
                )

    @property
    def n_samples(self):
        return len(self.fibers)

    @property
    def dtheta(self):
        return 2.0 * np.pi / len(self.fibers)

    @property
    def ranks(self):
        return self.fibers[0].ranks

    def holonomy(self):
        p = np.eye(self.fibers[0].total_rank, dtype=complex)
        for t in self.transports:
            p = t @ p
        return p


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


# ---------------------------------------------------------------------------
# matrix-function helpers
# ---------------------------------------------------------------------------

def _h_prime_mat(x):
    """(1 + 2 X^2) exp(X^2) for a square matrix X."""
    x2 = x @ x
    return (np.eye(len(x)) + 2.0 * x2) @ scipy.linalg.expm(x2)


# ---------------------------------------------------------------------------
# per-sample and per-edge geometry
# ---------------------------------------------------------------------------

def adjoint_superconnection(fam: SuperconnectionFamily):
    """Adjoint data: per-sample v*, adjoint transports, per-edge X pieces.

    Returns a dict with keys 'vstar' (per sample), 'transports_adjoint'
    (per edge, the transport of the metric-adjoint connection), 'X0'
    (per sample, (v* - v)/2) and 'W' (per edge, the connection component
    of X at the edge midpoint, coefficient of dtheta).
    """
    m = fam.n_samples
    vstar, x0 = [], []
    for j in range(m):
        fib = fam.fibers[j]
        v = fib.full_differential()
        g = fib.full_metric()
        vs = np.linalg.solve(g, v.conj().T @ g)
        vstar.append(vs)
        x0.append(0.5 * (vs - v))
    adj_tr, w = [], []
    for j in range(m):
        g_j = fam.fibers[j].full_metric()
        g_j1 = fam.fibers[(j + 1) % m].full_metric()
        p = fam.transports[j]
        p_inv_h = np.linalg.inv(p).conj().T
        adj_tr.append(np.linalg.solve(g_j1, p_inv_h @ g_j))
        g_par = p.conj().T @ g_j1 @ p
        g_mid = 0.5 * (g_j + g_par)
        w.append(np.linalg.solve(g_mid, (g_par - g_j) / (2.0 * fam.dtheta)))
    return {"vstar": vstar, "transports_adjoint": adj_tr, "X0": x0, "W": w}


def _edge_data(fam: SuperconnectionFamily, j, t_scale=None):
    """Midpoint metric, differential and W on edge j, in the frame at j.

    The differential is parallel along the edge, so in the frame at j it
    equals v(j) exactly; the metric is interpolated between G(j) and the
    pullback of G(j+1). An optional canonical rescaling t^{N - n/2} is
    applied to both endpoint metrics (it commutes with grading-preserving
    transports, leaving W unchanged).
    """
    fib = fam.fibers[j]
    n = fib.top_degree
    weights = fib.degree_weights() - 0.5 * n
    g_j = fib.full_metric()
    g_j1 = fam.fibers[(j + 1) % fam.n_samples].full_metric()
    p = fam.transports[j]
    g_par = p.conj().T @ g_j1 @ p
    if t_scale is not None:
        s = np.diag(np.power(float(t_scale), weights))
        g_j = s @ g_j
        g_par = s @ g_par
    g_mid = 0.5 * (g_j + g_par)
    w = np.linalg.solve(g_mid, (g_par - g_j) / (2.0 * fam.dtheta))
    v = fib.full_differential()
    return g_mid, v, w


def h_form(fam: SuperconnectionFamily, t_scale=None):
    """Characteristic form of the family for the (optionally rescaled) metric.

    degree1[j] = Tr_s[W h'(X0)] at the midpoint of edge j; degree0 is zero
    because h is odd and X0 is odd (see FormOnBase).
    """
    m = fam.n_samples
    sign = fam.fibers[0].sign_weights()
    deg1 = np.zeros(m, dtype=complex)
    for j in range(m):
        g_mid, v, w = _edge_data(fam, j, t_scale=t_scale)
        x0_mid = 0.5 * (np.linalg.solve(g_mid, v.conj().T @ g_mid) - v)
        deg1[j] = np.sum(sign * np.diag(w @ _h_prime_mat(x0_mid)))
    return FormOnBase(np.zeros(m, dtype=complex), deg1)


# ---------------------------------------------------------------------------
# transgression along a metric path
# ---------------------------------------------------------------------------

def transgression(fam: SuperconnectionFamily, metric_path, n_l=33):
    """Integral over l in [0, 1] of the dl-component of the h-form.

    metric_path(l) must return one Gram matrix per degree, all samples
    sharing the path shape: it is called as metric_path(l, j) for sample j.
    The derivative in l is taken by centered differences with step 1e-6
    unless metric_path has a 'derivative' attribute (called the same way).
    degree0[j] = int_0^1 Tr_s[(1/2) G^{-1} dG/dl h'(X0_l)] dl; degree1, the
    mixed dl-dtheta component Tr[c Dh'(X0)[sigma W]], is zero by parity
    (see FormOnBase).
    """
    if n_l < 16:
        raise ValueError("need at least 16 points along the path")
    if n_l % 2 == 0:
        n_l += 1
    m = fam.n_samples
    sign = fam.fibers[0].sign_weights()
    ls = np.linspace(0.0, 1.0, n_l)
    simp = np.ones(n_l)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    simp *= (ls[1] - ls[0]) / 3.0

    def metrics_at(l, j):
        gl = metric_path(l, j)
        for g in gl:
            w = np.linalg.eigvalsh(0.5 * (np.asarray(g) + np.asarray(g).conj().T))
            if w.size and w.min() <= 0:
                raise ValueError(f"metric path leaves the positive cone at l={l}")
        return _block_diag([np.asarray(g, dtype=complex) for g in gl])

    deriv = getattr(metric_path, "derivative", None)

    def dmetrics_at(l, j):
        if deriv is not None:
            return _block_diag([np.asarray(g, dtype=complex) for g in deriv(l, j)])
        eps = 1e-6
        l0, l1 = max(0.0, l - eps), min(1.0, l + eps)
        return (metrics_at(l1, j) - metrics_at(l0, j)) / (l1 - l0)

    deg0 = np.zeros(m, dtype=complex)
    for j in range(m):
        v = fam.fibers[j].full_differential()
        for li, l in enumerate(ls):
            g = metrics_at(l, j)
            gdot = dmetrics_at(l, j)
            c = 0.5 * np.linalg.solve(g, gdot)
            x0 = 0.5 * (np.linalg.solve(g, v.conj().T @ g) - v)
            deg0[j] += simp[li] * np.sum(sign * np.diag(c @ _h_prime_mat(x0)))
    return FormOnBase(deg0, np.zeros(m, dtype=complex))


# ---------------------------------------------------------------------------
# torsion form
# ---------------------------------------------------------------------------

def _family_euler(fam: SuperconnectionFamily):
    from .graded import euler_chars_cohomology

    e = euler_chars(fam.fibers[0])
    eh = euler_chars_cohomology(fam.fibers[0])
    return e, eh


def torsion_form_TL(fam: SuperconnectionFamily, tau, t_max=80.0, n_t=200,
                    tail_tol=1e-6):
    """Deformation-parameter torsion form with lower cutoff tau.

    Quadrature is trapezoidal in log t over n_t log-spaced nodes on
    [tau, t_max]; the metric family is the canonical rescaling
    t^{N - n/2} G. The integrand must have decayed below tail_tol at t_max
    (its (chi'(H) - n/2 chi(H))/2t parts, the large-t limit of
    Tr_s[(N - n/2) h'(X_t)], cancel by construction), otherwise
    TailNotConvergedError is raised. The degree-1 part, an integral of
    Tr[(N - n/2) Dh'(X0_t)[sigma W]], is zero by parity (see FormOnBase).
    """
    if not (0.0 < tau < t_max):
        raise ValueError("need 0 < tau < t_max")
    m = fam.n_samples
    e, eh = _family_euler(fam)
    ts = np.geomspace(tau, t_max, n_t)
    deg0_int = np.zeros((m, n_t))
    for j in range(m):
        deg0_int[j] = _spectral_integrand(_spectra(fam.fibers[j]), e, eh, ts)

    tail = np.abs(deg0_int[:, -1]).max()
    if tail > tail_tol:
        raise TailNotConvergedError(
            f"integrand at t_max={t_max} is {tail:.3e}; increase t_max"
        )
    log_w = _trapezoid_weights_log(ts)
    deg0 = (deg0_int * (log_w * ts)[None, :]).sum(axis=1)
    return FormOnBase(deg0.astype(complex), np.zeros(m, dtype=complex))


def _trapezoid_weights_log(ts):
    u = np.log(ts)
    w = np.zeros_like(u)
    w[1:-1] = 0.5 * (u[2:] - u[:-2])
    w[0] = 0.5 * (u[1] - u[0])
    w[-1] = 0.5 * (u[-1] - u[-2])
    return w


# ---------------------------------------------------------------------------
# harmonic bundle and anomaly residual
# ---------------------------------------------------------------------------

def _harmonic_basis(fib: GradedComplex):
    """Per degree: G-orthonormal basis of ker(Laplacian_k) of one fiber."""
    from .graded import _laplacian_pencil, _split_spectrum

    per_deg = []
    for k in range(len(fib.ranks)):
        r = fib.ranks[k]
        if r == 0:
            per_deg.append(np.zeros((0, 0), dtype=complex))
            continue
        mmat, g = _laplacian_pencil(fib, k)
        w, vecs = scipy.linalg.eigh(mmat, g)
        _, nonzero = _split_spectrum(w, check_band=False)
        ker = r - nonzero.size
        per_deg.append(vecs[:, :ker])  # eigh(.., g) returns G-orthonormal
    return per_deg


def _has_harmonics(fam: SuperconnectionFamily):
    """Whether the first fiber has cohomology (flat families: every fiber)."""
    return any(b.size for b in _harmonic_basis(fam.fibers[0]))


def harmonic_connection_form(fam: SuperconnectionFamily):
    """Degree-1 part of the h-form of the Gauss-Manin connection on H.

    Harmonic frames are G-orthonormal per sample; transport is projection
    after parallel transport, and W_H per edge is
    (P_H^H P_H - 1) / (2 dtheta) in those frames. Returns a per-edge array
    Tr_s[W_H] (h'(0) = 1).
    """
    m = fam.n_samples
    bases = [_harmonic_basis(fib) for fib in fam.fibers]
    off = fam.fibers[0].offsets()
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        jn = (j + 1) % m
        acc = 0.0 + 0.0j
        for k in range(len(fam.fibers[0].ranks)):
            b_j = bases[j][k]
            b_jn = bases[jn][k]
            if b_j.size == 0 or b_jn.size == 0:
                continue
            p_blk = fam.transports[j][off[k] : off[k + 1], off[k] : off[k + 1]]
            g_blk = fam.fibers[jn].metrics[k]
            ph = b_jn.conj().T @ g_blk @ (p_blk @ b_j)
            # pullback Gram of the transported frame; midpoint-centered
            # quotient keeps the edge derivative second-order accurate
            phi = ph.conj().T @ ph
            eye = np.eye(phi.shape[0])
            w_h = np.linalg.solve(0.5 * (eye + phi), (phi - eye)) / (2.0 * fam.dtheta)
            acc += (-1.0) ** k * np.trace(w_h)
        out[j] = acc
    return out


def anomaly_check(fam: SuperconnectionFamily, tau, t_max=80.0, n_t=200):
    """Residual of d^S T^L_tau = h(A, metric at tau) - h(GM connection, L2).

    Returns a dict with the per-edge residual array and its max modulus.
    """
    tl = torsion_form_TL(fam, tau, t_max=t_max, n_t=n_t)
    lhs = tl.dS()
    rhs = h_form(fam, t_scale=tau).degree1
    if _has_harmonics(fam):
        rhs = rhs - harmonic_connection_form(fam)
    res = lhs - rhs
    return {
        "residual": res,
        "max_residual": float(np.abs(res).max()),
        "torsion_form": tl,
    }


# ---------------------------------------------------------------------------
# odd-fiber (circle) specialization
# ---------------------------------------------------------------------------

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


def grr_residual(fam: SuperconnectionFamily, tau, t_max=80.0, n_t=200):
    """Odd-fiber residual d^S T^L_tau + h(GM connection): the local term.

    For an odd-dimensional fiber the Euler form vanishes, so the continuum
    identity reads d T = -h(GM, L2 metric). The returned dict reports the
    max edge residual and, separately, the local term h(A, metric at tau)
    which the identity predicts to be the entire residual.
    """
    tl = torsion_form_TL(fam, tau, t_max=t_max, n_t=n_t)
    lhs = tl.dS()
    gm = harmonic_connection_form(fam) if _has_harmonics(fam) else np.zeros(fam.n_samples)
    res = lhs + gm
    local = h_form(fam, t_scale=tau).degree1
    return {
        "residual": res,
        "max_residual": float(np.abs(res).max()),
        "local_term": local,
        "max_local_term": float(np.abs(local).max()),
    }
