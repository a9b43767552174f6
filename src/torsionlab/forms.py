"""Flat superconnection families over a discretized circle.

A family is one graded complex per base sample plus grading-preserving
parallel transports along the edges, with the differential covariantly
constant ([transport, v] = 0 up to a small residual). On such data we
compute the characteristic form built from h(a) = a exp(a^2), its metric
transgression, the deformation-parameter torsion form, and the residuals of
the anomaly identity and of its odd-fiber specialization.

With X0 = (v* - v)/2, X0^2 = -Laplacian/4, so on degree k
h'(X0) = f(Laplacian_k) with f(x) = (1 - x/2) e^{-x/4} (Bismut-Zhang). The
h-form and the transgression integrand are thus traces
sum_k (-1)^k Tr[G_k^{-1} Gdot_k f(Laplacian_k)], taken over all samples and
path nodes at once by one batched generalized eigensolve per degree.

Conventions for a circle base with m samples, spacing dtheta = 2 pi / m:
a 0-form is a per-sample scalar, a 1-form a per-edge scalar holding the
coefficient of dtheta at the edge midpoint. The exterior derivative of a
0-form f is the edge array (f[j+1] - f[j]) / dtheta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.integrate

from .birthdeath import _read_only
from .graded import (_adj, _euler, _kernel_dims, _laplacian_eigh, _owned, _pencil,
                     _spectral_integrand, euler_chars)

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
        return (np.roll(f, -1) - f) / (2.0 * np.pi / len(f))


@dataclass(frozen=True)
class SuperconnectionFamily:
    """Per-sample complexes plus flat transports over a circle base.

    fibers[j] is the complex over sample j (identical ranks across j);
    transports[j] is the invertible grading-preserving matrix carrying the
    fiber at j to the fiber at j+1 (mod m), written on the direct sum of
    all degrees, with finite entries; one whose smallest singular value is
    at most N eps times its largest (N the total rank) is refused as
    singular. Every entry of the flatness residual
    transports[j] v(j) - v(j+1) transports[j] must be at most 1e-9 (one
    batched test over all edges, naming the first that fails). Immutable:
    fibers and transports are tuples, the transports read-only, and
    `stacks` is built once, on first use.
    """

    fibers: tuple
    transports: tuple

    def __post_init__(self):
        fibers = tuple(self.fibers)
        m = len(fibers)
        if m < 8:
            raise ValueError("need at least 8 base samples")
        if len(self.transports) != m:
            raise ValueError("need one transport per edge")
        ranks = fibers[0].ranks
        if any(f.ranks != ranks for f in fibers):
            raise ValueError("all fibers must share the same ranks")
        N = fibers[0].total_rank
        ps = [np.asarray(p, dtype=complex) for p in self.transports]
        misshapen = np.array([p.shape != (N, N) for p in ps])
        p = np.stack([np.zeros((N, N)) if wrong else q for wrong, q in zip(misshapen, ps)])
        degree = np.repeat(np.arange(len(ranks)), ranks)
        mixed = degree[:, None] != degree  # entries between two different degrees
        bad = misshapen | (np.abs(p[:, mixed]).max(axis=1, initial=0.0) > 1e-12)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"transport {j} has wrong shape {ps[j].shape}" if misshapen[j]
                             else f"transport {j} does not preserve grading")
        p = _owned(p, "transports")
        sv = np.linalg.svd(p, compute_uv=False)  # descending
        singular = (sv[:, -1:] <= N * np.finfo(float).eps * sv[:, :1]).any(axis=1)
        if singular.any():
            raise ValueError(f"transport {int(np.argmax(singular))} is singular")
        v = np.stack([f.full_differential() for f in fibers])
        res = np.abs(p @ v - np.roll(v, -1, axis=0) @ p).max(axis=(1, 2), initial=0.0)
        if (res > 1e-9).any():
            j = int(np.argmax(res > 1e-9))
            raise ValueError(f"flatness residual {res[j]:.3e} on edge {j}")
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "transports", tuple(p))

    @cached_property
    def stacks(self):
        """(diffs, grams): per degree k, the read-only stacks of d_k and of
        G_k over every sample, along a leading sample axis."""
        k = range(len(self.ranks))
        return (tuple(_read_only(np.stack([f.diffs[i] for f in self.fibers])) for i in k[:-1]),
                tuple(_read_only(np.stack([f.metrics[i] for f in self.fibers])) for i in k))

    @property
    def n_samples(self):
        return len(self.fibers)

    @property
    def dtheta(self):
        return 2.0 * np.pi / len(self.fibers)

    @property
    def ranks(self):
        return self.fibers[0].ranks


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
    v = [f.full_differential() for f in fam.fibers]
    g = [f.full_metric() for f in fam.fibers]
    vstar = [np.linalg.solve(g_j, v_j.conj().T @ g_j) for v_j, g_j in zip(v, g)]
    x0 = [0.5 * (vs - v_j) for vs, v_j in zip(vstar, v)]
    adj_tr, w = [], []
    for j in range(m):
        g_j, g_j1, p = g[j], g[(j + 1) % m], fam.transports[j]
        p_inv_h = np.linalg.inv(p).conj().T
        adj_tr.append(np.linalg.solve(g_j1, p_inv_h @ g_j))
        g_par = p.conj().T @ g_j1 @ p
        g_mid = 0.5 * (g_j + g_par)
        w.append(np.linalg.solve(g_mid, (g_par - g_j) / (2.0 * fam.dtheta)))
    return {"vstar": vstar, "transports_adjoint": adj_tr, "X0": x0, "W": w}


def _supertrace_f(diffs, grams, gdots):
    """sum_k (-1)^k Tr[G_k^{-1} Gdot_k f(Laplacian_k)] from d_k, the Hermitian
    Gram matrix G_k of C^k and its derivative, all with leading batch axes
    that broadcast together. With G_k = L L^H, eigh of L^{-1} M_k L^{-H}
    gives the eigenvalues lam and U; V = L^{-H} U has V^H G_k V = 1, so the
    trace is sum_i f(lam_i) (V^H Gdot_k V)_ii."""
    total = 0.0
    for k, g in enumerate(grams):
        if g.shape[-1] == 0:
            continue
        linv = np.linalg.inv(np.linalg.cholesky(g))
        lam, u = np.linalg.eigh(linv @ _pencil(diffs, grams, k) @ _adj(linv))
        diag = np.sum(u.conj() * (linv @ gdots[k] @ _adj(linv) @ u), axis=-2)
        f = (1.0 - 0.5 * lam) * np.exp(-0.25 * lam)
        total = total + (-1.0) ** k * np.sum(f * diag, axis=-1)
    return total


def h_form(fam: SuperconnectionFamily, t_scale=None):
    """Characteristic form of the family for the (optionally rescaled) metric.

    degree1[j] = Tr_s[W h'(X0)] at the midpoint of edge j, in the frame at
    j, where the parallel differential is v(j), the metric G_mid is the mean
    of G(j) and the pullback G_par of G(j+1), and
    W = G_mid^{-1} (G_par - G(j)) / (2 dtheta). W preserves the grading, so
    this is sum_k (-1)^k Tr[W_k f(Laplacian_k)] (Bismut-Zhang; see
    _supertrace_f). t_scale rescales both endpoint metrics of degree k by
    t^{k - n/2}. degree0 is zero because h and X0 are odd (see FormOnBase).
    """
    n = fam.fibers[0].top_degree
    off = fam.fibers[0].offsets()
    diffs, grams = fam.stacks
    g_mid, g_dot = [], []
    for k, g_j in enumerate(grams):
        p = np.stack([t[off[k] : off[k + 1], off[k] : off[k + 1]] for t in fam.transports])
        g_par = _adj(p) @ np.roll(g_j, -1, axis=0) @ p
        if t_scale is not None:
            s = float(t_scale) ** (k - 0.5 * n)
            g_j, g_par = s * g_j, s * g_par
        g_mid.append(0.5 * (g_j + g_par))
        g_dot.append((g_par - g_j) / (2.0 * fam.dtheta))
    deg1 = _supertrace_f(diffs, g_mid, g_dot)
    return FormOnBase(np.zeros_like(deg1), deg1)


# ---------------------------------------------------------------------------
# transgression along a metric path
# ---------------------------------------------------------------------------

def _path_metrics(fam: SuperconnectionFamily, path, nodes, check=True):
    """Per degree, the Hermitian parts of path(l, j) for every sample j and
    node l in nodes, stacked with shape (m, n_nodes, r, r). With check,
    raises ValueError at the first one, in (j, l) order, that is not
    positive definite."""
    m, ls = fam.n_samples, nodes.tolist()
    grams = [np.empty((m, len(nodes), r, r), dtype=complex) for r in fam.ranks]
    for j in range(m):
        calls = [path(l, j) for l in ls]
        for k, out in enumerate(grams):
            g = np.array([c[k] for c in calls], dtype=complex)
            out[j] = 0.5 * (g + _adj(g))
    bad = np.zeros((m, len(nodes)), dtype=bool)
    for g in grams:
        if check and g.shape[-1]:
            bad |= np.linalg.eigvalsh(g)[..., 0] <= 0
    if bad.any():
        _, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"metric path leaves the positive cone at l={nodes[i]}")
    return grams


def transgression(fam: SuperconnectionFamily, metric_path, n_l=33):
    """Integral over l in [0, 1] of the dl-component of the h-form.

    metric_path(l, j) returns one Gram matrix per degree for sample j. The
    l-derivative is a centered difference with step 1e-6 unless metric_path
    has a 'derivative' attribute (called the same way), one-sided with step
    1e-6 at l = 0 and l = 1, where the node metrics are reused (3 n_l - 2
    path calls per sample); every metric evaluated, difference points
    included, must be positive definite.
    degree0[j] = int_0^1 Tr_s[(1/2) G^{-1} dG/dl h'(X0_l)] dl by Simpson's
    rule over n_l nodes, the integrand being
    (1/2) sum_k (-1)^k Tr[G_k^{-1} dG_k/dl f(Laplacian_k)] (Bismut-Zhang;
    see _supertrace_f). degree1, the mixed dl-dtheta component
    Tr[c Dh'(X0)[sigma W]], is zero by parity (see FormOnBase).
    """
    if n_l < 16:
        raise ValueError("need at least 16 points along the path")
    if n_l % 2 == 0:
        n_l += 1
    m = fam.n_samples
    ls = np.linspace(0.0, 1.0, n_l)
    grams = _path_metrics(fam, metric_path, ls)
    deriv = getattr(metric_path, "derivative", None)
    if deriv is not None:
        gdots = _path_metrics(fam, deriv, ls, check=False)
    else:
        hi, lo = np.minimum(1.0, ls + 1e-6), np.maximum(0.0, ls - 1e-6)
        # the clipped ends hi[-1] = 1 and lo[0] = 0 are nodes: reuse their metrics
        up = _path_metrics(fam, metric_path, hi[:-1])
        down = _path_metrics(fam, metric_path, lo[1:])
        gdots = [(np.concatenate([u, g[:, -1:]], axis=1) - np.concatenate([g[:, :1], d], axis=1))
                 / (hi - lo)[:, None, None] for g, u, d in zip(grams, up, down)]
    diffs = [d[:, None] for d in fam.stacks[0]]
    deg0 = scipy.integrate.simpson(0.5 * _supertrace_f(diffs, grams, gdots), x=ls, axis=-1)
    return FormOnBase(deg0, np.zeros(m, dtype=complex))


# ---------------------------------------------------------------------------
# torsion form
# ---------------------------------------------------------------------------

def torsion_form_TL(fam: SuperconnectionFamily, tau, t_max=80.0, n_t=200):
    """Deformation-parameter torsion form with lower cutoff tau.

    Quadrature is trapezoidal in log t over n_t log-spaced nodes on
    [tau, t_max]; the metric family is the canonical rescaling
    t^{N - n/2} G. The integrand must have decayed below 1e-6 at t_max
    (its (chi'(H) - n/2 chi(H))/2t parts, the large-t limit of
    Tr_s[(N - n/2) h'(X_t)], cancel by construction), otherwise
    TailNotConvergedError is raised. The degree-1 part, an integral of
    Tr[(N - n/2) Dh'(X0_t)[sigma W]], is zero by parity (see FormOnBase).

    The spectra of all m fibers come from one eigensolve per degree, with
    the samples on a leading batch axis, and the integrand from one call
    with shape (m, n_t); chi(H) is read from the fiber-0 row (flat
    families: every fiber has the same cohomology).
    """
    return _torsion_form(fam, tau, t_max, n_t)[0]


def _torsion_form(fam: SuperconnectionFamily, tau, t_max, n_t):
    """torsion_form_TL and the fiber-0 dims of H^k, from the same spectra."""
    if not (0.0 < tau < t_max):
        raise ValueError("need 0 < tau < t_max")
    m = fam.n_samples
    diffs, grams = fam.stacks
    spectra = [_laplacian_eigh(diffs, grams, k) for k in range(len(grams))]
    h = _kernel_dims([spec[0] for spec in spectra])
    ts = np.geomspace(tau, t_max, n_t)
    deg0_int = _spectral_integrand(spectra, euler_chars(fam.fibers[0]), _euler(h), ts)
    tail = np.abs(deg0_int[:, -1]).max()
    if tail > 1e-6:
        raise TailNotConvergedError(f"integrand at t_max={t_max} is {tail:.3e}; increase t_max")
    log_w = _trapezoid_weights_log(ts)
    deg0 = (deg0_int * (log_w * ts)[None, :]).sum(axis=1)
    return FormOnBase(deg0.astype(complex), np.zeros(m, dtype=complex)), h


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

def harmonic_connection_form(fam: SuperconnectionFamily):
    """Degree-1 part of the h-form of the Gauss-Manin connection on H.

    Harmonic frames are G-orthonormal per sample (the kernel eigenvectors
    of one eigensolve per degree over all samples, dim H^k read from the
    fiber-0 spectrum: flat families have one cohomology); transport is
    projection after parallel transport, and W_H per edge is
    (P_H^H P_H - 1) / (2 dtheta) in those frames. Returns a per-edge array
    Tr_s[W_H] (h'(0) = 1), zero when the fibers are acyclic.
    """
    m = fam.n_samples
    diffs, grams = fam.stacks
    bases = []
    for k in range(len(grams)):
        lam, vecs = _laplacian_eigh(diffs, grams, k, vectors=True)
        bases.append(vecs[..., : _kernel_dims([lam[0]])[0]])
    off = fam.fibers[0].offsets()
    out = np.zeros(m, dtype=complex)
    for j in range(m):
        jn = (j + 1) % m
        acc = 0.0 + 0.0j
        for k in range(len(grams)):
            b_j = bases[k][j]
            b_jn = bases[k][jn]
            if b_j.size == 0 or b_jn.size == 0:
                continue
            p_blk = fam.transports[j][off[k] : off[k + 1], off[k] : off[k + 1]]
            ph = b_jn.conj().T @ grams[k][jn] @ (p_blk @ b_j)
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
    tl, h = _torsion_form(fam, tau, t_max, n_t)
    lhs = tl.dS()
    rhs = h_form(fam, t_scale=tau).degree1
    if any(h):
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

def grr_residual(fam: SuperconnectionFamily, tau, t_max=80.0, n_t=200):
    """Odd-fiber residual d^S T^L_tau + h(GM connection): the local term.

    For an odd-dimensional fiber the Euler form vanishes, so the continuum
    identity reads d T = -h(GM, L2 metric). The returned dict reports the
    max edge residual and, separately, the local term h(A, metric at tau)
    which the identity predicts to be the entire residual.
    """
    tl, h = _torsion_form(fam, tau, t_max, n_t)
    res = tl.dS() + (harmonic_connection_form(fam) if any(h) else 0.0)
    local = h_form(fam, t_scale=tau).degree1
    return {
        "residual": res,
        "max_residual": float(np.abs(res).max()),
        "local_term": local,
        "max_local_term": float(np.abs(local).max()),
    }
