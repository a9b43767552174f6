"""Finite Z-graded cochain complexes with Hermitian metrics.

A complex is a family of degree spaces C^0, ..., C^n, differentials
d_k : C^k -> C^{k+1} with d_{k+1} d_k = 0, and a positive Gram matrix per
degree. On top of that we build metric adjoints, Hodge Laplacians, Euler
characteristics and the scalar torsion in two independent ways (alternating
log-determinant and the deformation-parameter integral).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.integrate
import scipy.linalg

from .birthdeath import _read_only

__all__ = [
    "GradedComplex",
    "complex_to_json",
    "complex_from_json",
    "EulerData",
    "IndeterminateKernelError",
    "InvalidMetricError",
    "h_scalar",
    "h_prime",
    "adjoints",
    "laplacian",
    "laplacian_spectrum",
    "cohomology_dims",
    "euler_chars",
    "euler_chars_cohomology",
    "finite_torsion",
    "finite_torsion_integral",
    "torsion_integrand",
]

#: eigenvalues below KERNEL_RTOL * max(spec) count as kernel
KERNEL_RTOL = 1e-10
#: eigenvalue inside [0.1, 10] x threshold is refused as ambiguous
AMBIGUITY_BAND = (0.1, 10.0)


class InvalidMetricError(ValueError):
    """Gram matrix is singular, non-Hermitian or not positive definite."""


class IndeterminateKernelError(ValueError):
    """An eigenvalue sits inside the kernel-detection ambiguity band."""


def h_scalar(a):
    """The odd entire function a * exp(a^2)."""
    a = np.asarray(a, dtype=complex)
    return a * np.exp(a * a)


def h_prime(a):
    """Derivative (1 + 2 a^2) * exp(a^2) of h_scalar."""
    a = np.asarray(a, dtype=complex)
    return (1.0 + 2.0 * a * a) * np.exp(a * a)


def _owned(arr, name, error=ValueError):
    """arr, a copy the caller owns, made read-only; error unless all entries are finite."""
    if not np.isfinite(arr).all():
        raise error(f"{name} has non-finite entries")
    return _read_only(arr)


def _as_matrix(m, rows, cols, name, error=ValueError):
    arr = np.array(m, dtype=complex)
    if arr.shape != (rows, cols):
        raise ValueError(f"{name}: expected shape {(rows, cols)}, got {arr.shape}")
    return _owned(arr, name, error)


@dataclass(frozen=True)
class EulerData:
    """chi = sum (-1)^k rank_k and chi' = sum (-1)^k k rank_k."""

    chi: int
    chi_prime: int


@dataclass(frozen=True)
class GradedComplex:
    """Z-graded complex with differentials and per-degree Gram matrices.

    ranks[k] is dim C^k; diffs[k] is the matrix of d_k with shape
    (ranks[k+1], ranks[k]); metrics[k] is the Hermitian positive Gram
    matrix of C^k (default: identity). Validation of d^2 = 0 (every entry
    of d_{k+1} d_k within 1e-9 max(1, |d_k|_max |d_{k+1}|_max)), of
    |G - G^H| <= 1e-12 + 1e-12 |G^H| entrywise, of positivity and of finite
    entries (InvalidMetricError for metrics) happens once, at construction.
    Immutable: diffs and metrics are tuples of read-only copies of the
    inputs, and `spectra` is solved once, on first use.
    """

    ranks: tuple
    diffs: tuple = ()
    metrics: tuple = ()

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        n = len(ranks)
        if len(self.diffs) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} differentials, got {len(self.diffs)}")
        diffs = tuple(_as_matrix(d, ranks[k + 1], ranks[k], f"d_{k}")
                      for k, d in enumerate(self.diffs))
        metrics = self.metrics or [np.eye(r) for r in ranks]
        if len(metrics) != n:
            raise ValueError(f"expected {n} metrics, got {len(metrics)}")
        metrics = tuple(_as_matrix(g, ranks[k], ranks[k], f"G_{k}", InvalidMetricError)
                        for k, g in enumerate(metrics))
        for k, g in enumerate(metrics):
            gh = g.conj().T
            if not (np.abs(g - gh) <= 1e-12 + 1e-12 * np.abs(gh)).all():
                raise InvalidMetricError(f"G_{k} is not Hermitian")
            if g.size and np.linalg.eigvalsh(0.5 * (g + gh)).min() <= 0:
                raise InvalidMetricError(f"G_{k} is not positive definite")
        top = [np.abs(d).max(initial=0.0) for d in diffs]
        for k in range(len(diffs) - 1):
            prod = np.abs(diffs[k + 1] @ diffs[k]).max(initial=0.0)
            if prod > 1e-9 * max(1.0, top[k] * top[k + 1]):
                raise ValueError(f"d_{k + 1} d_{k} != 0 (max entry {prod:.3e})")
        for name, value in (("ranks", ranks), ("diffs", diffs), ("metrics", metrics)):
            object.__setattr__(self, name, value)

    @cached_property
    def spectra(self):
        """Read-only ascending Laplacian spectrum of every degree, solved once, on first use."""
        return tuple(_read_only(_laplacian_eigh(self.diffs, self.metrics, k))
                     for k in range(len(self.ranks)))

    # -- convenience ----------------------------------------------------
    @property
    def top_degree(self):
        return len(self.ranks) - 1

    @property
    def total_rank(self):
        return int(sum(self.ranks))

    def offsets(self):
        """Start index of each degree block inside the total space."""
        return np.concatenate([[0], np.cumsum(self.ranks)]).astype(int)

    def with_metrics(self, metrics):
        return GradedComplex(self.ranks, self.diffs, metrics)

    def full_differential(self):
        """Differential as one matrix on the direct sum of all degrees."""
        N = self.total_rank
        off = self.offsets()
        v = np.zeros((N, N), dtype=complex)
        for k, d in enumerate(self.diffs):
            v[off[k + 1] : off[k + 2], off[k] : off[k + 1]] = d
        return v

    def full_metric(self):
        return _block_diag(self.metrics)

    def degree_weights(self):
        """Vector with entry k on the degree-k block."""
        return np.repeat(np.arange(len(self.ranks), dtype=float), self.ranks)

    def sign_weights(self):
        """Vector with entry (-1)^k on the degree-k block."""
        return np.repeat((-1.0) ** np.arange(len(self.ranks)), self.ranks)


def _block_diag(blocks):
    """scipy.linalg.block_diag of 2-D blocks, written into one zero matrix
    (the same values without its per-call overhead)."""
    blocks = list(blocks)
    if not blocks:
        return np.zeros((0, 0))
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def adjoints(c: GradedComplex):
    """Metric adjoints d*_k = G_k^{-1} d_k^H G_{k+1} for every degree (the
    immutable metrics were checked positive definite at construction)."""
    g = c.metrics
    return [np.linalg.solve(g[k], d.conj().T @ g[k + 1]) for k, d in enumerate(c.diffs)]


def laplacian(c: GradedComplex, k: int):
    """Hodge Laplacian d*_k d_k + d_{k-1} d*_{k-1} in degree k.

    Self-adjoint with respect to G_k, not the standard inner product.
    """
    adj = adjoints(c)
    r = c.ranks[k]
    lap = np.zeros((r, r), dtype=complex)
    if k < len(c.diffs):
        lap += adj[k] @ c.diffs[k]
    if k > 0:
        lap += c.diffs[k - 1] @ adj[k - 1]
    return lap


def _adj(a):
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _pencil(diffs, grams, k):
    """Hermitian M_k with G_k^{-1} M_k the degree-k Laplacian of the
    differentials diffs and Gram matrices grams. Every array may carry
    leading batch axes, which broadcast as in np.matmul."""
    g = grams[k]
    terms = []
    if k < len(diffs):
        d = diffs[k]
        terms.append(_adj(d) @ grams[k + 1] @ d)
    if k > 0:
        d = diffs[k - 1]
        terms.append(g @ d @ np.linalg.solve(grams[k - 1], _adj(d) @ g))
    m = np.zeros(np.broadcast_shapes(g.shape, *(t.shape for t in terms)), dtype=complex)
    for t in terms:
        m += t
    return 0.5 * (m + _adj(m))


def _laplacian_eigh(diffs, grams, k, vectors=False):
    """Ascending spectrum of the degree-k Laplacian pencil (M_k, G_k) of
    diffs and grams (see _pencil), and with vectors its G_k-orthonormal
    eigenvectors as columns, from one scipy.linalg.eigh call. Leading
    batch axes (one slot per complex) may be absent; they are kept in front
    of the eigenvalue axis. Every Laplacian spectrum and harmonic basis of
    graded and forms comes from here, except the Cholesky route of
    forms._supertrace_f, which shares only _pencil."""
    g = grams[k]
    if g.shape[-1] == 0:
        lam = np.zeros(g.shape[:-1])
        return (lam, np.zeros(g.shape, dtype=complex)) if vectors else lam
    return scipy.linalg.eigh(_pencil(diffs, grams, k), g, eigvals_only=not vectors)


def laplacian_spectrum(c: GradedComplex, k: int):
    """Real spectrum of the degree-k Laplacian (ascending, read-only)."""
    return c.spectra[k]


def _split_spectrum(spec, check_band=True):
    """Split Laplacian spectrum into (kernel count, nonzero part)."""
    top = spec.max(initial=0.0)
    thr = KERNEL_RTOL * (top if top > 0 else 1.0)
    if check_band:
        lo, hi = AMBIGUITY_BAND[0] * thr, AMBIGUITY_BAND[1] * thr
        bad = spec[(spec > lo) & (spec < hi)]
        if bad.size:
            raise IndeterminateKernelError(
                f"eigenvalue {bad[0]:.3e} inside ambiguity band [{lo:.3e}, {hi:.3e}]"
            )
    ker = int((spec <= thr).sum())
    return ker, np.clip(spec[spec > thr], 0.0, None)


def _euler(dims):
    chi = sum((-1) ** k * r for k, r in enumerate(dims))
    chi_p = sum((-1) ** k * k * r for k, r in enumerate(dims))
    return EulerData(int(chi), int(chi_p))


def _kernel_dims(spectra):
    return [_split_spectrum(spec, check_band=False)[0] for spec in spectra]


def cohomology_dims(c: GradedComplex):
    """dim H^k as the kernel dimension of the degree-k Laplacian."""
    return _kernel_dims(c.spectra)


def euler_chars(c: GradedComplex):
    """Euler data of the complex itself (chi, chi')."""
    return _euler(c.ranks)


def euler_chars_cohomology(c: GradedComplex):
    """Euler data of the cohomology (chi(H), chi'(H))."""
    return _euler(cohomology_dims(c))


def finite_torsion(c: GradedComplex):
    """Scalar torsion (1/2) sum_k (-1)^k k log det' Laplacian_k.

    det' drops the kernel part of the spectrum; an eigenvalue inside the
    ambiguity band raises IndeterminateKernelError.
    """
    total = 0.0
    for k in range(1, len(c.ranks)):  # degree 0 has weight k = 0
        _, nonzero = _split_spectrum(c.spectra[k], check_band=True)
        if nonzero.size:
            total += 0.5 * (-1.0) ** k * k * np.log(nonzero).sum()
    return float(total)


def _spectral_integrand(spectra, e, eh, t):
    """-Tr_s[(N - n/2) h'(X_t)]/(2t) plus the counterterm, from the
    per-degree Laplacian spectra, the Euler data e of the complex and eh
    of its cohomology; t is an array. The spectra may carry leading batch
    axes (one slot per complex, all with data e and eh, as from
    _laplacian_eigh); the result has those axes in front of the axes of t.

    On degree k, h'(X_t) = f(t Laplacian_k) with f(x) = (1 - x/2) e^{-x/4}.
    The supertrace tends to L = chi'(H) - n/2 chi(H) as t -> inf and to
    S = chi'(E) - n/2 chi(E) as t -> 0; the counterterm
    L + (S - L) h'(sqrt(-t)/2), with h'(sqrt(-t)/2) = f(t) running from 1
    to 0, removes both limits, so the integrand is integrable at both ends
    and, by Frullani, integrates to the finite torsion of any complex.
    """
    n = len(spectra) - 1
    spectral = np.zeros(spectra[0].shape[:-1] + t.shape)
    for k, spec in enumerate(spectra):
        if spec.size == 0:
            continue
        lam = spec[..., None]
        hp = (1.0 - 0.5 * t * lam) * np.exp(-0.25 * t * lam)
        spectral += (-1.0) ** k * (k - 0.5 * n) * hp.sum(axis=-2)
    large = eh.chi_prime - 0.5 * n * eh.chi
    small = e.chi_prime - 0.5 * n * eh.chi  # chi(E) = chi(H)
    counter = large + (small - large) * np.real(h_prime(0.5j * np.sqrt(t)))
    return (-spectral + counter) / (2.0 * t)


def torsion_integrand(c: GradedComplex, t):
    """Deformation integrand of the scalar torsion at parameter t.

    X_t = (t v* - v)/2, so that X_t^2 = -(t/4) Laplacian; everything is
    evaluated spectrally (see _spectral_integrand) and t may be an array.
    """
    t = np.asarray(t, dtype=float)
    return _spectral_integrand(c.spectra, euler_chars(c), euler_chars_cohomology(c), t)


def finite_torsion_integral(c: GradedComplex):
    """Scalar torsion as the integral of torsion_integrand over (0, inf).

    Only well defined (convergent at both ends) when the complex is acyclic;
    agreement with finite_torsion is the dual-route check. The spectra are
    the complex's own (`spectra`), not solved per quadrature node. The
    integral stops at max(200, 200 / the smallest nonzero eigenvalue).
    """
    spectra, h = c.spectra, cohomology_dims(c)
    if any(h):
        raise ValueError("integral form requires an acyclic complex")
    nonzeros = [
        _split_spectrum(spec)[1] for k, spec in enumerate(spectra) if c.ranks[k]
    ]
    lam_min = min((nz.min() for nz in nonzeros if nz.size), default=1.0)
    t_max = max(200.0, 200.0 / lam_min)
    e, eh = euler_chars(c), _euler(h)
    val, _ = scipy.integrate.quad(
        lambda t: float(_spectral_integrand(spectra, e, eh, np.array([t]))[0]),
        0.0,
        t_max,
        limit=400,
    )
    return float(val)


def complex_to_json(c: GradedComplex):
    """JSON-ready dict for a graded complex (ranks, differentials, metrics)."""

    def mat(m):
        return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}

    return {
        "ranks": list(c.ranks),
        "differentials": [mat(d) for d in c.diffs],
        "metrics": [mat(g) for g in c.metrics],
    }


def complex_from_json(obj):
    def mat(entry, rows, cols):
        m = np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
        return m.reshape(rows, cols)

    ranks = [int(r) for r in obj["ranks"]]
    diffs = [
        mat(d, ranks[k + 1], ranks[k]) for k, d in enumerate(obj["differentials"])
    ]
    metrics = [mat(g, ranks[k], ranks[k]) for k, g in enumerate(obj["metrics"])]
    return GradedComplex(tuple(ranks), diffs, metrics)
