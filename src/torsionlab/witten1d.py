"""Witten Laplacians on discretized circles and intervals.

Operators act on 0- or 1-forms for a deformed potential T f (+ an interface
deformation of amplitude A): the second-order form is
-u'' + T^2 (f' + p')^2 u -/+ T (f'' + p'') u. Two realizations are used:
central differences with the explicit zeroth-order potential (the assembled
operator the other checks run on), and a conjugated first-order difference
factor B whose singular values give the exponentially small spectrum. The
assembled operator K is solved by shift-invert Lanczos at every size, with
absolute error of order eps * ||K||, a relative error of eps * sigma_max^2
/ lambda for a small eigenvalue lambda = sigma^2. The singular values of B are
eigenvalues of GK = [[0, B], [B^H, 0]]. On an interval piece B is
bidiagonal, GK a zero-diagonal tridiagonal path in B's own order, and
bisection (LAPACK stebz) gives every singular value to a few eps relative,
however small (Demmel and Kahan, Accurate singular values of bidiagonal
matrices, 1990). On the circle B is cyclic, and each value is the root of a
bordered secular equation, bracketed by the same bisection on a path, O(n)
per value, to about eps * sigma_max absolute (values below that are noise).
Both claims are checked against 50-digit mpmath oracles in the tests. A
factor whose rank exceeds dense_limit is solved instead by shift-invert
Lanczos on its rank-sized Gram operator, to eps * ||op|| absolute; that
operator is positive semi-definite by construction, so each Lanczos step
solves op - shift I at a negative shift by tridiagonal LDL^T (LAPACK
dpttrf/dpttrs), the circle's cyclic corner by a bordered step. Either way B
is solved once, and both form degrees read that one solve.

Boundary conditions on an interval piece: 'absolute' is Neumann for 0-forms
and Dirichlet for 1-forms, 'relative' the swap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .birthdeath import PiecewisePoly, _hermite, _hermite_integral
from .graded import _owned

__all__ = [
    "InterfaceProfile",
    "WittenProblem1D",
    "SpectrumResult",
    "build_p_profile",
    "circle_problem",
    "assemble",
    "assemble_factor",
    "spectrum",
    "factor_spectrum",
    "factor_eigenpairs",
    "gluing_scan",
    "small_eigenvalue_scan",
    "agmon_distance",
    "agmon_decay_check",
    "cubic_model_eigs",
    "schauder_norm",
]

SMOOTH_FRAC = 1e-4
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
WELL_WIDTH = 0.3  # half-width of the wells (critical neighborhoods) of agmon_decay_check
UNDERFLOW = 1e-14  # small_eigenvalue_scan's cut: smaller values sit under the circle's floor


@dataclass(frozen=True)
class InterfaceProfile:
    """Odd interface deformation profile p_A on [-2r, 2r].

    shape holds p_{A=1} on [0, 2r]; p_A(s) = A sign(s) shape(|s|). The
    derivative window [C1 A, 2 C1 A] is certified on [0, 0.02 r]; C2 and
    max_slope bound |shape''| and |shape'| on [0, r]. Immutable; the numbers
    must be finite (ValueError).
    """

    shape: PiecewisePoly
    r: float
    A: float
    C1: float
    C2: float
    max_slope: float

    def __post_init__(self):
        if not np.isfinite([self.r, self.A, self.C1, self.C2, self.max_slope]).all():
            raise ValueError("interface profile numbers must be finite")

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.A * np.sign(s) * self.shape.value(np.abs(s))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self.A * self.shape.deriv(np.abs(s))

    def deriv2(self, s):
        s = np.asarray(s, dtype=float)
        return self.A * np.sign(s) * self.shape.deriv2(np.abs(s))


def build_p_profile(A, r):
    """Odd C^2 interface profile: flat +-A r^2/2 beyond |s| = r, a pure
    half-quadratic on most of the tube and a certified derivative window
    near the center. The window, the flat branch and the oddness are
    checked on samples; a violation raises ValueError."""
    if A < 0 or r <= 0:
        raise ValueError("need A >= 0 and r > 0")
    w = 0.02 * r
    eps = SMOOTH_FRAC * r

    def quad(s):  # A=1 branch on [w, r - eps]
        return 0.5 * r**2 - 0.5 * (s - r) ** 2

    d_edge = r - w  # slope of quad at w (= 0.98 r)
    target = quad(w)
    # derivative ramp on [0, w]: cubic Hermite with p''(0) = 0 (oddness)
    # and matching the quadratic at w; d0 fixed by the value climb
    d0 = 2.0 * (target - w * w * 1.0 / 12.0) / w - d_edge
    knots = [0.0, w, r - eps, r]
    coeffs = [
        _hermite_integral(0.0, w, 0.0, (d0, 0.0), (d_edge, -1.0)),
        np.array([quad(w), d_edge, -0.5]),
        _hermite(r - eps, r, (quad(r - eps), eps, -1.0), (0.5 * r**2, 0.0, 0.0)),
        np.array([0.5 * r**2]),
    ]
    shape = PiecewisePoly(knots, coeffs)
    ss = np.linspace(0.0, w, 2001)
    dv = shape.deriv(ss)
    c1 = float(dv.min())
    full = np.linspace(0.0, r, 4001)
    c2 = float(np.abs(shape.deriv2(full)).max())
    prof = InterfaceProfile(shape=shape, r=r, A=float(A), C1=c1, C2=c2,
                            max_slope=float(np.abs(shape.deriv(full)).max()))
    if dv.max() > 2.0 * c1 + 1e-9 * r:
        raise ValueError(
            f"derivative window violated on [0, 0.02r]: range [{dv.min():.3e}, {dv.max():.3e}]"
        )
    if abs(shape.value(1.5 * r) - 0.5 * r**2) > 1e-12 * r**2:
        raise ValueError("flat branch violated at 1.5 r")
    s_odd = np.linspace(-2 * r, 2 * r, 1001)
    if np.abs(prof.value(s_odd) + prof.value(-s_odd)).max() > 1e-12 * (A + 1) * r**2:
        raise ValueError("oddness violated")
    return prof


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WittenProblem1D:
    """Grid, potential data and deformation parameters for one operator.

    fp/fpp are samples of f' + p_A' and f'' + p_A'' at the nodes (the
    operator only sees those combinations), one per node; `nodes` increase
    with uniform spacing h (each step within 1e-9 h), periodic for the
    circle (last node != first). Immutable: nodes, fp and fpp are read-only
    copies; they, T and A must be finite. A violation raises ValueError.
    """

    topology: str
    nodes: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    T: float
    A: float = 0.0
    bc: str = "none"
    form_degree: int = 0

    def __post_init__(self):
        if self.topology not in ("circle", "interval"):
            raise ValueError("topology must be 'circle' or 'interval'")
        if self.form_degree not in (0, 1):
            raise ValueError("form_degree must be 0 or 1")
        if self.topology == "circle" and self.bc != "none":
            raise ValueError("boundary conditions are undefined on a circle")
        if self.topology == "interval" and self.bc not in ("absolute", "relative"):
            raise ValueError("interval pieces need absolute or relative conditions")
        if not np.isfinite([self.T, self.A]).all():
            raise ValueError("T and A must be finite")
        for name in ("nodes", "fp", "fpp"):
            object.__setattr__(self, name, _owned(np.array(getattr(self, name), dtype=float), name))
        if self.n_nodes < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_nodes}")
        if self.fp.shape != self.nodes.shape or self.fpp.shape != self.nodes.shape:
            raise ValueError(f"fp and fpp need one entry per node ({self.n_nodes} nodes)")
        h = self.h
        if not (h > 0 and (np.abs(np.diff(self.nodes) - h) <= 1e-9 * h).all()):
            raise ValueError("nodes must increase with uniform spacing")
        resolve = 0.1 / (self.T * np.abs(self.fp).max() + 1.0)
        if h > resolve * (1 + 1e-12):
            raise ValueError(
                f"grid too coarse: h={h:.3e} exceeds resolution bound {resolve:.3e}"
            )

    @property
    def h(self):
        return float(self.nodes[1] - self.nodes[0])

    @property
    def n_nodes(self):
        return len(self.nodes)


def circle_problem(f_triple, T, n_nodes=None, A=0.0, interface=None,
                   form_degree=0):
    """Build a circle problem from callables (f, f', f'').

    interface = (cuts, r, profile) adds the odd deformation around each cut
    with alternating sign, so the potential is single-valued: the piece
    between cuts[0] and cuts[1] is the minus side.
    """
    _, fp, fpp = f_triple
    probe = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    fp_max = np.abs(fp(probe)).max()
    if interface is not None:
        cuts, _, prof = interface
        fp_max += prof.A * prof.max_slope
    if n_nodes is None:
        h_max = 0.1 / (T * fp_max + 1.0)
        n_nodes = int(np.ceil(2 * np.pi / h_max))
    s = np.linspace(0, 2 * np.pi, n_nodes, endpoint=False)
    fps = fp(s).astype(float)
    fpps = fpp(s).astype(float)
    if interface is not None:
        pp, ppp = interface_samples(s, cuts, prof)
        fps = fps + pp
        fpps = fpps + ppp
    return WittenProblem1D("circle", s, fps, fpps, T, A=A, form_degree=form_degree)


def interface_samples(s, cuts, prof: InterfaceProfile):
    """Samples of p' and p'' on the circle for two cuts.

    Between cuts[0] and cuts[1] the profile sits at its minus plateau; the
    ascent happens across cuts[1] -> beyond, descent across cuts[0].
    """
    if len(cuts) != 2:
        raise ValueError("need exactly two interface cuts on a circle")
    c0, c1 = cuts
    pp = np.zeros_like(s)
    ppp = np.zeros_like(s)

    def wrap(d):
        return (d + np.pi) % (2 * np.pi) - np.pi

    for cut, sign in ((c0, -1.0), (c1, +1.0)):
        d = wrap(s - cut)
        mask = np.abs(d) <= 2 * prof.r
        pp[mask] += sign * prof.deriv(d[mask])
        ppp[mask] += sign * prof.deriv2(d[mask])
    return pp, ppp


def interval_problem(parent: WittenProblem1D, i0, i1, bc, form_degree=None):
    """Restrict a circle problem to the node range [i0, i1] (inclusive)."""
    n = parent.n_nodes
    idx = np.arange(i0, i1 + 1) % n
    nodes = parent.nodes[i0] + parent.h * np.arange(len(idx))
    return WittenProblem1D(
        "interval",
        nodes,
        parent.fp[idx],
        parent.fpp[idx],
        parent.T,
        A=parent.A,
        bc=bc,
        form_degree=parent.form_degree if form_degree is None else form_degree,
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _potential(problem: WittenProblem1D):
    sign = -1.0 if problem.form_degree == 0 else 1.0
    return (problem.T * problem.fp) ** 2 + sign * problem.T * problem.fpp


def assemble(problem: WittenProblem1D):
    """Sparse symmetric matrix of the central-difference realization.

    Circle: circulant -D2 + diag(V). Interval: the Neumann side is realized
    through the mass-weighted pencil, returned as the congruent symmetric
    matrix M^{-1/2} (K + M V) M^{-1/2}; Dirichlet drops the boundary nodes.
    """
    h = problem.h
    v = _potential(problem)
    n = problem.n_nodes
    if problem.topology == "circle":
        off, corner = np.full(n - 1, -1.0 / h**2), np.full(1, -1.0 / h**2)
        return sp.diags([np.full(n, 2.0 / h**2) + v, off, off, corner, corner],
                        [0, 1, -1, n - 1, 1 - n], format="csr")
    neumann = (problem.bc == "absolute") == (problem.form_degree == 0)
    if neumann:
        # stiffness + lumped mass quadratic forms
        k_main = np.full(n, 2.0 / h**2)
        k_main[0] = k_main[-1] = 1.0 / h**2
        k = sp.diags(
            [k_main * h, np.full(n - 1, -h / h**2), np.full(n - 1, -h / h**2)],
            [0, 1, -1],
            format="csr",
        )
        m_diag = np.full(n, h)
        m_diag[0] = m_diag[-1] = 0.5 * h
        k = k + sp.diags(m_diag * v)
        d = 1.0 / np.sqrt(m_diag)
        return sp.diags(d) @ k @ sp.diags(d)
    # Dirichlet: interior nodes only
    main = np.full(n - 2, 2.0 / h**2) + v[1:-1]
    return sp.diags(
        [main, np.full(n - 3, -1.0 / h**2), np.full(n - 3, -1.0 / h**2)],
        [0, 1, -1],
        format="csr",
    )


def assemble_factor(problem: WittenProblem1D):
    """Conjugated first-order difference factor of the Witten complex.

    Row i maps nodes (i, i+1) with entries -/+ exp(-/+ T dF_i / 2) / h,
    dF_i the potential increment across the edge (midpoint rule). The
    0-form Laplacian B^H B annihilates the discrete e^{-T F} exactly, and
    B's singular values carry the exponentially small spectrum: to a few
    eps relative on an interval piece, to about eps * sigma_max absolute
    on the circle (see the module docstring).
    Boundary handling: the 'absolute' factor keeps all nodes, the
    'relative' factor restricts to interior nodes.
    """
    h = problem.h
    n = problem.n_nodes
    i = np.arange(n if problem.topology == "circle" else n - 1)
    j = (i + 1) % n
    dF = problem.T * (0.5 * (problem.fp[i] + problem.fp[j])) * h
    data = np.concatenate([-np.exp(-0.5 * dF) / h, np.exp(0.5 * dF) / h])
    b = sp.coo_matrix((data, (np.concatenate([i, i]), np.concatenate([i, j]))),
                      shape=(len(i), n)).tocsr()
    return b[:, 1:-1] if problem.bc == "relative" else b


def factor_spectrum(problem: WittenProblem1D, k=None, dense_limit=1800):
    """Low spectrum of the factorized Witten Laplacian.

    For form_degree 0 the operator is B^H B, for 1 it is B B^H; both degrees
    read one solve of B (see _factor_spectra), so they share every nonzero
    value bit for bit, and exact kernel dimensions follow from the factor
    shape and rank. Factors of rank up to dense_limit take their lowest
    singular values from _factor_svals: to a few eps relative on an
    interval piece, to about eps * sigma_max absolute on the circle, zero at
    or below 64 eps * max(||GK||_inf, 1), within sqrt(2) of
    64 eps * max(sigma_max, 1). Larger factors take shift-invert Lanczos on
    the rank-sized Gram operator at the shift -1e-8 ||op||, solved by
    tridiagonal LDL^T (_shift_inverse), to eps * ||op|| absolute, its values
    below the roundoff floor 30 eps * ||op|| clamped to zero. Either route
    computes only the values it returns: the k lowest eigenvalues, with the
    kernel dimension; with k=None at most 10. k < 1 is refused.
    """
    return _factor_spectra(problem, k, dense_limit)[problem.form_degree]


def _factor_spectra(problem: WittenProblem1D, k=None, dense_limit=1800):
    """factor_spectrum of `problem` in form degrees 0 and 1, in that order.

    B does not depend on the form degree, and B^H B and B B^H share the
    squares of its rank = min(B.shape) singular values; they differ only
    in their dim - rank structural zeros. So B is solved once, for the
    _count(k) values returned (the structural zeros only shorten what a
    degree reads): by _factor_svals when rank <= dense_limit, else by one
    shift-invert eigsh on the Gram operator of size rank, the one with no
    structural kernel, at the shift -1e-8 ||op|| and with the tridiagonal
    LDL^T solve of _factor_operator as its OPinv.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b = assemble_factor(problem)
    rows, cols = b.shape
    rank = min(rows, cols)
    want = _count(k)
    if rank <= dense_limit:
        svals, floor = _factor_svals(b, min(rank, want))
        lam, n_zero = svals**2, int((svals <= floor).sum())
    else:
        op, shift, clamp, opinv = _factor_operator(b, 0 if rows >= cols else 1)
        lam = _shift_invert(op, min(rank - 2, want), shift, opinv, False)
        lam[np.abs(lam) < clamp] = 0.0
        n_zero = int((lam == 0.0).sum())
    return tuple(_padded_spectrum(lam, n_zero, dim, rank, k) for dim in (cols, rows))


def _factor_svals(b, want):
    """Lowest singular values of the factor (ascending) and the kernel
    floor 64 eps * max(||GK||_inf, 1), at or below which they count as zero:
    ||GK||_inf = max(||B||_1, ||B||_inf) is in [sigma_max, sqrt(2) sigma_max],
    B having at most two entries per row and column. A square (circle) B is
    cyclic (_cyclic_svals). A bidiagonal (interval) B's values are
    eigenvalues of GK, the zero-diagonal path of B's two diagonals
    interleaved in B's own order, by bisection to 2 * tiny absolute
    (_path_eigvals), once per window of `want` values, widened until it
    passes the floor: no kernel value is left out.
    """
    norm = max(spla.norm(b, 1), spla.norm(b, np.inf))
    floor = 64 * EPS * max(norm, 1.0)
    (rows, cols), lo, rank = b.shape, max(b.shape), min(b.shape)
    if rows == cols:
        return _cyclic_svals(b, want, floor, norm), floor
    off = np.stack([b.diagonal(), b.diagonal(1 if rows < cols else -1)], axis=1).ravel()
    while True:
        svals = np.sort(np.abs(_path_eigvals(off, lo, lo + want - 1, 2 * TINY)))
        if want == rank or svals[-1] > floor:
            return svals, floor
        want = min(rank, 2 * want)


def _path_eigvals(off, lo, hi, tol=0.0):
    """Eigenvalues lo..hi (ascending, counted from 0) of the zero-diagonal
    symmetric tridiagonal with off-diagonal `off`, by LAPACK stebz
    bisection to absolute tolerance tol (tol <= 0: eps * its 1-norm)."""
    return scipy.linalg.eigh_tridiagonal(np.zeros(len(off) + 1), off, eigvals_only=True,
                                         select="i", select_range=(lo, hi), tol=tol)


def _cyclic_svals(b, want, floor, norm):
    """The `want` lowest singular values of a real cyclic B (B[i, i],
    B[i, i+1 mod n]), zero below the floor, O(n) each by the bordered
    secular equation (Golub 1973; Bunch, Nielsen and Sorensen 1978): GK
    without the column node y_0 is the zero-diagonal path P (x_0, y_1, x_1,
    ..., x_{n-1}) with border u = B[0, 0] e_first + B[n-1, 0] e_last. By
    interlacing sigma_j lies in [mu_{n-1+j}, mu_{n+j}] of P's symmetric
    spectrum (mu_{n-1} = 0; _path_eigvals) as the root of
    s(x) = -x - u^T (P - x)^{-1} u, and one dgtsv solve, with no BLAS call,
    gives s and s' = -1 - ||(P - x)^{-1} u||^2. By Haynsworth's inertia
    formula GK has as many eigenvalues below x as P, plus one if s(x) < 0,
    so the kernel is counted at the floor, in a window widened until its
    last mu passes it. A singular solve or a root off its bracket raises
    np.linalg.LinAlgError."""
    n = b.shape[0]
    off = np.stack([b.diagonal(1), b.diagonal()[1:]], axis=1).ravel()
    mu = [0.0, *_path_eigvals(off, n, n - 2 + min(want + 1, n)).tolist(), norm]
    if want < n and mu[want] < floor:
        return _cyclic_svals(b, min(n, 2 * want), floor, norm)
    u = np.concatenate([[b[0, 0]], np.zeros(2 * n - 3), [b[n - 1, 0]]])

    def s(x):
        z, info = scipy.linalg.lapack.dgtsv(off, np.full(2 * n - 1, -x), off, u)[3:]
        if info != 0:
            raise np.linalg.LinAlgError(f"secular solve at {x!r} failed (dgtsv info {info})")
        return float(-x - (u[0] * z[0] + u[-1] * z[-1])), float(-1.0 - (z * z).sum())

    svals = np.zeros(want)
    for j in range(min(want, sum(m < floor for m in mu[1:want + 1]) + (s(floor)[0] < 0)), want):
        svals[j] = _secular_root(s, mu[j], mu[j + 1], 2 * EPS * norm)
        if not mu[j] <= svals[j] <= mu[j + 1]:
            raise np.linalg.LinAlgError(f"secular root {svals[j]!r} off [{mu[j]!r}, {mu[j + 1]!r}]")
    return svals


def _secular_root(s, lo, hi, tau):
    """Root of the secular function s (value, slope) between its poles
    lo < hi. s is not resolved within tau of a pole, so the guards hi - tau
    and lo + tau come first: a root beyond one is that pole. A pole that
    dominates s at its guard (s = w / (x - p) there) is divided out at that
    p: Newton steps on F = s * prod(x - p), started from the secant of F
    through the guards, keep the sign bracket of s."""
    a, b = lo + tau, hi - tau
    if b <= a:
        return 0.5 * (lo + hi)
    guards = []
    for guard, pole, side in ((b, hi, -1.0), (a, lo, 1.0)):
        guards.append((guard, *s(guard)))
        if side * guards[-1][1] <= 0:
            return pole
    poles = [g + v / d for g, v, d in guards if abs(v / d) <= 2 * tau]

    def pole_free(x, val, slope):
        for p in poles:
            val, slope = val * (x - p), slope * (x - p) + val
        return val, slope

    (fb, _), (fa, _) = (pole_free(*g) for g in guards)
    x = a - fa * (b - a) / (fb - fa)
    for _ in range(100):
        val, slope = s(x)
        a, b = (x, b) if val > 0 else (a, x)
        f, df = pole_free(x, val, slope)
        x, last = x - f / df if df else 0.5 * (a + b), x
        if abs(x - last) <= 0.5 * tau or b - a <= tau:
            return min(max(x, a), b)
        x = x if a < x < b else 0.5 * (a + b)
    raise np.linalg.LinAlgError("secular iteration did not converge")


def _padded_spectrum(lam, n_zero, dim, rank, k):
    """(eigenvalues, kernel) of a dim-sized factor Laplacian from the
    lowest eigenvalues `lam` (ascending) of its rank-sized Gram operator,
    the first n_zero of which count as zero: the dim - rank structural
    zeros are padded in, and the kernel is dim - rank + n_zero."""
    lam = np.concatenate([np.zeros(dim - rank), lam])
    kernel = dim - rank + n_zero
    lam[:kernel] = 0.0
    return lam[: _count(k)], kernel


def _count(k):
    """How many of the lowest eigenvalues a factor solve returns: k, or
    10 when k is None."""
    return 10 if k is None else k


def _factor_operator(b, form_degree):
    """Shift-invert setup for the factor Laplacian: the operator B^H B
    (degree 0) or B B^H (degree 1), the shift -1e-8 ||op||, the roundoff
    floor 30 eps ||op|| below which its eigenvalues are zero (||op||
    estimated as 2 max|diag|) and the OPinv of _shift_invert, a
    tridiagonal LDL^T solve of op - shift I (_shift_inverse):
    op is positive semi-definite by construction, so the negative shift
    makes op - shift I positive definite. The shift is about 4.5e7 times
    the rounding floor eps ||op|| of that LDL^T, so it stays definite, and
    near enough to the wanted values (0 to O(10)) that their images
    1 / (lambda - shift) stand apart for ARPACK."""
    op = (b.conj().T @ b) if form_degree == 0 else (b @ b.conj().T)
    norm_est = float(np.abs(op.diagonal()).max()) * 2.0
    shift = -1e-8 * norm_est
    return op, shift, 30.0 * EPS * norm_est, _shift_inverse(op, shift)


def _pttrf(d, e):
    """LAPACK dpttrf: the LDL^T factors (diagonal of D, subdiagonal of L)
    of the symmetric tridiagonal matrix with diagonal d and off-diagonal e;
    raises np.linalg.LinAlgError where it is not positive definite."""
    d, e, info = scipy.linalg.lapack.dpttrf(d, e)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"shifted factor operator not positive definite (dpttrf info {info})")
    return d, e


def _shift_inverse(op, shift):
    """x = (op - shift I)^{-1} r as an eigsh OPinv, for a real symmetric op
    that is tridiagonal or tridiagonal plus the cyclic corner op[0, n-1]
    (the circle's Gram operator), with op - shift I positive definite.

    LAPACK's tridiagonal LDL^T (dpttrf once, dpttrs per solve) needs no
    pivoting there and is backward stable, so the eigenvalues keep the
    eps * ||op|| accuracy of the sparse LU it replaces. A corner is
    eliminated last, as a bordered step: the leading n-1 block T' is
    factored once and z = T'^{-1} u precomputed for the last column u,
    whose nonzeros are the corner and op[n-2, n-1]; a solve is then one
    dpttrs and scalar work, with no BLAS call. A matrix that is not
    positive definite raises np.linalg.LinAlgError.
    """
    dpttrs = scipy.linalg.lapack.dpttrs
    n = op.shape[0]
    d, e = op.diagonal() - shift, op.diagonal(1)
    corner = op[0, n - 1] if n > 2 else 0.0
    if corner == 0.0:
        df, ef = _pttrf(d, e)

        def solve(r):
            return dpttrs(df, ef, r)[0]
    else:
        df, ef = _pttrf(d[:-1], e[:-1])
        edge = e[-1]
        u = np.zeros(n - 1)
        u[0], u[-1] = corner, edge
        z = dpttrs(df, ef, u)[0]
        schur = d[-1] - (corner * z[0] + edge * z[-1])
        if not schur > 0.0:
            raise np.linalg.LinAlgError(
                "shifted factor operator not positive definite (bordered step)")

        def solve(r):
            y = dpttrs(df, ef, r[:-1])[0]
            last = (r[-1] - corner * y[0] - edge * y[-1]) / schur
            return np.append(y - last * z, last)
    return spla.LinearOperator(op.shape, matvec=solve, dtype=float)


def _shift_invert(op, nev, shift, opinv, vectors):
    """The nev eigenvalues of the symmetric op nearest the shift, ascending
    (a stable sort: no CPU-dependent ties), with their vectors if `vectors`,
    by eigsh from the fixed start vector 1 / sqrt(n); op - shift I is solved
    by opinv, or by SuperLU when opinv is None."""
    n = op.shape[0]
    out = spla.eigsh(op, k=nev, sigma=shift, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)),
                     OPinv=opinv, return_eigenvectors=vectors)
    if not vectors:
        return np.sort(out)
    order = sorted(range(nev), key=out[0].__getitem__)
    return out[0][order], out[1][:, order]


def _spectrum_result(problem: WittenProblem1D, op, w, vecs, kernel_dim):
    """SpectrumResult of the pairs (w, vecs) of op; its metadata holds the
    problem's parameters and the residuals, checked by _checked_residuals."""
    return SpectrumResult(w, vecs, kernel_dim, {
        "T": problem.T, "A": problem.A, "bc": problem.bc, "N": problem.n_nodes,
        "form_degree": problem.form_degree, "residuals": _checked_residuals(op, w, vecs)})


def _checked_residuals(op, w, vecs):
    """Residuals ||op v - lambda v|| of the eigenpairs (w, vecs); raises
    RuntimeError where one exceeds 1e-8 max(1, |lambda|) ||v||."""
    residuals = np.linalg.norm(op @ vecs - vecs * w, axis=0)
    for j, res in enumerate(residuals):
        if res > 1e-8 * max(1.0, abs(w[j])) * np.linalg.norm(vecs[:, j]):
            raise RuntimeError(f"eigenpair {j} residual {res:.3e} too large")
    return residuals


def factor_eigenpairs(problem: WittenProblem1D, k):
    """Lowest k eigenpairs of the factor Laplacian B^H B (degree 0) or
    B B^H (degree 1), by the shift-invert Lanczos of factor_spectrum's
    large factors (_factor_operator, shift -1e-8 ||op||), with vectors,
    from a window of k + 2 of which the lowest k are kept: eigenvalues to
    eps * ||op|| absolute, those below 30 eps ||op|| clamped to zero.
    Residuals ||op v - lambda v|| are checked at 1e-8 max(1, |lambda|), the
    gate of spectrum(); metadata['residuals'] holds them. k < 1 is refused.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    op, shift, clamp, opinv = _factor_operator(assemble_factor(problem), problem.form_degree)
    w, vecs = _shift_invert(op, min(op.shape[0] - 2, k + 2), shift, opinv, True)
    w, vecs = w[:k], vecs[:, :k]
    w[np.abs(w) < clamp] = 0.0
    return _spectrum_result(problem, op, w, vecs, int((w == 0.0).sum()))


def spectrum(problem: WittenProblem1D, k):
    """Lowest k eigenpairs (1 <= k <= n // 4) of the assembled operator K.

    Shift-invert Lanczos (Ericsson and Ruhe, 1980) at every size, from a
    fixed start vector: eigenvalues to a small multiple of eps * ||K||
    absolute, checked against a dense eigh in the tests; residuals gated at
    1e-8 max(1, |lambda|).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    mat = assemble(problem)
    n = mat.shape[0]
    if k > n // 4:
        raise ValueError("k must stay below a quarter of the grid size")
    shift = -1e-3 * max(1.0, np.abs(mat.diagonal()).max() / n)
    w, vecs = _shift_invert(mat, k, shift, None, True)
    kernel_tol = max(1e-8, 2e-6 * max(np.abs(w).max(), 1.0))
    return _spectrum_result(problem, mat, w, vecs, int((w < kernel_tol).sum()))


# ---------------------------------------------------------------------------
# spectral gluing
# ---------------------------------------------------------------------------

def gluing_scan(f_triple, T, A_ladder, interface_r, cuts=(np.pi / 4, 7 * np.pi / 4),
                k=8, n_nodes=None):
    """Compare the full-circle spectrum with the split abs/rel problems.

    For each amplitude in A_ladder the circle gets the odd interface
    deformation at both cuts; the piece between the cuts (minus plateau)
    carries absolute conditions, the complement relative ones. Eigenvalues
    come from the factorized operators (factor_spectrum: _factor_svals up
    to rank 1800, shift-invert Lanczos beyond), the k lowest of the circle
    paired in sorted order with the k lowest of the two pieces together.
    Each factor is solved once per rung, and both form degrees read that
    solve, so their nonzero values agree bit for bit. Returns a table per
    form degree (0 and 1) with per-k gaps, plus the small-cluster count of
    the glued operator against the summed exact kernel dimensions of the
    pieces.
    """
    if not all(a2 > a1 for a1, a2 in zip(A_ladder, A_ladder[1:])):
        raise ValueError("A_ladder must be increasing")
    _, fp, _ = f_triple
    # interfaces must avoid critical points of f
    probe = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    fps = fp(probe)
    crit = probe[np.abs(fps) < 1e-3 * max(1.0, np.abs(fps).max())]
    for c in cuts:
        if crit.size and np.min(np.abs((crit - c + np.pi) % (2 * np.pi) - np.pi)) < 2.2 * interface_r:
            raise ValueError(f"interface at {c:.3f} sits too close to a critical point")
    out = {0: [], 1: []}
    n_low = _count(k)
    for A in A_ladder:
        prof = build_p_profile(A, interface_r)
        full = circle_problem(f_triple, T, n_nodes=n_nodes, A=A,
                              interface=(cuts, interface_r, prof))
        # snap cuts to grid nodes
        i0 = int(round(cuts[0] / full.h))
        i1 = int(round(cuts[1] / full.h))
        piece_abs = interval_problem(full, i0, i1, "absolute")
        piece_rel = interval_problem(full, i1, i0 + full.n_nodes, "relative")
        spectra = [_factor_spectra(p, k=k) for p in (full, piece_abs, piece_rel)]
        for deg in (0, 1):
            (lam_full, _), (la, ka), (lb, kb) = (s[deg] for s in spectra)
            lam_split = np.sort(np.concatenate([la, lb]))[:n_low]
            out[deg].append(
                {
                    "A": A,
                    "lambda": lam_full,
                    "lambda_split": lam_split,
                    "gaps": np.abs(lam_full - lam_split),
                    "cluster_count": _small_cluster_count(lam_full),
                    "kernel_sum": ka + kb,
                    "kernel_abs": ka,
                    "kernel_rel": kb,
                }
            )
    return out


def _small_cluster_count(lam):
    """Count of the exponentially small group, split at the largest
    multiplicative gap below the O(1) scale; a largest gap under a factor
    10 warns and counts the values below 1e-8 times the median."""
    lam = np.asarray(lam)
    pos = lam[lam > 0]
    if pos.size == 0:
        return len(lam)
    diffs = np.diff(np.log(np.clip(lam, 1e-30, None)))
    if diffs.size == 0 or diffs.max() < np.log(10.0):
        warnings.warn("cluster/continuum split ambiguous (gap ratio < 10)")
        return int((lam < 1e-8 * max(np.median(pos), 1e-30)).sum())
    return int(np.argmax(diffs)) + 1


# ---------------------------------------------------------------------------
# small-eigenvalue decay and Agmon machinery
# ---------------------------------------------------------------------------

def agmon_distance(f_triple, T, from_set, n_nodes=2048):
    """Node-sampled Agmon distance from a source set on the circle.

    Shortest path on the node cycle with edge weight T * max(|f'(mid)| h,
    |df|), which keeps rho_T >= T |f(x) - f(source)| exact on the grid and
    scales exactly linearly in T: the least of the running sums (left folds,
    as a graph search adds) one way and the other round from every source.
    """
    f, fp, _ = f_triple
    s = np.linspace(0, 2 * np.pi, n_nodes, endpoint=False)
    h = s[1] - s[0]
    mids = s + 0.5 * h
    df = np.abs(f(np.roll(s, -1)) - f(s))  # f is 2 pi periodic
    w = T * np.maximum(np.abs(fp(mids)) * h, df)  # w[i] joins nodes i and i+1
    dist = np.full(n_nodes, np.inf)
    steps = np.arange(n_nodes)
    for src in np.asarray(from_set, dtype=int):
        ahead, back = (src + steps) % n_nodes, (src - steps) % n_nodes
        for path, edges in ((ahead, ahead[:-1]), (back, back[1:])):
            dist[path] = np.minimum(dist[path], np.concatenate([[0.0], np.cumsum(w[edges])]))
    return s, dist


def _sign_change(vals):
    """Mask of periodic samples i with vals[i] and vals[i+1] on opposite
    sides of zero (an exact zero counts as nonnegative)."""
    return (vals < 0) != (np.roll(vals, -1) < 0)


def critical_neighborhood_mask(f_triple, s):
    """Boolean mask of nodes within WELL_WIDTH of a critical point of f."""
    _, fp, _ = f_triple
    fine = np.linspace(0, 2 * np.pi, 16384, endpoint=False)
    vals = fp(fine)
    crit = fine[(vals == 0.0) | _sign_change(vals)]
    mask = np.zeros(len(s), dtype=bool)
    for c in crit:
        d = np.abs((s - c + np.pi) % (2 * np.pi) - np.pi)
        mask |= d <= WELL_WIDTH
    return mask


def small_eigenvalue_scan(f_triple, T_ladder, k_branches=1):
    """Fit the exponential decay of the tunneling branch against the Agmon
    prediction.

    For each T the circle factor's secular solve (_factor_svals, error
    eps * sigma_max in sigma) provides the sub-cluster eigenvalues sigma^2
    above its kernel, the constants; branches are followed by index, and
    values below UNDERFLOW are dropped. The grid is circle_problem's. The
    prediction is -2 * (Agmon distance at T=1 from the well set to the
    nearest separating ridge), the quantity controlling the squared singular
    value of the deformed differential between well states. The log-linear
    fit needs a ladder of at least 3 values.
    """
    if len(T_ladder) < 3:
        raise ValueError(f"need a T ladder of at least 3 values, got {len(T_ladder)}")
    lam_branches = {j: [] for j in range(1, k_branches + 1)}
    ts_used = {j: [] for j in range(1, k_branches + 1)}
    for T in T_ladder:
        prob = circle_problem(f_triple, T, form_degree=0)
        # a window that held only kernel values comes back widened: its
        # extra values are the continuum, not a branch
        svals, floor = _factor_svals(assemble_factor(prob), k_branches + 1)
        svals = svals[: k_branches + 1]
        nonzero = svals[svals > floor] ** 2
        for j, val in enumerate(nonzero[:k_branches], 1):
            if val >= UNDERFLOW:
                lam_branches[j].append(val)
                ts_used[j].append(T)
    # Agmon oracle: distance from the wells to the separating ridge
    s, rho1 = agmon_distance(f_triple, 1.0, _critical_nodes(f_triple, 2048, +1))
    ridge = _critical_nodes(f_triple, 2048, -1)
    pred = -2.0 * float(rho1[ridge].min())
    out = {}
    for j, vals in lam_branches.items():
        ts = np.array(ts_used[j], dtype=float)
        slope = float(np.polyfit(ts, np.log(vals), 1)[0]) if len(vals) >= 3 else np.nan
        out[j] = {"slope": slope, "prediction": pred, "ok": abs(slope - pred) <= 0.10 * abs(pred),
                  "T": ts, "lambda": np.array(vals)}
    return out


def _critical_nodes(f_triple, n, curvature):
    """Nodes i of the n-point circle grid where f' changes sign between i
    and i+1 and curvature * f''(s_i) > 0: wells for +1, ridges for -1."""
    _, fp, fpp = f_triple
    s = np.linspace(0, 2 * np.pi, n, endpoint=False)
    idx = np.flatnonzero(_sign_change(fp(s)))
    return idx[curvature * fpp(s[idx]) > 0]


def agmon_decay_check(f_triple, T_ladder, b=0.5):
    """Sup over off-well nodes of log|u_T| + b rho_T across a T-ladder.

    u_T is the lowest 0-form eigenvector (sup-normalized) on circle_problem's
    grid; the wells are the critical neighborhoods of half-width WELL_WIDTH.
    The precondition lambda <= (b - b^2) c_f^2 T^2 / 4 with c_f = min |f'|
    off the wells is enforced per T, and refused before any eigensolve where
    no node lies off them.
    """
    if not (0.0 < b < 1.0):
        raise ValueError("need 0 < b < 1")
    _, fp, _ = f_triple
    sups = []
    for T in T_ladder:
        prob = circle_problem(f_triple, T, form_degree=0)
        s = prob.nodes
        off = ~critical_neighborhood_mask(f_triple, s)
        if not off.any():
            raise ValueError(f"decay precondition undefined at T={T}: no node off the wells")
        cf = np.abs(fp(s[off])).min()
        bound = (b - b * b) * cf * cf * T * T / 4.0
        res = spectrum(prob, k=2)
        lam = res.eigenvalues[0]
        if lam > bound:
            raise ValueError(
                f"eigenvalue {lam:.3e} violates decay precondition {bound:.3e} at T={T}"
            )
        u = res.eigenvectors[:, 0]
        u = u / np.abs(u).max()
        # Agmon distance from the critical neighborhoods on the problem grid
        wells = np.where(~off)[0]
        sgrid, rho = agmon_distance(f_triple, T, _nearest_nodes(s[wells], 2048), n_nodes=2048)
        rho_at = np.interp(s, sgrid, rho, period=2 * np.pi)
        vals = np.log(np.abs(u[off]) + 1e-300) + b * rho_at[off]
        sups.append(float(vals.max()))
    return np.array(sups)


def _nearest_nodes(positions, n):
    return np.unique(np.round(np.asarray(positions) / (2 * np.pi / n)).astype(int) % n)


# ---------------------------------------------------------------------------
# cubic model and Schauder norms
# ---------------------------------------------------------------------------

def cubic_model_eigs(T, k, n_nodes=2000, form_degree=0):
    """Neumann Witten eigenvalues for f(s) = s^3/3 on [-T^{-1/3}, T^{-1/3}].

    The grid rescales with the interval, so lambda_k(T) = T^{2/3} lambda_k(1)
    holds exactly at matched node counts.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    ell = T ** (-1.0 / 3.0)
    s = np.linspace(-ell, ell, n_nodes)
    prob = WittenProblem1D("interval", s, s**2, 2.0 * s, float(T), bc="absolute",
                           form_degree=form_degree)
    mat = assemble(prob)
    # tridiagonal: bisection on the diagonal and the lower off-diagonal,
    # the triangle a dense eigh reads
    return scipy.linalg.eigh_tridiagonal(mat.diagonal(), mat.diagonal(-1),
                                         eigvals_only=True, select="i",
                                         select_range=(0, k - 1))


def schauder_norm(b, n):
    """Schauder n-norm (Tr[(B^H B)^{n/2}])^{1/n} via singular values."""
    svals = np.linalg.svd(np.asarray(b, dtype=complex), compute_uv=False)
    if n == np.inf:
        return float(svals.max()) if svals.size else 0.0
    if n < 1:
        raise ValueError("need n >= 1 or n = inf")
    return float((svals**n).sum() ** (1.0 / n))
