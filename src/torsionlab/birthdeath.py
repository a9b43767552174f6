"""Model functions near a birth-death singularity and their critical census.

The model lives on R^{n+1} with coordinates u_0..u_n. The base function is
cubic in u_0 and quadratic elsewhere; two shaping profiles (eta, eta_tilde)
and a radial deformation of amplitude A produce six extra Morse points in a
thin annulus while leaving everything outside unchanged. All profiles are
C^2 piecewise polynomials with every pinned value reproduced exactly on the
bands the census argument uses.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.integrate

__all__ = [
    "ModelParams",
    "ShapingProfiles",
    "CriticalPoint",
    "ProfileConstructionError",
    "build_profiles",
    "eval_f",
    "find_critical_points",
    "closed_form_candidates",
    "separation_report",
    "radial_derivative_check",
    "flow_containment_probe",
    "forward_trap_check",
    "census_records",
    "smallest_stable_amplitude",
]

NEWTON_SEED = 0x5EED
#: |lambda|_min below this fraction of max(1, |lambda|_max) flags birth-death
DEGENERACY_RTOL = 1e-4
#: annulus constant of the radial-derivative bound (any value > 3 works)
C0_ANNULUS = 10.0
#: relative width of the C^2 smoothing windows at the deformation band edges
SMOOTH_FRAC = 1e-4


class _FlowBudgetExceeded(RuntimeError):
    pass


class ProfileConstructionError(ValueError):
    def __init__(self, clause, detail):
        self.clause = clause
        super().__init__(f"profile condition violated [{clause}]: {detail}")


@dataclass(frozen=True)
class ModelParams:
    n: int
    i: int
    r1: float
    r2: float
    delta: float
    y: float = 0.0
    A: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ValueError("need integer ambient parameter n >= 3")
        if not (2 <= self.i <= self.n - 1):
            raise ValueError("index parameter i must lie in {2..n-1}")
        if not (0.0 < self.r1 < self.r2 < 1.0 / 14.0):
            raise ValueError("radii must satisfy 0 < r1 < r2 < 1/14")
        if not (0.0 < self.delta < self.r1 / 24.0):
            raise ValueError("delta must lie in (0, r1/24)")
        if not abs(self.y) < self.delta**2:
            raise ValueError("|y| must be smaller than delta^2")
        if self.A < 0:
            raise ValueError("deformation amplitude A must be >= 0")


class PiecewisePoly:
    """C^2 piecewise polynomial on [0, inf), constant beyond the last knot.

    coeffs[i] are monomial coefficients in (s - knots[i]) on
    [knots[i], knots[i+1]); the last piece extends to infinity. tables[k]
    holds the k-th derivative (k = 0, 1, 2) of every piece as one read-only
    (n_pieces, max_degree + 1 - k) array of coefficients, lowest power
    first, zero-padded in the high powers; every evaluation reads these
    tables.
    """

    def __init__(self, knots, coeffs):
        self.knots = tuple(float(k) for k in knots)
        self.coeffs = tuple(_read_only(np.array(c, dtype=float)) for c in coeffs)
        width = max(len(c) for c in self.coeffs)
        tables = []
        for order in range(3):
            table = np.zeros((len(self.coeffs), max(width - order, 1)))
            for i, c in enumerate(self.coeffs):
                fac = [math.perm(p, order) for p in range(order, len(c))]
                table[i, : len(fac)] = np.multiply(fac, c[order:])
            tables.append(_read_only(table))
        self.tables = tuple(tables)
        self._knot_array = _read_only(np.array(self.knots))

    def value(self, s):
        return self.derivs(s, (0,))[0]

    def deriv(self, s):
        return self.derivs(s, (1,))[0]

    def deriv2(self, s):
        return self.derivs(s, (2,))[0]

    def derivs(self, s, orders):
        """Derivatives of the given orders at s, each piece located once.

        Pieces are located in float64; the offset from the knot and the
        Horner sweep run in the input's float dtype (longdouble is kept).
        """
        s = np.asarray(s)
        if s.dtype.kind != "f":
            s = s.astype(float)
        rows = np.searchsorted(self._knot_array, s.astype(float), side="right") - 1
        rows = np.clip(rows, 0, len(self.coeffs) - 1)
        x = s - self._knot_array.astype(s.dtype, copy=False)[rows]
        return tuple(_horner_rows(self.tables[k].astype(s.dtype, copy=False), rows, x)
                     for k in orders)

    def point_evaluator(self, orders):
        """Plain-float evaluator at one point: s -> [derivative of each order].

        One bisection locates the piece, and each order runs the Horner sweep
        of `derivs` over the same table row, so the results equal the
        float64 results of `derivs` bit for bit. The rows are read once, here:
        a call costs no numpy work, for ODE right-hand sides (see
        `_point_kernel`). The zero-padded high powers are dropped; from a zero
        accumulator they add nothing.
        """
        knots = self.knots
        rows = [[np.trim_zeros(self.tables[k][piece], "b").tolist()[::-1] for k in orders]
                for piece in range(len(self.coeffs))]

        def at(s):
            piece = max(bisect.bisect_right(knots, s) - 1, 0)
            x = s - knots[piece]
            out = []
            for row in rows[piece]:
                acc = 0.0
                for c in row:
                    acc = acc * x + c
                out.append(acc)
            return out

        return at

    def knot_limits(self, order):
        """Left and right limits of the order-th derivative at the interior
        knots, as exact one-sided evaluations of the adjacent pieces."""
        table = self.tables[order]
        left = _horner_rows(table, np.arange(len(self.coeffs) - 1), np.diff(self._knot_array))
        return left, table[1:, 0]


def _read_only(a):
    a.flags.writeable = False
    return a


def _horner_rows(table, rows, x):
    """Horner sweep of table[rows] at x, highest power first from zero."""
    acc = np.zeros_like(x)
    for col in table.T[::-1]:
        acc = acc * x + col[rows]
    return acc


def _hermite(x0, x1, left, right):
    """Confluent Hermite interpolant on [x0, x1]: the polynomial of degree
    len(left) + len(right) - 1 whose derivatives of order 0, 1, ... are
    `left` at x0 and `right` at x1, as monomial coefficients in (s - x0)."""
    h, n = x1 - x0, len(left) + len(right)
    a = np.zeros((n, n))
    for k in range(len(left)):
        a[k, k] = math.factorial(k)
    for k in range(len(right)):
        for p in range(k, n):
            a[len(left) + k, p] = math.perm(p, k) * h ** (p - k)
    return np.linalg.solve(a, np.array([*left, *right], dtype=float))


def _hermite_integral(x0, x1, q0, left, right):
    """The antiderivative, with constant term q0, of _hermite(x0, x1, left, right)."""
    c = _hermite(x0, x1, left, right)
    return np.concatenate([[q0], c / np.arange(1, len(c) + 1)])


@dataclass(frozen=True)
class ShapingProfiles:
    eta: PiecewisePoly
    eta_tilde: PiecewisePoly
    q_shape: PiecewisePoly  # q_A = A * q_shape
    params: ModelParams
    plateau: tuple = (0.0, 0.0)  # [a, b] band where the derivative window holds
    C1: float = 0.0  # reported derivative-window constant of q_A
    C2: float = 0.0  # reported curvature bound |q_A''| <= C2 A
    eta_tilde_slope_bound: float = 0.0

    def q_value(self, s, A=None):
        A = self.params.A if A is None else A
        return A * self.q_shape.value(s)

    @functools.cached_property
    def _merged(self):
        """eta, eta_tilde and q_shape as one table per derivative order.

        Returns (breaks, knots, tables). The interior knots of the three
        profiles, merged, are `breaks`: searchsorted(breaks, s, "right") is the
        merged interval j of s, on which each profile is a single piece. For
        profile p (0 eta, 1 eta_tilde, 2 q_shape), knots[p, j] is the knot of
        that piece, and row p * n_int + j of tables[k] is its row of the
        profile's own tables[k], with the same zero padding in the high powers
        up to the widest of the three.
        """
        profiles = (self.eta, self.eta_tilde, self.q_shape)
        merged = np.unique(np.concatenate([pp._knot_array for pp in profiles]))
        pieces = [np.clip(np.searchsorted(pp._knot_array, merged, side="right") - 1,
                          0, len(pp.coeffs) - 1) for pp in profiles]
        knots = np.stack([pp._knot_array[piece] for pp, piece in zip(profiles, pieces)])
        tables = []
        for k in range(3):
            table = np.zeros((len(profiles) * merged.size,
                              max(pp.tables[k].shape[1] for pp in profiles)))
            for p, (pp, piece) in enumerate(zip(profiles, pieces)):
                table[p * merged.size : (p + 1) * merged.size, : pp.tables[k].shape[1]] = \
                    pp.tables[k][piece]
            tables.append(_read_only(table))
        return _read_only(merged[1:]), _read_only(knots), tuple(tables)


def _build_eta(p: ModelParams):
    r1, r2, d = p.r1, p.r2, p.delta
    knots = [0.0, r1 / 6.0, r1, r2, 2.5 * r2]
    coeffs = [
        np.zeros(1),
        _hermite(r1 / 6.0, r1, (0.0, 0.0, 0.0), (d * r1, d, 0.0)),
        np.array([d * r1, d]),  # delta * s in local coordinates
        _hermite(r2, 2.5 * r2, (d * r2, d, 0.0), (0.0, 0.0, 0.0)),
        np.zeros(1),
    ]
    return PiecewisePoly(knots, coeffs)


def _build_eta_tilde(p: ModelParams):
    r1, r2 = p.r1, p.r2
    knots = [0.0, r1 / 6.0, r1 / 2.0, r2, 2.5 * r2]
    coeffs = [
        np.zeros(1),
        _hermite(r1 / 6.0, r1 / 2.0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        np.ones(1),
        _hermite(r2, 2.5 * r2, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        np.zeros(1),
    ]
    return PiecewisePoly(knots, coeffs)


def _build_q_shape(p: ModelParams):
    """Unit-amplitude radial deformation; q_A = A * q_shape.

    Constant -A(r2-r1)^2/2 inside r1, zero beyond r2, exact half-quadratics
    near (but not at) r1 and r2 and a C^2 ramp across the middle two percent
    of the band whose plateau carries the derivative window.
    """
    r1, r2 = p.r1, p.r2
    D = r2 - r1
    eps = SMOOTH_FRAC * D
    m1 = 0.51 * r1 + 0.49 * r2
    m2 = 0.49 * r1 + 0.51 * r2
    wb = m2 - m1
    a = m1 + 0.2 * wb
    b = m2 - 0.2 * wb
    v_in = -0.5 * D**2
    d_edge = 0.49 * D

    def quad_left(s):  # (s-r1)^2/2 + v_in
        return 0.5 * (s - r1) ** 2 + v_in

    def quad_right(s):  # -(s-r2)^2/2
        return -0.5 * (s - r2) ** 2

    climb = quad_right(m2) - quad_left(m1)
    ramp_h = 0.2 * wb
    # integral of the two cubic-Hermite derivative ramps
    ramp_ints = ramp_h * d_edge + ramp_h**2 / 6.0  # both ramps, S-independent part
    plateau_w = b - a
    S = (climb - ramp_ints) / (plateau_w + ramp_h)

    knots = [0.0, r1, r1 + eps, m1, a, b, m2, r2 - eps, r2]
    coeffs = [
        np.array([v_in]),
        _hermite(r1, r1 + eps, (v_in, 0.0, 0.0), (quad_left(r1 + eps), eps, 1.0)),
        np.array([quad_left(r1 + eps), eps, 0.5]),
        _hermite_integral(m1, a, quad_left(m1), (d_edge, 1.0), (S, 0.0)),
        None,  # plateau, filled below
        _hermite_integral(b, m2, 0.0, (S, 0.0), (d_edge, -1.0)),
        np.array([quad_right(m2), r2 - m2, -0.5]),
        _hermite(r2 - eps, r2, (quad_right(r2 - eps), eps, -1.0), (0.0, 0.0, 0.0)),
        np.zeros(1),
    ]
    q_a = float(_horner_rows(coeffs[3][None], 0, a - m1))
    coeffs[4] = np.array([q_a, S])
    # anchor the right ramp’s constant so the value is continuous at b
    q_b = q_a + S * (b - a)
    coeffs[5][0] = q_b
    return PiecewisePoly(knots, coeffs), (a, b), S


def _verify_profiles(prof: ShapingProfiles, n_samples=10_000):
    p = prof.params
    r1, r2, d = p.r1, p.r2, p.delta
    rng = np.random.default_rng(12345)

    def sample(lo, hi):
        return np.sort(rng.uniform(lo, hi, n_samples))

    eta, etat, q = prof.eta, prof.eta_tilde, prof.q_shape
    s_all = sample(0.0, 3.0 * r2)
    # eta conditions
    if (eta.value(s_all) < -1e-12).any():
        raise ProfileConstructionError("eta >= 0", "negative value found")
    for lo, hi in ((0.0, r1 / 6.0), (2.5 * r2, 3.5 * r2)):
        if np.abs(eta.value(sample(lo, hi))).max() > 1e-14:
            raise ProfileConstructionError("eta support", f"nonzero on [{lo},{hi}]")
    s_lin = sample(r1, r2)
    if np.abs(eta.value(s_lin) - d * s_lin).max() > 1e-13:
        raise ProfileConstructionError("eta = delta*s on (r1,r2)", "mismatch")
    if np.abs(eta.deriv(s_all)).max() >= 2.0 * d:
        raise ProfileConstructionError("|eta'| < 2 delta", f"max {np.abs(eta.deriv(s_all)).max():.3e}")
    s_pos = sample(r1 / 6.0 + 1e-9, 2.5 * r2 - 1e-9)
    if (eta.value(s_pos) <= 0).any():
        raise ProfileConstructionError("eta > 0 inside support", "zero crossing")
    # eta_tilde conditions
    v = etat.value(s_all)
    if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
        raise ProfileConstructionError("0 <= eta_tilde <= 1", "range exceeded")
    if np.abs(etat.value(sample(r1 / 2.0, r2)) - 1.0).max() > 1e-13:
        raise ProfileConstructionError("eta_tilde plateau", "not 1 on [r1/2, r2]")
    for lo, hi in ((0.0, r1 / 6.0), (2.5 * r2, 3.5 * r2)):
        if np.abs(etat.value(sample(lo, hi))).max() > 1e-14:
            raise ProfileConstructionError("eta_tilde support", f"nonzero on [{lo},{hi}]")
    slope = np.abs(etat.deriv(s_all)).max()
    # the printed bound 2/r1 is unattainable across the stated rise window
    # (mean slope is already 3/r1); 6/r1 preserves every downstream use
    if slope > 6.0 / r1:
        raise ProfileConstructionError("|eta_tilde'| <= 6/r1", f"max {slope:.3e}")
    # q conditions, unit amplitude (q_A scales linearly, so q_{A=0} == 0)
    if np.abs(q.value(sample(0.0, r1)) - (-0.5 * (r2 - r1) ** 2)).max() > 1e-14:
        raise ProfileConstructionError("q_A inner plateau", "wrong constant")
    if np.abs(q.value(sample(r2, 3.5 * r2))).max() > 1e-14:
        raise ProfileConstructionError("q_A outer support", "nonzero beyond r2")
    mid = 0.5 * (r1 + r2)
    if abs(q.value(mid) + 0.25 * (r2 - r1) ** 2) > 1e-12:
        raise ProfileConstructionError(
            "q_A midpoint", f"q(mid)/A = {q.value(mid):.6e} != -(r2-r1)^2/4"
        )
    eps = SMOOTH_FRAC * (r2 - r1)
    m1 = 0.51 * r1 + 0.49 * r2
    m2 = 0.49 * r1 + 0.51 * r2
    s_q = sample(r1 + eps, m1)
    if np.abs(q.value(s_q) - (0.5 * (s_q - r1) ** 2 - 0.5 * (r2 - r1) ** 2)).max() > 1e-13:
        raise ProfileConstructionError("q_A inner quadratic", "mismatch")
    s_q = sample(m2, r2 - eps)
    if np.abs(q.value(s_q) + 0.5 * (s_q - r2) ** 2).max() > 1e-13:
        raise ProfileConstructionError("q_A outer quadratic", "mismatch")
    a, b = prof.plateau
    s_p = sample(a, b)
    dv = q.deriv(s_p)
    c1 = prof.C1
    if not ((dv >= c1 - 1e-9).all() and (dv <= 2 * c1 + 1e-9).all()):
        raise ProfileConstructionError(
            "C1 A <= q_A' <= 2 C1 A on plateau", f"range [{dv.min():.3e}, {dv.max():.3e}]"
        )
    # continuity of value and first two derivatives at every knot, compared
    # as exact one-sided limits of the polynomial pieces
    for pp in (eta, etat, q):
        jumps = []
        for order in range(3):
            lo, hi = pp.knot_limits(order)
            scale = np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))
            jumps.append(np.abs(hi - lo) > 1e-8 * scale)
        jumps = np.array(jumps)  # (order, interior knot)
        if jumps.any():
            ki = int(np.argmax(jumps.any(axis=0)))
            raise ProfileConstructionError(
                "C^2 continuity", f"order-{int(np.argmax(jumps[:, ki]))} jump at {pp.knots[ki + 1]}"
            )


def build_profiles(p: ModelParams, verify=True):
    """Construct the three shaping profiles and verify every condition."""
    eta = _build_eta(p)
    etat = _build_eta_tilde(p)
    q_shape, plateau, S = _build_q_shape(p)
    # curvature report over the deformation band
    ss = np.linspace(p.r1, p.r2, 4001)
    prof = ShapingProfiles(
        eta=eta,
        eta_tilde=etat,
        q_shape=q_shape,
        params=p,
        plateau=plateau,
        C1=0.6 * S,
        C2=float(np.abs(q_shape.deriv2(ss)).max()),
        eta_tilde_slope_bound=6.0 / p.r1,
    )
    if verify:
        _verify_profiles(prof)
    return prof


# ---------------------------------------------------------------------------
# model function evaluation
# ---------------------------------------------------------------------------

def _model(p: ModelParams, prof: ShapingProfiles, us, with_hess=True):
    """Values, gradients and (optionally) Hessians of the deformed model.

    f(u) = u0^3 - y u0 - |u^-|^2 + |u^+|^2 - eta(|u|) u1 + y etat(|u|) u0
           + A q_shape(|u|)

    us holds the points along a leading batch axis, and so do the results:
    shapes (m,), (m, n+1) and (m, n+1, n+1), the last None without
    with_hess. The dtype follows us (longdouble is kept for the
    extended-precision residual checks, anything else becomes float64).
    Every profile is constant near the origin, so the radial chain-rule
    terms vanish at |u| = 0, where the divisions use 1 in place of |u|.

    The three profiles are read together: one float64 search on their
    merged knots (`ShapingProfiles._merged`) locates every piece, and each
    derivative order is one Horner sweep over that order's table, with the
    knot offsets and the operations of `PiecewisePoly.derivs`, so the
    profile values are its values bit for bit. The Hessian is computed on
    its upper triangle only, element by element as the full matrix would be
    (every term is symmetric bit for bit), and gathered to full.
    """
    us = np.asarray(us)
    dt = us.dtype if us.dtype == np.longdouble else np.dtype(float)
    us = us.astype(dt, copy=False)
    m, dim = us.shape
    y, A = dt.type(p.y), dt.type(p.A)
    sgn = np.ones(dim, dtype=dt)
    sgn[1 : p.i + 1] = -1.0
    sgn[0] = 0.0
    u0, u1 = us[:, 0], us[:, 1]
    rho = np.sqrt(np.sum(us * us, axis=1))
    r = np.where(rho > 0, rho, 1)
    uh = us / r[:, None]
    breaks, knots, tables = prof._merged
    j = np.searchsorted(breaks, rho.astype(float, copy=False), side="right")
    x = rho - knots.astype(dt, copy=False)[:, j]
    rows = j + np.arange(0, knots.size, knots.shape[1])[:, None]  # p * n_int + j
    sweeps = [_horner_rows(tables[k].astype(dt, copy=False), rows, x)
              for k in ((0, 1, 2) if with_hess else (0, 1))]
    eta = [d[0] for d in sweeps]
    et = [d[1] for d in sweeps]
    q = [A * d[2] for d in sweeps]

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
        return v[:, None]

    ia, ib, full, eye, ea, eb = _upper_triangle(dim)
    ua, ub = uh[:, ia], uh[:, ib]
    radial = ua * ub
    proj = (eye - radial) / col(r)
    cross1 = ua * eb[1] + ea[1] * ub
    cross0 = ua * eb[0] + ea[0] * ub
    # the diagonal start: 2 sgn * eye would put -0.0 off the diagonal
    hesss = np.tile(np.diag(2.0 * sgn)[ia, ib], (m, 1))
    hesss[:, 0] = 6.0 * u0
    hesss += -col(u1) * (col(eta[2]) * radial + col(eta[1]) * proj)
    hesss += -col(eta[1]) * cross1
    hesss += y * col(u0) * (col(et[2]) * radial + col(et[1]) * proj)
    hesss += y * col(et[1]) * cross0
    hesss += col(q[2]) * radial + col(q[1]) * proj
    return vals, grads, hesss[:, full]


@functools.cache
def _upper_triangle(dim):
    """The upper triangle of a dim x dim matrix, entry (0, 0) first, row by row.

    Returns the row and column indices ia and ib; the (dim, dim) array that
    maps (a, b) to the position of (min(a, b), max(a, b)); the identity on
    the triangle; and eye[k][ia], eye[k][ib] for k = 0, 1. The 0.0 and 1.0
    entries are float64, exact in longdouble arithmetic too.
    """
    ia, ib = np.triu_indices(dim)
    full = np.empty((dim, dim), dtype=np.intp)
    full[ia, ib] = full[ib, ia] = np.arange(ia.size)
    eye = np.eye(dim)
    return tuple(_read_only(a) for a in (ia, ib, full, eye[ia, ib], eye[:2, ia], eye[:2, ib]))


def eval_f(p: ModelParams, prof: ShapingProfiles, u, with_hessian=True):
    """Value, gradient and (optionally) Hessian of the deformed model at one
    point u, in u's dtype: the batch-of-one view of `_model`."""
    val, grad, hess = _model(p, prof, np.asarray(u)[None], with_hess=with_hessian)
    return (val[0], grad[0], hess[0]) if with_hessian else (val[0], grad[0])


def _point_kernel(p: ModelParams, prof: ShapingProfiles):
    """Plain-float (value, gradient) and Hessian closures at one point, for
    the right-hand sides and Jacobians of the gradient flows.

    The formula is `_model`'s, written with Python floats: a call does no
    numpy work, which costs more than the arithmetic on one point of
    dimension n + 1 (about 4 us for value_grad and 12 us for hessian, against
    43 us and 75 us for a batch of one through `_model` without and with
    its Hessian, n = 6, 2-core x86 VM, numpy 2.4). Each call bisects once
    per profile and reads every order it needs from that piece. Squares are summed in index order, which is
    numpy's order for vectors of up to seven entries (n <= 6).

    Both closures take a float64 array u of length n + 1.
    value_grad(u) -> (value, gradient as a list). It groups the radial
    chain-rule terms as the flows always have, which differs from `_model`
    in the last bits. hessian(u) -> (n+1, n+1) array repeats `_model`'s
    operations element by element, so it equals `_model`'s Hessian bit for
    bit where the sums agree. As in `_model`, the divisions use 1 in place
    of |u| at the origin, where every radial term vanishes.
    """
    n, i, y, A = p.n, p.i, float(p.y), float(p.A)
    dim = n + 1
    profiles = (prof.eta, prof.eta_tilde, prof.q_shape)
    eta_vg, et_vg, q_vg = (pp.point_evaluator((0, 1)) for pp in profiles)
    eta_h, et_h, q_h = (pp.point_evaluator((1, 2)) for pp in profiles)
    twice_sgn = [0.0] + [-2.0] * i + [2.0] * (n - i)

    def value_grad(u):
        u = u.tolist()
        u0, u1 = u[0], u[1]
        sq = u0 * u0
        s = 0.0  # sum of sgn_k u_k^2
        for x in u[1 : i + 1]:
            sq += x * x
            s -= x * x
        for x in u[i + 1 :]:
            sq += x * x
            s += x * x
        val = u0**3 - y * u0 + s
        grad = [ts * x for ts, x in zip(twice_sgn, u)]
        grad[0] = 3.0 * u0**2 - y
        rho = math.sqrt(sq)
        r = rho if rho > 0.0 else 1.0
        e0, e1 = eta_vg(rho)
        t0, t1 = et_vg(rho)
        q0, q1 = q_vg(rho)
        val += -e0 * u1 + y * t0 * u0 + A * q0
        coef = -e1 * u1 + y * t1 * u0 + A * q1
        grad = [g + coef * (x / r) for g, x in zip(grad, u)]
        grad[1] -= e0
        grad[0] += y * t0
        return val, grad

    def hessian(u):
        u = u.tolist()
        sq = 0.0
        for x in u:
            sq += x * x
        rho = math.sqrt(sq)
        r = rho if rho > 0.0 else 1.0
        uh = [x / r for x in u]
        e1, e2 = eta_h(rho)
        t1, t2 = et_h(rho)
        q1, q2 = q_h(rho)
        q1, q2 = A * q1, A * q2
        c_eta, c_et = -u[1], y * u[0]
        h = [[0.0] * dim for _ in range(dim)]
        for a in range(dim):
            ua = uh[a]
            for b in range(a, dim):
                ub = uh[b]
                rad = ua * ub
                if a == b:
                    proj = (1.0 - rad) / r
                    acc = 6.0 * u[0] if a == 0 else twice_sgn[a]
                else:
                    proj = (0.0 - rad) / r
                    acc = 0.0
                acc += c_eta * (e2 * rad + e1 * proj)
                if a == 1 or b == 1:  # uh (x) e_1 + e_1 (x) uh, from the u1 factor
                    acc += -e1 * ((ua if b == 1 else 0.0) + (ub if a == 1 else 0.0))
                acc += c_et * (t2 * rad + t1 * proj)
                if a == 0:  # uh (x) e_0 + e_0 (x) uh, from the u0 factor
                    acc += y * t1 * ((ua if b == 0 else 0.0) + ub)
                acc += q2 * rad + q1 * proj
                h[a][b] = h[b][a] = acc
        return np.array(h)

    return value_grad, hessian


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    hessian_spectrum: np.ndarray
    morse_index: int
    birth_death: bool
    newton_residual: float


def _newton_seeds(p: ModelParams, n_random):
    # the stated shells plus the quarter-band radii: seeds placed exactly at
    # the band edges see the flat branches and Newton leaps across the band,
    # missing the on-axis pair near the outer rim
    shells = [
        0.0,
        p.r1,
        0.75 * p.r1 + 0.25 * p.r2,
        0.5 * (p.r1 + p.r2),
        0.25 * p.r1 + 0.75 * p.r2,
        p.r2,
        3.0 * p.r2,
    ]
    seeds = []
    shell_ids = []
    for si, rho in enumerate(shells):
        if rho == 0.0:
            seeds.append(np.zeros(p.n + 1))
            shell_ids.append(si)
            continue
        for phi in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
            u = np.zeros(p.n + 1)
            u[0] = rho * np.cos(phi)
            u[1] = rho * np.sin(phi)
            seeds.append(u)
            shell_ids.append(si)
    rng = np.random.default_rng(NEWTON_SEED)
    rand = rng.normal(size=(n_random, p.n + 1))
    rand /= np.linalg.norm(rand, axis=1)[:, None]
    rand *= (3.5 * p.r2 * rng.random(n_random) ** (1.0 / (p.n + 1)))[:, None]
    seeds.extend(rand)
    shell_ids.extend([-1] * n_random)
    return np.array(seeds), np.array(shell_ids)


def _damped_steps(hesss, grads, lam):
    """Levenberg-damped Newton steps (H + lam I)^-1 g over a batch.

    When some H + lam I is exactly singular, the rows are solved one by one
    (the same bits as the batched solve) and only the singular ones fall
    back to lstsq, so a row's step never depends on the rest of the batch.
    """
    h = hesss + lam * np.eye(hesss.shape[-1])[None]
    try:
        return np.linalg.solve(h, grads[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    steps = np.empty_like(grads)
    for k, (hh, gg) in enumerate(zip(h, grads)):
        try:
            steps[k] = np.linalg.solve(hh, gg[:, None])[:, 0]
        except np.linalg.LinAlgError:
            steps[k] = np.linalg.lstsq(hh, gg, rcond=None)[0]
    return steps


def find_critical_points(p: ModelParams, prof: ShapingProfiles, n_random=1000):
    """Deterministic multistart Newton census, deduplicated and classified.

    Seeds: radial shells x a 24-angle net in the (u0, u1) plane plus a fixed
    batch of full-dimensional random points (seeded RNG). 80 damped Newton
    steps on the gradient; points are kept when the residual reaches
    1e-11 (1 + A), deduplicated at distance 1e-6, and dropped when one
    more damped Newton step would still move them by more than 1e-7.
    """
    if p.A < 100:
        warnings.warn("census is only reliable for large deformation A (>= 100)")
    seeds, shell_ids = _newton_seeds(p, n_random)
    us = seeds.copy()
    tol = 1e-11 * (1.0 + p.A)
    alive = np.ones(len(us), dtype=bool)
    # fixed-iteration damped Newton: near the degenerate cubic direction the
    # iteration halves u0 each step, and the Levenberg floor stalls it well
    # inside the dedup radius instead of stopping at a loose gradient norm
    lam = 1e-10 * (1.0 + p.A)
    cap = 0.5 * (p.r2 - p.r1) + 0.05 * p.r1
    for _ in range(80):
        rows = np.where(alive)[0]
        if rows.size == 0:
            break
        _, grads, hesss = _model(p, prof, us[rows])
        steps = _damped_steps(hesss, grads, lam)
        ln = np.linalg.norm(steps, axis=1)
        big = ln > cap
        steps[big] *= (cap / ln[big])[:, None]
        new = us[rows] - steps
        runaway = np.linalg.norm(new, axis=1) > 10.0
        new[runaway] = us[rows][runaway]
        alive[rows[runaway]] = False
        us[rows] = new
        frozen = ln < 1e-15
        alive[rows[frozen & ~runaway]] = False

    _, grads, _ = _model(p, prof, us, with_hess=False)
    gnorm = np.linalg.norm(grads, axis=1)
    ok = gnorm <= tol
    found = us[ok]
    found_res = gnorm[ok]
    for si in range(7):
        in_shell = shell_ids == si
        if in_shell.any() and not ok[in_shell].any():
            warnings.warn(f"incomplete census: no convergence from shell {si}")

    # dedup at distance 1e-6, keeping the smallest-residual representative
    reps = []
    for k in np.argsort(found_res):
        if all(np.linalg.norm(found[k] - found[j]) > 1e-6 for j in reps):
            reps.append(k)
    locs, res = found[reps], found_res[reps]
    vals, grads, hesss = _model(p, prof, locs)
    # a seed that runs out of iterations on the degenerate u0 direction of
    # a birth-death point, with |u0| of 1e-6 to 1e-5, passes the residual
    # test (3 u0^2 <= tol) outside the dedup ball of the exact point; its
    # next step, about u0 / 2, tells it apart
    keep = np.linalg.norm(_damped_steps(hesss, grads, lam), axis=1) <= 1e-7
    pts = []
    for u, val, spec, r in zip(locs[keep], vals[keep], np.linalg.eigvalsh(hesss[keep]),
                               res[keep]):
        # reference scale: second-largest magnitude, so the single
        # deformation-scaled eigenvalue ~A does not mask the O(delta) ones
        mags = np.sort(np.abs(spec))
        ref = max(1.0, mags[-2] if len(mags) > 1 else mags[-1])
        pts.append(
            CriticalPoint(
                location=u,
                value=float(val),
                hessian_spectrum=spec,
                morse_index=int((spec < 0).sum()),
                birth_death=bool(mags[0] < DEGENERACY_RTOL * ref),
                newton_residual=float(r),
            )
        )
    pts.sort(key=lambda c: c.value)
    return pts


def closed_form_candidates(p: ModelParams):
    """The two on-axis critical points near the outer rim, with Hessians."""
    if p.y != 0.0:
        raise ValueError("closed forms are stated at y = 0")
    n, i, d, A, r2 = p.n, p.i, p.delta, p.A, p.r2
    loc1 = np.zeros(n + 1)
    loc1[1] = A * r2 / (A + 2.0 + 2.0 * d)
    spec1 = np.array([2.0 + d, -A - 2.0 - 2.0 * d] + [d] * (i - 1) + [4.0 + d] * (n - i))
    loc2 = np.zeros(n + 1)
    loc2[1] = -A * r2 / (A + 2.0 - 2.0 * d)
    spec2 = np.array([2.0 - d, -A - 2.0 + 2.0 * d] + [-d] * (i - 1) + [4.0 - d] * (n - i))
    mk = lambda loc, spec: CriticalPoint(
        location=loc,
        value=np.nan,
        hessian_spectrum=np.sort(spec),
        morse_index=int((spec < 0).sum()),
        birth_death=False,
        newton_residual=0.0,
    )
    return mk(loc1, spec1), mk(loc2, spec2)


def outer_triple(census, p: ModelParams):
    """Critical points of the census lying near the outer rim of the band."""
    cut = 0.5 * (p.r1 + p.r2)
    return [c for c in census if cut < np.linalg.norm(c.location) <= p.r2]


def separation_report(census_a, census_2a, p_a: ModelParams):
    """Distance / value-gap / magnitude proxies for the outer triple, with
    an A-doubling stability verdict per proxy: stable when the two values
    differ by at most 5 % of the larger."""

    def proxies(census, p):
        tri = outer_triple(census, p)
        if len(tri) != 3:
            raise ValueError(f"expected the outer triple, found {len(tri)} points")
        locs = [c.location for c in tri]
        vals = [c.value for c in tri]
        dists = [np.linalg.norm(locs[a] - locs[b]) for a in range(3) for b in range(a + 1, 3)]
        gaps = [abs(vals[a] - vals[b]) for a in range(3) for b in range(a + 1, 3)]
        return min(dists), min(gaps), max(abs(v) for v in vals)

    p_2a = ModelParams(p_a.n, p_a.i, p_a.r1, p_a.r2, p_a.delta, p_a.y, 2.0 * p_a.A)
    c, cp, cap = proxies(census_a, p_a)
    c2, cp2, cap2 = proxies(census_2a, p_2a)
    stable = lambda a, b: abs(a - b) / max(abs(a), abs(b)) <= 0.05
    return {
        "c": (c, c2, stable(c, c2)),
        "c_prime": (cp, cp2, stable(cp, cp2)),
        "C": (cap, cap2, stable(cap, cap2)),
    }


def radial_derivative_check(p: ModelParams, prof: ShapingProfiles, n_samples=100_000):
    """Minimum of the radial derivative over the separating annulus.

    Annulus D(A r1/(A - C0), A r2/(A + C0)) with C0 = 10; returns None when
    A <= C0, where the inner radius is undefined or negative.
    """
    if p.A <= C0_ANNULUS:
        return None
    lo = p.A * p.r1 / (p.A - C0_ANNULUS)
    hi = p.A * p.r2 / (p.A + C0_ANNULUS)
    rng = np.random.default_rng(2024)
    rho = rng.uniform(lo, hi, n_samples)
    dirs = rng.normal(size=(n_samples, p.n + 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    us = rho[:, None] * dirs
    _, grads, _ = _model(p, prof, us, with_hess=False)
    return float(np.min(np.sum(grads * dirs, axis=1)))


def flow_containment_probe(p, prof, point: CriticalPoint, c, n_dirs=40):
    """Integrate the unstable gradient flow off a critical point to a level set.

    Flow along -grad f from small displacements in the negative eigenspace
    until f = f(point) - c, or until |u| reaches 10. Crossings with |u| > r2
    are collected and tested against the containment box u0 <= 3 r2,
    |u^+| <= 5 r2 / 2. n_dirs < 1 raises ValueError.
    """
    if n_dirs < 1:
        raise ValueError("n_dirs must be at least 1")
    val0, _, hess = eval_f(p, prof, point.location)
    spec, vecs = np.linalg.eigh(hess)
    cols = vecs[:, spec < 0]
    target = val0 - c
    if cols.shape[1] == 0:
        return {"crossings": [], "divergent": 0, "stalled": 0, "u0_ok": True,
                "uplus_ok": True, "box": None}
    rng = np.random.default_rng(99)
    k = cols.shape[1]
    dirs = rng.normal(size=(n_dirs, k))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    eps = 2e-3 * p.r2
    value_grad, _ = _point_kernel(p, prof)

    # arc-length parametrization: unit-speed gradient flow keeps the solver
    # step scale geometric, and f is strictly monotone along it so the level
    # event fires exactly once
    def rhs(t, u):
        g = np.array(value_grad(u)[1])
        return -g / max(np.linalg.norm(g), 1e-30)

    def level(t, u):
        return value_grad(u)[0] - target

    level.terminal = True
    level.direction = -1.0

    def escape(t, u):
        return np.linalg.norm(u) - 10.0

    escape.terminal = True

    # trajectories that asymptote a connecting orbit into another critical
    # point never reach the level; stop them when the gradient collapses
    captol = 1e-12 * (1.0 + p.A)

    def captured(t, u):
        return float(np.linalg.norm(value_grad(u)[1])) - captol

    captured.terminal = True
    captured.direction = -1.0

    crossings, divergent, stalled = [], 0, 0
    span = 40.0  # generous arc-length budget: four escape radii
    for d in dirs:
        u0 = point.location + eps * (cols @ d)
        budget = [6000]

        def rhs_budgeted(t, u):
            budget[0] -= 1
            if budget[0] < 0:
                raise _FlowBudgetExceeded
            return rhs(t, u)

        try:
            sol = scipy.integrate.solve_ivp(
                rhs_budgeted, (0.0, span), u0, events=(level, escape, captured),
                rtol=1e-8, atol=1e-12,
            )
        except _FlowBudgetExceeded:
            stalled += 1
            continue
        if sol.t_events[0].size:
            crossings.append(sol.y_events[0][0])
        elif sol.t_events[1].size:
            divergent += 1
        else:
            stalled += 1
    outside = [u for u in crossings if np.linalg.norm(u) > p.r2]
    i = p.i
    u0_ok = all(u[0] <= 3.0 * p.r2 + 1e-9 for u in outside)
    uplus_ok = all(np.linalg.norm(u[i + 1 :]) <= 2.5 * p.r2 + 1e-9 for u in outside)
    box = None
    if outside:
        arr = np.array(outside)
        box = np.stack([arr.min(axis=0), arr.max(axis=0)])
    return {
        "crossings": outside,
        "divergent": divergent,
        "stalled": stalled,
        "u0_ok": u0_ok,
        "uplus_ok": uplus_ok,
        "box": box,
    }


def _trap_flow(p, prof, u0, t_end):
    """Forward -grad f flow from u0 over [0, t_end], every step recorded.

    Returns a namespace with `success`, `t` (steps, ending at t_end), `y`
    ((n+1, len(t)) states) and `message` (the solver's, on failure).

    The radial Hessian eigenvalue is of order A, so the flow is stiff. VODE's
    BDF method with the analytic Jacobian -hess f takes steps of the
    trajectory's own scale, where an explicit method is held to steps of
    about 1/A. BDF needs no switching heuristic: a solver that switches
    between Adams and BDF by one stays in Adams over much of this flow at
    steps of about 1/A, with up to twice VODE's steps and three times its
    right-hand-side calls at t_end = 5. VODE keeps no state between calls.
    A last step past t_end is interpolated back to t_end.
    Both the right-hand side and the Jacobian come from the plain-float point
    kernel (`_point_kernel`), built once per call: the flow makes no `_model`
    call.
    """
    value_grad, hessian = _point_kernel(p, prof)

    def rhs(t, u):
        return [-g for g in value_grad(u)[1]]

    def jac(t, u):
        return -hessian(u)

    solver = scipy.integrate.ode(rhs, jac).set_integrator(
        "vode", method="bdf", rtol=1e-8, atol=1e-12, max_step=1.0)
    solver.set_initial_value(u0, 0.0)
    ts, ys = [0.0], [np.array(u0, dtype=float)]
    success, message = True, "reached t_end"
    with warnings.catch_warnings():
        # VODE reports a failed step by a warning; it becomes success=False
        warnings.filterwarnings("error", message="vode: ", category=UserWarning)
        try:
            while solver.t < t_end:
                ys.append(solver.integrate(t_end, step=True))
                ts.append(solver.t)
            if ts[-1] > t_end:
                ys[-1] = solver.integrate(t_end)
                ts[-1] = t_end
        except UserWarning as failure:
            success, message = False, str(failure)
    return SimpleNamespace(success=success, t=np.array(ts), y=np.stack(ys, axis=1),
                           message=message)


def forward_trap_check(p, prof, n_traj=16, t_end=50.0):
    """Forward -grad flow started inside the inner separating ball stays in.

    Consequence of the positive radial derivative on the annulus; verified
    by direct integration (`_trap_flow`, VODE's BDF method) from n_traj
    random interior points over [0, t_end]; max_radius is the largest |u|
    at the solver's steps. A trajectory whose integration fails raises
    RuntimeError (a truncated trajectory proves nothing about containment).
    n_traj < 1 or t_end <= 0 raises ValueError before any integration.
    """
    if p.A <= C0_ANNULUS:
        raise ValueError("check needs A > C0")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    r_in = p.A * p.r2 / (p.A + C0_ANNULUS)
    rng = np.random.default_rng(7)
    worst = 0.0
    for traj in range(n_traj):
        d = rng.normal(size=p.n + 1)
        d /= np.linalg.norm(d)
        u0 = 0.97 * r_in * d * rng.random() ** (1.0 / (p.n + 1))
        sol = _trap_flow(p, prof, u0, t_end)
        if not sol.success:
            raise RuntimeError(f"trap flow failed at A={p.A}, trajectory {traj} of {n_traj} "
                               f"(t={sol.t[-1]:.6g} of {t_end}): {sol.message}")
        worst = max(worst, float(np.linalg.norm(sol.y, axis=0).max()))
    return {"max_radius": worst, "bound": r_in, "contained": worst <= r_in + 1e-9}


def census_records(census):
    """JSON-ready records for a census."""
    return [
        {
            "location": [float(x) for x in c.location],
            "value": c.value,
            "index": c.morse_index,
            "birth_death": c.birth_death,
            "hessian_spectrum": [float(x) for x in c.hessian_spectrum],
            "newton_residual": c.newton_residual,
        }
        for c in census
    ]


def smallest_stable_amplitude(p: ModelParams, lo=100.0, hi=2000.0, steps=8,
                              n_random=300):
    """Bisect the smallest amplitude at which the census counts stabilize.

    Counts must be 7 / 8 / 6 for y = 0 / +delta^2/2 / -delta^2/2. Returns
    the bisected threshold (the open question of an explicit largeness
    bound is answered empirically).
    """

    def counts_ok(A):
        for y, want in ((0.0, 7), (0.5 * p.delta**2, 8), (-0.5 * p.delta**2, 6)):
            pp = ModelParams(p.n, p.i, p.r1, p.r2, p.delta, y, A)
            prof = build_profiles(pp, verify=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if len(find_critical_points(pp, prof, n_random=n_random)) != want:
                    return False
        return True

    if not counts_ok(hi):
        raise RuntimeError("census not stable even at the upper amplitude")
    if counts_ok(lo):
        return lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if counts_ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
