"""Thom-Smale complexes on flat circles and 2-tori with unitary coefficients.

Critical points come from seeded Newton on the periodic chart; flow lines
between index-adjacent pairs are shot, all as one system, from the index-1
points along their one-dimensional unstable (and, on the torus,
time-reversed stable) eigendirections, with signs fixed by comparing the
unstable frames against arrival data and the coefficient transport given
by the winding of the connecting trajectory.
The resulting complex feeds the scalar-torsion machinery; suspension and
ball-removal bookkeeping live here too, as does the twisted-circle
comparison of combinatorial against zeta-regularized analytic torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.sparse as sp

import mpmath

from .graded import GradedComplex, _owned, cohomology_dims, euler_chars, finite_torsion
from .witten1d import _shift_invert

__all__ = [
    "ManifoldModel",
    "MorseComplexData",
    "circle_model",
    "torus_model",
    "fiber_criticals",
    "build_complex",
    "suspend",
    "gaussian_normalization_probe",
    "ball_removed_ranks",
    "zeta_log_det_twisted_circle",
    "cheeger_muller_compare",
]


@dataclass(frozen=True)
class ManifoldModel:
    """A height function on the flat circle or 2-torus with unitary
    coefficients.

    `value`, `grad` and `hess` take a chart point `u` of shape (dim,).
    `grad` and `hess` must also broadcast over a trailing batch axis: for
    `u` of shape (dim, n) they return shapes (dim, n) and (dim, dim, n),
    column j being what the point u[:, j] alone gives, bit for bit.
    `fiber_criticals` evaluates all its Newton seeds through one such call.
    Immutable: `holonomy` is a tuple of read-only, finite, unitary copies.
    """

    kind: str  # 'circle' | 'torus2d'
    value: callable
    grad: callable
    hess: callable
    holonomy: tuple  # one unitary per fundamental-group generator

    def __post_init__(self):
        if self.kind not in ("circle", "torus2d"):
            raise ValueError("kind must be 'circle' or 'torus2d'")
        holonomy = tuple(_owned(np.array(u, dtype=complex, ndmin=2), "holonomy")
                         for u in self.holonomy)
        need = 1 if self.kind == "circle" else 2
        if len(holonomy) != need:
            raise ValueError(f"{self.kind} needs {need} holonomy generators")
        for u in holonomy:
            if np.abs(u @ u.conj().T - np.eye(len(u))).max() > 1e-12:
                raise ValueError("holonomy matrices must be unitary")
        if len(holonomy) == 2:
            a, b = holonomy
            if np.abs(a @ b - b @ a).max() > 1e-12:
                raise ValueError("torus holonomies must commute")
        object.__setattr__(self, "holonomy", holonomy)

    @property
    def dim(self):
        return 1 if self.kind == "circle" else 2

    @property
    def rep_rank(self):
        return self.holonomy[0].shape[0]


def circle_model(freq=1, rep=None, tilt=0.0):
    """f(s) = cos(freq s) + tilt sin(s) on the unit circle."""
    rep = [np.eye(1, dtype=complex)] if rep is None else [rep]

    def value(u):
        return np.cos(freq * u[0]) + tilt * np.sin(u[0])

    def grad(u):
        return np.array([-freq * np.sin(freq * u[0]) + tilt * np.cos(u[0])])

    def hess(u):
        return np.array([[-freq * freq * np.cos(freq * u[0]) - tilt * np.sin(u[0])]])

    return ManifoldModel("circle", value, grad, hess, rep)


def torus_model(rep=None, tilt=(0.0, 0.0)):
    """Product height f = cos x + cos y (+ tilts) on the flat 2-torus."""
    if rep is None:
        rep = [np.eye(1, dtype=complex), np.eye(1, dtype=complex)]

    def value(u):
        return np.cos(u[0]) + np.cos(u[1]) + tilt[0] * np.sin(u[0]) + tilt[1] * np.sin(u[1])

    def grad(u):
        return np.array(
            [-np.sin(u[0]) + tilt[0] * np.cos(u[0]), -np.sin(u[1]) + tilt[1] * np.cos(u[1])]
        )

    def hess(u):
        hxx = -np.cos(u[0]) - tilt[0] * np.sin(u[0])
        hyy = -np.cos(u[1]) - tilt[1] * np.sin(u[1])
        return np.array([[hxx, np.zeros_like(hxx)], [np.zeros_like(hyy), hyy]])

    return ManifoldModel("torus2d", value, grad, hess, rep)


@dataclass
class Critical:
    location: np.ndarray
    value: float
    index: int
    frame: np.ndarray  # oriented unstable frame, columns


@dataclass
class MorseComplexData:
    criticals: list
    flows: dict  # (i_p, i_q) -> list of (sign, winding tuple, transport matrix)
    complex: GradedComplex


def fiber_criticals(model: ManifoldModel):
    """All critical points on the periodic chart, classified by index.

    Newton runs from every seed of a grid (256 on the circle, 64 x 64 on
    the torus) at once, through one batched call of `model.grad` per
    iteration and one of `model.hess`: at most 60 steps solve(H, g),
    clamped to norm 1, and a seed stops once |grad| < 1e-12 at its new
    point. A seed whose Hessian is exactly singular is dropped alone: when
    the stacked solve refuses, that iteration is solved seed by seed.
    Every seed follows the same arithmetic as a Newton run of its own.
    Converged points are deduplicated within 1e-6 (periodic distance) in
    seed order, keeping the first seed of each cluster, then classified
    by the Hessian eigenframe.
    """
    d = model.dim
    if d == 1:
        seeds = np.linspace(0, 2 * np.pi, 256, endpoint=False)[None, :]
    else:
        g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        seeds = np.stack(np.meshgrid(g, g), axis=0).reshape(2, -1)
    u = seeds.astype(float)  # (d, n): one column per seed still running
    alive = np.arange(u.shape[1])
    ends = np.zeros(u.shape[::-1])  # converged point of each seed
    converged = np.zeros(alive.size, dtype=bool)
    grad = model.grad(u)
    for _ in range(60):
        hess = model.hess(u)
        try:
            step = np.linalg.solve(np.moveaxis(hess, -1, 0), grad.T[:, :, None])[:, :, 0]
            solved = np.ones(alive.size, dtype=bool)
        except np.linalg.LinAlgError:
            step, solved = _solve_each(hess, grad)
        nrm = _row_norms(step)
        big = nrm > 1.0
        step[big] *= (1.0 / nrm[big])[:, None]
        u = u - step.T
        grad = model.grad(u)
        done = solved & (_row_norms(grad.T) < 1e-12)
        ends[alive[done]] = u[:, done].T
        converged[alive[done]] = True
        rest = solved & ~done
        alive, u, grad = alive[rest], u[:, rest], grad[:, rest]
        if not alive.size:
            break
    pts = np.mod(ends[converged], 2 * np.pi)
    found = []
    while len(pts):
        u = pts[0].copy()
        pts = pts[_row_norms(np.mod(pts - u + np.pi, 2 * np.pi) - np.pi) >= 1e-6]
        hmat = model.hess(u)
        spec, vecs = np.linalg.eigh(hmat)
        # cubic stalls of Newton park 1e-4 away from a degenerate zero with
        # curvature ~ 1e-8; the cut must sit well above that
        if np.abs(spec).min() < 1e-6 * max(1.0, np.abs(spec).max()):
            raise ValueError("degenerate critical point: model is not Morse")
        idx = int((spec < 0).sum())
        frame = vecs[:, spec < 0]
        # deterministic orientation: first sizable entry positive, columns
        # ordered by dominant coordinate
        cols = []
        for j in range(frame.shape[1]):
            v = frame[:, j]
            lead = np.argmax(np.abs(v))
            cols.append((lead, v * np.sign(v[lead])))
        cols.sort(key=lambda t: t[0])
        frame = np.stack([c[1] for c in cols], axis=1) if cols else frame
        found.append(Critical(u, float(model.value(u)), idx, frame))
    found.sort(key=lambda c: (c.index, c.value, tuple(np.round(c.location, 9))))
    return found


def _row_norms(x):
    """Euclidean norm of each row of a real (n, d) array."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _solve_each(hess, grad):
    """Newton steps seed by seed, for an iteration whose stacked solve
    met an exactly singular Hessian: (steps (n, d), mask of the seeds
    whose Hessian could be solved; the others get a zero step)."""
    n = grad.shape[1]
    step = np.zeros((n, grad.shape[0]))
    solved = np.ones(n, dtype=bool)
    for i in range(n):
        try:
            step[i] = np.linalg.solve(hess[:, :, i], grad[:, i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return step, solved


# time bound of every flow-line shot; a trajectory that has reached no other
# critical point by then has escaped
_T_BOUND = 1e4
_EPS4 = 4 * np.finfo(float).eps  # brentq tolerances of a solve_ivp event


def _shoot_all(model, shots, criticals):
    """Integrate every shot (c, direction, sign_time) of `shots` as one
    system: shot j follows sign_time * (-grad f) from c + 1e-6 * direction
    until it comes within 1e-4 (periodic distance) of a critical point
    other than c. Returns, in shot order, (that critical point, arrival
    velocity direction, unwrapped displacement) per shot, or None for a
    shot that reaches none before `_T_BOUND`.

    The state is the (dim, k) array of all k trajectories, its right-hand
    side one batched `model.grad` call, stepped by the 8th-order
    Dormand-Prince pair (DOP853; at this tolerance it takes far fewer steps
    than a 5th-order one) with rtol 1e-10 and atol 1e-12 divided by sqrt(k):
    the stacked error norm averages over all k * dim components, so no one
    trajectory is held looser than a system of its own would hold it.
    After each step every trajectory that has not arrived is tested at
    once; one that has crossed its 1e-4 ball gets its arrival time from
    brentq on the step's dense output, as a terminal `solve_ivp` event
    would. Stepping stops once every trajectory has arrived. Only the
    target, the arrival direction's sign against the frames and the
    integer winding of the displacement reach the complex."""
    d, k = model.dim, len(shots)
    locs = np.array([c.location for c in criticals])
    pos = {id(c): i for i, c in enumerate(criticals)}
    own = np.array([pos[id(c)] for c, _, _ in shots])
    signs = np.array([sign_time for _, _, sign_time in shots])
    u0 = np.stack([c.location + 1e-6 * direction for c, direction, _ in shots], axis=1)

    def rhs(t, y):
        return (signs * (-model.grad(y.reshape(d, k)))).ravel()

    def dists(u, cols):
        # periodic distance of columns `cols` of u to every critical point,
        # inf to each trajectory's own
        diff = np.mod(u[:, cols].T[:, None, :] - locs + np.pi, 2 * np.pi) - np.pi
        out = np.sqrt(np.einsum("ncd,ncd->nc", diff, diff))
        out[np.arange(len(cols)), own[cols]] = np.inf
        return out

    shrink = np.sqrt(k)
    solver = scipy.integrate.DOP853(rhs, 0.0, u0.ravel(), _T_BOUND, rtol=1e-10 / shrink,
                                    atol=1e-12 / shrink, max_step=1.0)
    ends = np.zeros((d, k))
    pending = np.arange(k)
    while pending.size and solver.status == "running":
        solver.step()  # a failed step keeps y: nothing arrives and the loop ends
        hit = dists(solver.y.reshape(d, k), pending).min(axis=1) <= 1e-4
        if not hit.any():
            continue
        sol = solver.dense_output()
        for j in pending[hit]:
            def gap(t, j=j):
                return dists(sol(t).reshape(d, k), [j]).min() - 1e-4

            t_hit = scipy.optimize.brentq(gap, solver.t_old, solver.t, xtol=_EPS4, rtol=_EPS4)
            ends[:, j] = sol(t_hit).reshape(d, k)[:, j]
        pending = pending[~hit]
    vels = signs * (-model.grad(ends))
    targets = np.argmin(dists(ends, np.arange(k)), axis=1)
    out = []
    for j, (c, _, _) in enumerate(shots):
        if j in pending:
            out.append(None)
            continue
        nv = np.linalg.norm(vels[:, j])
        vel = vels[:, j] / nv if nv > 0 else vels[:, j]
        out.append((criticals[targets[j]], vel, ends[:, j] - c.location))
    return out


def _orientation_sign(p: Critical, q: Critical, minus_vel):
    """Compare the frame of W^u(p) against (-velocity, frame of W^u(q)).

    Both frames span the same ind(p)-dimensional subspace along the line
    (flat charts, so no transport is needed); the sign is that of the Gram
    determinant det(V^T U).
    """
    mv = np.column_stack([np.asarray(minus_vel, dtype=float), q.frame])
    s = np.linalg.det(mv.T @ p.frame)
    if abs(s) < 1e-8:
        raise RuntimeError("degenerate orientation comparison (non-transversal)")
    return 1 if s > 0 else -1


def _winding(p_loc, q_loc, disp):
    """Integer winding of the unwrapped displacement against chart delta."""
    w = (np.asarray(disp) - (np.asarray(q_loc) - np.asarray(p_loc))) / (2 * np.pi)
    return tuple(int(round(x)) for x in w)


def _transport(model: ManifoldModel, winding):
    m = model.rep_rank
    t = np.eye(m, dtype=complex)
    for u, w in zip(model.holonomy, winding):
        t = t @ np.linalg.matrix_power(u, w)
    return t


def build_complex(model: ManifoldModel):
    """Assemble the Thom-Smale cochain complex with unitary coefficients.

    On the circle and the 2-torus every flow line between critical points
    of adjacent index passes through an index-1 point: it leaves one along
    its unstable line (down to index 0) or, on the torus, arrives at one
    along its stable line (up from index 2). So each index-1 point shoots
    both unstable directions forward and, on the torus, both stable
    directions backward: 2 shots per index-1 point on a circle, 4 on a
    torus, every trajectory once. All k shots are integrated as one DOP853
    system of shape (dim, k) by `_shoot_all`, at the per-shot tolerances
    divided by sqrt(k), each stopping at its own arrival event. The results
    are read in shot order, and the first shot that escapes, that reaches a
    point of any other index (another index-1 point: the model is not
    Thom-Smale) or whose orientation comparison is degenerate raises
    RuntimeError. A line from p down to q is signed by comparing the unstable
    frame of p against (-velocity, unstable frame of q) at arrival, and
    transported by the holonomy of its winding. `flows` lists the lines of
    every index-adjacent pair (i_p, i_q), empty ones included, in shot
    order; each block of the differentials is the sum over its lines.
    """
    criticals = fiber_criticals(model)
    d = model.dim
    m = model.rep_rank
    pos = {id(c): i for i, c in enumerate(criticals)}
    by_index = [[i for i, c in enumerate(criticals) if c.index == k] for k in range(d + 1)]
    slot = {i: m * r for ix in by_index for r, i in enumerate(ix)}  # first row of i's block
    flows = {(i, j): [] for k in range(d) for i in by_index[k + 1] for j in by_index[k]}
    shots = []
    for c in (criticals[i] for i in by_index[1]):
        axes = [(c.frame[:, 0], 1.0)]
        if d == 2:
            spec, vecs = np.linalg.eigh(model.hess(c.location))
            axes.append((vecs[:, spec > 0][:, 0], -1.0))
        shots += [(c, s0 * line, sign_time) for line, sign_time in axes for s0 in (+1.0, -1.0)]
    for (c, direction, sign_time), hit in zip(shots, _shoot_all(model, shots, criticals)):
        if hit is None:
            raise RuntimeError("flow line escaped; model not Thom-Smale")
        target, vel, disp = hit
        if target.index != c.index - sign_time:  # index 0 forward, 2 backward
            raise RuntimeError(f"non-transversal flow near {target.location}")
        if sign_time > 0:
            p, q, minus_vel = c, target, -vel
        else:  # the forward trajectory arrives at c with velocity -direction
            p, q, minus_vel, disp = target, c, direction, -disp
        wind = _winding(p.location, q.location, disp)
        flows[pos[id(p)], pos[id(q)]].append(
            (_orientation_sign(p, q, minus_vel), wind, _transport(model, wind)))
    ranks = tuple(m * len(ix) for ix in by_index)
    diffs = [np.zeros((ranks[k + 1], ranks[k]), dtype=complex) for k in range(d)]
    for (i, j), lines in flows.items():
        block = diffs[criticals[j].index][slot[i] : slot[i] + m, slot[j] : slot[j] + m]
        for n, _, tau in lines:
            block += n * tau
    cpx = GradedComplex(ranks, diffs)
    return MorseComplexData(criticals=criticals, flows=flows, complex=cpx)


# ---------------------------------------------------------------------------
# suspension bookkeeping
# ---------------------------------------------------------------------------

def suspend(data, N: int, T: float = 1.0):
    """Shift every degree by the even suspension rank N.

    Returns the suspended complex, the Euler bookkeeping and the two
    candidate Gaussian normalization factors attached to the suspension
    representative (the stated (2 pi T)^{N/2} one and the probability one).
    """
    if N % 2 != 0 or N < 2:
        raise ValueError("suspension rank must be even and >= 2")
    cpx = data.complex if isinstance(data, MorseComplexData) else data
    ranks = (0,) * N + tuple(cpx.ranks)
    diffs = [np.zeros((ranks[k + 1], ranks[k]), dtype=complex) for k in range(N - 1)]
    diffs.append(np.zeros((cpx.ranks[0], 0), dtype=complex))
    diffs.extend(cpx.diffs)
    metrics = [np.zeros((0, 0), dtype=complex)] * N + list(cpx.metrics)
    sus = GradedComplex(ranks, diffs, metrics)
    e0, e1 = euler_chars(cpx), euler_chars(sus)
    return {
        "complex": sus,
        "chi": e1.chi,
        "chi_prime": e1.chi_prime,
        "chi_prime_shift_ok": e1.chi_prime == e0.chi_prime + N * e0.chi,
        "torsion": finite_torsion(sus),
        "normalization_stated": (2.0 * np.pi * T) ** (N / 2.0),
        "normalization_probability": (2.0 * T / np.pi) ** (N / 2.0),
    }


def gaussian_normalization_probe(N: int, T: float, T2: float):
    """Integrate the suspension Gaussian over the unstable plane under both
    normalizations and report which one is deformation-independent.

    The representative is exp(-2 T |x|^2) dx on R^N; the stated
    normalization divides by (2 pi T)^{N/2}, the probability one multiplies
    by (2 T / pi)^{N/2}. The radial quadrature is trapezoidal on 20,000
    nodes over [0, 12 / sqrt(t)].
    """
    if N % 2 != 0 or N < 2:
        raise ValueError("N must be even and >= 2")

    def raw_integral(t):
        # radial quadrature of exp(-2 t |x|^2) over R^N
        surface = 2.0 * np.pi ** (N / 2.0) / math.gamma(N / 2.0)
        rr = np.linspace(0.0, 12.0 / np.sqrt(t), 20_000)
        integrand = rr ** (N - 1) * np.exp(-2.0 * t * rr * rr)
        return surface * np.trapezoid(integrand, rr)

    out = {}
    for name, norm in (
        ("stated", lambda t: raw_integral(t) / (2.0 * np.pi * t) ** (N / 2.0)),
        ("probability", lambda t: raw_integral(t) * (2.0 * t / np.pi) ** (N / 2.0)),
    ):
        v1, v2 = norm(T), norm(T2)
        out[name] = {
            "value_T": v1,
            "value_T2": v2,
            "ratio": v1 / v2,
            "T_independent": abs(v1 / v2 - 1.0) < 1e-6,
        }
    out["T_independent_choice"] = (
        "probability" if out["probability"]["T_independent"] else "stated"
    )
    return out


def ball_removed_ranks(model: ManifoldModel, N: int):
    """Cohomology ranks of the suspended complex with one ball removed.

    Removing the ball adds an index-1 generator block plus a cancelling
    block pair at degrees (N, N + 1) coupled by twice the identity.
    """
    data = build_complex(model)
    sus = suspend(data, N)["complex"]
    m = model.rep_rank
    top = len(sus.ranks) - 1
    ranks = list(sus.ranks)
    ranks[1] += m
    ranks[N] += m
    ranks[N + 1] += m
    diffs = []
    for k in range(top):
        d_old = sus.diffs[k]
        d = np.zeros((ranks[k + 1], ranks[k]), dtype=complex)
        d[: d_old.shape[0], : d_old.shape[1]] = d_old
        if k == N:
            d[d_old.shape[0] :, d_old.shape[1] :] = 2.0 * np.eye(m)
        diffs.append(d)
    modified = GradedComplex(tuple(ranks), diffs)
    return cohomology_dims(modified)


# ---------------------------------------------------------------------------
# twisted-circle comparison
# ---------------------------------------------------------------------------

def zeta_log_det_twisted_circle(theta):
    """log of the zeta-regularized determinant of the twisted circle
    Laplacian, eigenvalues (n + theta / 2 pi)^2 over the integers.

    Computed as -d/ds [zeta_H(2s, a) + zeta_H(2s, 1 - a)] at s = 0, that is
    -2 [zeta_H'(0, a) + zeta_H'(0, 1 - a)], with mpmath's Hurwitz zeta
    derivative (Euler-Maclaurin summation) at 40 digits; no closed form is
    consulted.
    """
    alpha = (theta / (2.0 * np.pi)) % 1.0
    if alpha == 0.0:
        raise ValueError("twist must stay away from 0 mod 2 pi (acyclic case)")
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return float(-2 * (mpmath.zeta(0, a, 1) + mpmath.zeta(0, 1 - a, 1)))


def _twisted_circle_discrete_eigs(theta, n_grid, k):
    """Lowest k eigenvalues of the discrete twisted 0-form Laplacian."""
    h = 2.0 * np.pi / n_grid
    i = np.arange(n_grid)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % n_grid, (i - 1) % n_grid])
    off = np.full(n_grid, -1.0 / h**2, dtype=complex)
    off_up = off.copy()
    off_dn = off.copy()
    off_up[n_grid - 1] *= np.exp(1j * theta)
    off_dn[0] *= np.exp(-1j * theta)
    data = np.concatenate([np.full(n_grid, 2.0 / h**2, dtype=complex), off_up, off_dn])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n_grid, n_grid)).tocsc()
    return _shift_invert(mat, k, -1e-6, None, False)


def cheeger_muller_compare(theta, n_grid=2000):
    """Combinatorial vs analytic torsion of the theta-twisted circle.

    combinatorial: Thom-Smale complex of the height circle with holonomy
    e^{i theta}. analytic exact: from the zeta oracle. analytic fem: the
    lowest 16 zeta-free discrete eigenvalues replace their exact
    counterparts inside the zeta determinant.
    """
    if abs(np.exp(1j * theta) - 1.0) < 1e-10:
        raise ValueError("theta = 0 mod 2 pi is not acyclic")
    rep = np.array([[np.exp(1j * theta)]])
    comb = finite_torsion(build_complex(circle_model(freq=1, rep=rep)).complex)
    logdet = zeta_log_det_twisted_circle(theta)
    analytic_exact = -0.5 * logdet
    alpha = (theta / (2.0 * np.pi)) % 1.0
    k = 16
    ns = np.arange(-k - 2, k + 3)
    exact_eigs = np.sort((ns + alpha) ** 2)[:k]
    disc_eigs = _twisted_circle_discrete_eigs(theta, n_grid, k)
    logdet_fem = logdet + float(np.sum(np.log(disc_eigs) - np.log(exact_eigs)))
    analytic_fem = -0.5 * logdet_fem
    return {
        "combinatorial": comb,
        "analytic_exact": analytic_exact,
        "analytic_fem": analytic_fem,
        "gap_comb_exact": abs(comb - analytic_exact),
        "gap_fem_exact": abs(analytic_fem - analytic_exact),
    }
