import dataclasses
import functools

import numpy as np
import pytest
import scipy.integrate

from torsionlab import morse as M
from torsionlab.graded import GradedComplex, cohomology_dims, euler_chars, finite_torsion

from util import random_complex, zeta_log_det_twisted_circle_diff


def test_model_validation():
    with pytest.raises(ValueError, match="unitary"):
        M.ManifoldModel("circle", None, None, None, [np.array([[2.0]])])
    with pytest.raises(ValueError, match="commute"):
        rep = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        M.ManifoldModel("torus2d", None, None, None, rep)


def test_degenerate_model_rejected():
    # f = cos s + cos(2s)/4 has a cubic (birth-death) zero at s = pi
    bad = M.ManifoldModel(
        "circle",
        lambda u: np.cos(u[0]) + 0.25 * np.cos(2 * u[0]),
        lambda u: np.array([-np.sin(u[0]) - 0.5 * np.sin(2 * u[0])]),
        lambda u: np.array([[-np.cos(u[0]) - np.cos(2 * u[0])]]),
        [np.eye(1, dtype=complex)],
    )
    with pytest.raises(ValueError, match="not Morse|degenerate"):
        M.fiber_criticals(bad)


def _fiber_criticals_per_seed(model):
    """Oracle: the scalar Newton that fiber_criticals batches, one seed at
    a time, with the sequential dedup scan."""
    d = model.dim
    if d == 1:
        seeds = np.linspace(0, 2 * np.pi, 256, endpoint=False)[:, None]
    else:
        g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        seeds = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    found = []
    for u0 in seeds:
        u = u0.astype(float).copy()
        ok = False
        for _ in range(60):
            g = model.grad(u)
            h = model.hess(u)
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > 1.0:
                step *= 1.0 / np.linalg.norm(step)
            u = u - step
            if np.linalg.norm(model.grad(u)) < 1e-12:
                ok = True
                break
        if not ok:
            continue
        u = np.mod(u, 2 * np.pi)
        if any(
            np.linalg.norm(np.mod(u - c.location + np.pi, 2 * np.pi) - np.pi) < 1e-6
            for c in found
        ):
            continue
        spec, vecs = np.linalg.eigh(model.hess(u))
        if np.abs(spec).min() < 1e-6 * max(1.0, np.abs(spec).max()):
            raise ValueError("degenerate critical point: model is not Morse")
        frame = vecs[:, spec < 0]
        cols = []
        for j in range(frame.shape[1]):
            v = frame[:, j]
            lead = np.argmax(np.abs(v))
            cols.append((lead, v * np.sign(v[lead])))
        cols.sort(key=lambda t: t[0])
        frame = np.stack([c[1] for c in cols], axis=1) if cols else frame
        found.append(M.Critical(u, float(model.value(u)), int((spec < 0).sum()), frame))
    found.sort(key=lambda c: (c.index, c.value, tuple(np.round(c.location, 9))))
    return found


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _critical_bits(crits):
    return [(_bits(c.location), _bits(c.value), c.index, _bits(c.frame)) for c in crits]


def _complex_bits(data):
    flows = [(k, [(n, w, _bits(t)) for n, w, t in v]) for k, v in data.flows.items()]
    cpx = data.complex
    return (_critical_bits(data.criticals), flows, cpx.ranks,
            [_bits(d) for d in cpx.diffs], [_bits(g) for g in cpx.metrics])


def _shoot_one(model, c, direction, criticals, sign_time, method="DOP853"):
    """Oracle: one shot integrated alone by solve_ivp, its arrival a
    terminal event. Integrates sign_time * (-grad f) from c + 1e-6 *
    direction until the flow comes within 1e-4 (periodic distance) of a
    critical point other than c, with rtol 1e-10, atol 1e-12, max_step 1.0
    and time bound 1e4. Returns (that critical point, arrival velocity
    direction, unwrapped displacement); raises RuntimeError when the flow
    reaches none."""
    others = [x for x in criticals if x is not c]
    locs = np.array([x.location for x in others])

    def rhs(t, u):
        return sign_time * (-model.grad(u))

    def dists(u):
        return M._row_norms(np.mod(u - locs + np.pi, 2 * np.pi) - np.pi)

    def arrived(t, u):
        return dists(u).min() - 1e-4

    arrived.terminal = True
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, 1e4), c.location + 1e-6 * direction, method=method, events=arrived,
        rtol=1e-10, atol=1e-12, max_step=1.0,
    )
    if not sol.t_events[0].size:
        raise RuntimeError("flow line escaped; model not Thom-Smale")
    u_end = sol.y_events[0][0]
    vel = rhs(0.0, u_end)
    nv = np.linalg.norm(vel)
    vel = vel / nv if nv > 0 else vel
    return others[int(np.argmin(dists(u_end)))], vel, u_end - c.location


def _flow_lines(model, criticals, p, q, shoot=_shoot_one):
    """Oracle: the signed, transported flow lines from p to q (ind p =
    ind q + 1) of the pair alone, each shot by `shoot`: forward
    from p along its unstable line when ind p = 1, else backward from q
    along its stable line (the top-index pair on the torus), keeping the
    lines that reach the partner."""
    if p.index == 1:
        c, partner, line, sign_time = p, q, p.frame[:, 0], 1.0
    else:
        spec, vecs = np.linalg.eigh(model.hess(q.location))
        c, partner, line, sign_time = q, p, vecs[:, spec > 0][:, 0], -1.0
    out = []
    for s0 in (+1.0, -1.0):
        target, vel, disp = shoot(model, c, s0 * line, criticals, sign_time)
        if target is not partner:
            continue
        if sign_time > 0:
            n, wind = M._orientation_sign(p, q, -vel), M._winding(p.location, q.location, disp)
        else:  # arrival at q along -s0 * line, displacement reversed
            n = M._orientation_sign(p, q, s0 * line)
            wind = M._winding(p.location, q.location, -disp)
        out.append((n, wind, M._transport(model, wind)))
    return out


def _per_pair_complex(model, criticals=None, shoot=_shoot_one):
    """Oracle: the complex assembled pair by pair, each (p, q) block the
    sum of _flow_lines(p, q), rows and columns in critical-point order.
    The critical points are `criticals` if given, else fiber_criticals';
    `shoot` (signature of _shoot_one) shoots every line."""
    crit = M.fiber_criticals(model) if criticals is None else criticals
    m = model.rep_rank
    pos = {id(c): i for i, c in enumerate(crit)}
    by_index = [[c for c in crit if c.index == k] for k in range(model.dim + 1)]
    flows, diffs = {}, []
    for k in range(model.dim):
        mat = np.zeros((m * len(by_index[k + 1]), m * len(by_index[k])), dtype=complex)
        for ip, p in enumerate(by_index[k + 1]):
            for iq, q in enumerate(by_index[k]):
                lines = flows[pos[id(p)], pos[id(q)]] = _flow_lines(model, crit, p, q, shoot)
                block = np.zeros((m, m), dtype=complex)
                for n, _, tau in lines:
                    block += n * tau
                mat[ip * m : (ip + 1) * m, iq * m : (iq + 1) * m] = block
        diffs.append(mat)
    ranks = tuple(m * len(c) for c in by_index)
    return M.MorseComplexData(crit, flows, GradedComplex(ranks, diffs))


def _sin_circle():
    # f = sin s: at the seed s = 0 the Hessian -sin(0) is exactly -0.0
    return M.ManifoldModel(
        "circle",
        lambda u: np.sin(u[0]),
        lambda u: np.array([np.cos(u[0])]),
        lambda u: np.array([[-np.sin(u[0])]]),
        [np.eye(1, dtype=complex)],
    )


ORACLE_MODELS = {
    "circle1": lambda: M.circle_model(freq=1),
    "circle2": lambda: M.circle_model(freq=2),
    "circle3": lambda: M.circle_model(freq=3, rep=np.array([[np.exp(0.7j)]])),
    "tilted": lambda: M.circle_model(freq=2, tilt=0.3),
    "sin": _sin_circle,
    "torus": lambda: M.torus_model(),
    **{
        f"torus{a:+}{b:+}": (lambda a=a, b=b: M.torus_model(
            rep=[np.array([[np.exp(1.3j)]]), np.array([[np.exp(4.1j)]])], tilt=(a, b)))
        for a in (-0.05, 0.05) for b in (-0.05, 0.05)
    },
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_build_complex_matches_per_seed_oracle(name):
    model = ORACLE_MODELS[name]()
    data = M.build_complex(model)
    assert _critical_bits(M.fiber_criticals(model)) == _critical_bits(data.criticals)
    # the per-pair assembly: same flows, key order, line order and blocks
    assert _complex_bits(data) == _complex_bits(_per_pair_complex(model))
    # the oracle complex: per-seed Newton and flow lines shot with RK45
    rk45 = functools.partial(_shoot_one, method="RK45")
    oracle = _per_pair_complex(model, _fiber_criticals_per_seed(model), rk45)
    assert _complex_bits(data) == _complex_bits(oracle)


def _sweep_model(i):
    """Model i of a seeded sweep: even i a torus with random holonomy and
    tilts in [-0.05, 0.05], odd i a circle of freq 1-4 with tilt in
    [-0.3, 0.3] and a random unitary holonomy of rank 1 or 2."""
    rng = np.random.default_rng([2026, i])
    if i % 2 == 0:
        rep = [np.array([[np.exp(1j * a)]]) for a in rng.uniform(0.0, 2 * np.pi, 2)]
        return M.torus_model(rep=rep, tilt=tuple(rng.uniform(-0.05, 0.05, 2)))
    rank = 1 + i // 2 % 2
    q, _ = np.linalg.qr(rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank)))
    rep = q @ np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, rank))) @ q.conj().T
    return M.circle_model(freq=1 + i // 4 % 4, rep=rep, tilt=rng.uniform(-0.3, 0.3))


def _spy_shots(monkeypatch):
    """Record the (shots, results) of every _shoot_all call."""
    batches = []
    shoot_all = M._shoot_all

    def spy(model, shots, criticals):
        out = shoot_all(model, shots, criticals)
        batches.append((shots, out))
        return out

    monkeypatch.setattr(M, "_shoot_all", spy)
    return batches


@pytest.mark.parametrize("block", range(10))
def test_stacked_shots_match_per_shot_oracle(block, monkeypatch):
    # 100 models, 10 per block: every stacked shot reaches the target of
    # the same shot integrated alone, its arrival point and direction
    # within 1e-8 of that shot's, and the complex equals the per-pair
    # oracle's bit for bit (each distinct shot of the oracle made once)
    batches = _spy_shots(monkeypatch)
    for i in range(10 * block, 10 * block + 10):
        model = _sweep_model(i)
        data = M.build_complex(model)
        crit = data.criticals
        oracle = {}

        def shoot(model, c, direction, criticals, sign_time):
            key = id(c), direction.tobytes(), sign_time
            if key not in oracle:
                oracle[key] = _shoot_one(model, c, direction, criticals, sign_time)
            return oracle[key]

        (shots, hits), = batches  # one _shoot_all call per build_complex
        batches.clear()
        assert len(shots) == 2 * model.dim * sum(c.index == 1 for c in crit)
        for (c, direction, sign_time), (target, vel, disp) in zip(shots, hits):
            o_target, o_vel, o_disp = shoot(model, c, direction, crit, sign_time)
            assert target is o_target
            assert np.abs(disp - o_disp).max() <= 1e-8
            assert np.abs(vel - o_vel).max() <= 1e-8
        assert _complex_bits(data) == _complex_bits(_per_pair_complex(model, crit, shoot))


def _counting_shots(monkeypatch, wrap=None):
    """Record (start point, sign_time) of every shot whose result
    build_complex reads, in the order it reads them, optionally passing
    each result through wrap. build_complex checks each result as it reads
    it, so after a raise the last entry names the offending shot."""
    calls = []
    shoot_all = M._shoot_all

    def counting(model, shots, criticals):
        for (c, _, sign_time), out in zip(shots, shoot_all(model, shots, criticals)):
            calls.append((c, sign_time))
            yield out if wrap is None or out is None else wrap(*out)

    monkeypatch.setattr(M, "_shoot_all", counting)
    return calls


SHOT_MODELS = {"1": lambda: M.circle_model(freq=1), "2": lambda: M.circle_model(freq=2),
               "3": lambda: M.circle_model(freq=3), "torus": ORACLE_MODELS["torus"],
               "torus-0.05+0.05": ORACLE_MODELS["torus-0.05+0.05"]}


@pytest.mark.parametrize("name", list(SHOT_MODELS))
def test_build_complex_shoots_each_trajectory_once(name, monkeypatch):
    # every flow line passes through an index-1 point, so build_complex
    # shoots from those alone, each direction once, all in one system:
    # 2 dim shots per index-1 point (freq 3: 6 shots, where the per-pair
    # oracle makes 18)
    model = SHOT_MODELS[name]()
    batches = _spy_shots(monkeypatch)
    calls = _counting_shots(monkeypatch)
    data = M.build_complex(model)
    n_saddles = sum(c.index == 1 for c in data.criticals)
    assert len(batches) == 1 and len(batches[0][0]) == 2 * model.dim * n_saddles
    assert len(calls) == 2 * model.dim * n_saddles
    assert all(c.index == 1 for c, _ in calls)
    assert _complex_bits(data) == _complex_bits(_per_pair_complex(model))


def test_build_complex_stacks_every_shot(monkeypatch):
    # the 8 shots of a tilted torus are one DOP853 system: one solver, held
    # at the per-shot tolerances divided by sqrt(8), and every gradient call
    # of the integration evaluates all 8 trajectories at once, far fewer
    # calls than the 8 x ~650 of one solve per shot
    model = M.torus_model(tilt=(0.03, -0.02))
    crit = M.fiber_criticals(model)
    monkeypatch.setattr(M, "fiber_criticals", lambda model: crit)
    solvers = []
    dop853 = M.scipy.integrate.DOP853

    class Counting(dop853):
        def __init__(self, *args, **kwargs):
            solvers.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(M.scipy.integrate, "DOP853", Counting)
    calls = []
    grad = model.grad

    def counting(u):
        calls.append(np.shape(u))
        return grad(u)

    model = dataclasses.replace(model, grad=counting)
    data = M.build_complex(model)
    assert data.complex.ranks == (1, 2, 1)
    assert len(solvers) == 1
    assert (solvers[0].rtol, solvers[0].atol) == (1e-10 / np.sqrt(8), 1e-12 / np.sqrt(8))
    assert set(calls) == {(2, 8)}
    assert len(calls) <= 1300


def _upright_torus():
    # height of the upright torus, f = (2 + cos x) cos y: the invariant line
    # x = pi runs from the saddle (pi, 0) down to the saddle (pi, pi), a flow
    # line between points of equal index, so the model is not Thom-Smale
    def grad(u):
        return np.array([-np.sin(u[0]) * np.cos(u[1]), -(2 + np.cos(u[0])) * np.sin(u[1])])

    def hess(u):
        off = np.sin(u[0]) * np.sin(u[1])
        return np.array([[-np.cos(u[0]) * np.cos(u[1]), off],
                         [off, -(2 + np.cos(u[0])) * np.cos(u[1])]])

    return M.ManifoldModel("torus2d", lambda u: (2 + np.cos(u[0])) * np.cos(u[1]), grad, hess,
                           [np.eye(1, dtype=complex)] * 2)


def test_backward_shot_onto_saddle_is_non_transversal(monkeypatch):
    # the lower saddle shoots first; its backward shot up the line x = pi
    # reaches the upper saddle
    calls = _counting_shots(monkeypatch)
    with pytest.raises(RuntimeError, match="non-transversal"):
        M.build_complex(_upright_torus())
    assert calls[-1][1] == -1.0


def test_forward_shot_onto_saddle_is_non_transversal(monkeypatch):
    # with the upper saddle listed first, its forward shot down the line
    # x = pi reaches the lower saddle
    model = _upright_torus()
    crit = M.fiber_criticals(model)
    assert [c.index for c in crit] == [0, 1, 1, 2]
    monkeypatch.setattr(M, "fiber_criticals", lambda model: [crit[0], crit[2], crit[1], crit[3]])
    calls = _counting_shots(monkeypatch)
    with pytest.raises(RuntimeError, match="non-transversal"):
        M.build_complex(model)
    assert len(calls) == 1 and calls[0][0] is crit[2] and calls[0][1] == 1.0


def test_escaped_flow_line_raises(monkeypatch):
    # a flow that reaches no critical point before the end of the time span:
    # from 1e-6 off the maximum of cos s the flow needs t ~ 14 to leave it
    monkeypatch.setattr(M, "_T_BOUND", 1.0)
    calls = _counting_shots(monkeypatch)
    with pytest.raises(RuntimeError, match="escaped"):
        M.build_complex(M.circle_model())
    assert len(calls) == 1


def test_degenerate_orientation_raises(monkeypatch):
    # an arrival velocity of zero spans nothing against the unstable frame
    _counting_shots(monkeypatch, wrap=lambda target, vel, disp: (target, 0.0 * vel, disp))
    with pytest.raises(RuntimeError, match="degenerate orientation"):
        M.build_complex(M.circle_model())


def test_singular_hessian_drops_only_its_seed():
    crits = M.fiber_criticals(_sin_circle())
    assert [c.index for c in crits] == [0, 1]
    assert np.allclose([c.location[0] for c in crits], [1.5 * np.pi, 0.5 * np.pi],
                       atol=1e-12)


def test_fiber_criticals_batches_grad_calls():
    model = M.torus_model(tilt=(0.03, -0.02))
    calls = []
    grad = model.grad

    def counting(u):
        calls.append(np.shape(u))
        return grad(u)

    model = dataclasses.replace(model, grad=counting)
    assert len(M.fiber_criticals(model)) == 4
    # one batched call before the first Newton iteration and one per
    # iteration (at most 60), not one or two per seed and step
    assert len(calls) <= 121
    assert calls[0] == (2, 4096)


def test_circle_criticals():
    crits = M.fiber_criticals(M.circle_model())
    assert sorted(c.index for c in crits) == [0, 1]
    crits = M.fiber_criticals(M.circle_model(freq=2))
    assert sorted(c.index for c in crits) == [0, 0, 1, 1]


def test_torus_criticals():
    crits = M.fiber_criticals(M.torus_model())
    assert sorted(c.index for c in crits) == [0, 1, 1, 2]


def test_circle_trivial_rep_flow_lines():
    data = M.build_complex(M.circle_model())
    assert data.complex.ranks == (1, 1)
    # two flow lines with opposite signs
    lines = list(data.flows.values())[0]
    assert sorted(n for n, _, _ in lines) == [-1, 1]
    assert np.allclose(data.complex.diffs[0], 0.0)


def test_circle_twisted_rep():
    for theta in (0.7, np.pi / 2, np.pi, 4.0):
        rep = np.array([[np.exp(1j * theta)]])
        data = M.build_complex(M.circle_model(rep=rep))
        d = data.complex.diffs[0][0, 0]
        assert np.isclose(abs(d), abs(1 - np.exp(1j * theta)), atol=1e-12)


def test_circle_quarter_twist_torsion():
    rep = np.array([[1j]])
    cpx = M.build_complex(M.circle_model(rep=rep)).complex
    assert cohomology_dims(cpx) == [0, 0]
    assert np.isclose(finite_torsion(cpx), -0.5 * np.log(2.0), atol=1e-12)


def test_torus_product_complex():
    data = M.build_complex(M.torus_model())
    assert data.complex.ranks == (1, 2, 1)
    assert cohomology_dims(data.complex) == [1, 2, 1]
    # matching +-1 pairs in each block
    for d in data.complex.diffs:
        vals = np.abs(d[np.abs(d) > 1e-12])
        assert np.allclose(vals, 1.0)


def test_torsion_gauge_invariance():
    rng = np.random.default_rng(3)
    theta = 1.1
    rep = np.array([[np.exp(1j * theta)]])
    base = finite_torsion(M.build_complex(M.circle_model(rep=rep)).complex)
    # conjugating a rank-2 block-diagonal rep by a unitary leaves torsion put
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep2 = np.diag([np.exp(1j * theta), np.exp(2.2j)])
    cpx = M.build_complex(M.circle_model(rep=rep2)).complex
    cpx_g = M.build_complex(M.circle_model(rep=q @ rep2 @ q.conj().T)).complex
    assert abs(finite_torsion(cpx) - finite_torsion(cpx_g)) < 1e-10
    assert abs(finite_torsion(M.build_complex(M.circle_model(rep=rep)).complex) - base) < 1e-14


def test_suspension_bookkeeping():
    data = M.build_complex(M.circle_model())
    with pytest.raises(ValueError, match="even"):
        M.suspend(data, 3)
    sus = M.suspend(data, 4)
    # a minimum lands in degree 4
    assert sus["complex"].ranks[4] == 1
    e0 = euler_chars(data.complex)
    assert sus["chi_prime"] == e0.chi_prime + 4 * e0.chi
    assert sus["chi_prime_shift_ok"]


def test_suspension_torsion_shift_random():
    rng = np.random.default_rng(4)
    done = 0
    while done < 50:
        c = random_complex(rng, n_deg=3, max_piece=2)
        if c.total_rank == 0:
            continue
        t0 = finite_torsion(c)
        sus = M.suspend(
            M.MorseComplexData(criticals=[], flows={}, complex=c), 2
        )
        # even reindexing leaves the scalar torsion unchanged
        assert abs(sus["torsion"] - t0) < 1e-9 * max(1.0, abs(t0))
        done += 1


def test_gaussian_normalization_probe():
    probe = M.gaussian_normalization_probe(2, 1.0, 1.0)
    assert np.isclose(probe["stated"]["ratio"], 1.0)
    assert np.isclose(probe["probability"]["ratio"], 1.0)
    probe = M.gaussian_normalization_probe(4, 0.7, 2.1)
    assert np.isclose(probe["probability"]["value_T"], 1.0, atol=1e-6)
    assert np.isclose(probe["stated"]["ratio"], (2.1 / 0.7) ** 4, rtol=1e-6)
    assert probe["T_independent_choice"] == "probability"


def test_ball_removed_rank_table():
    for m_rep in (1, 3):
        for n_sus in (2, 4):
            model = M.circle_model(rep=np.eye(m_rep, dtype=complex))
            ranks = M.ball_removed_ranks(model, n_sus)
            sus = M.suspend(M.build_complex(model), n_sus)["complex"]
            plain = cohomology_dims(sus)
            assert ranks[1] == m_rep
            for l in range(2, n_sus):
                assert ranks[l] == 0
            for l in range(n_sus, len(ranks)):
                assert ranks[l] == plain[l]


def test_zeta_oracle_matches_eigen_sum():
    # brute cross-check of the oracle: truncated log-det against the zeta
    # value through the difference of partial sums for two twists
    t1, t2 = 1.0, 2.0
    z1 = M.zeta_log_det_twisted_circle(t1)
    z2 = M.zeta_log_det_twisted_circle(t2)
    a1 = (t1 / (2 * np.pi)) % 1.0
    a2 = (t2 / (2 * np.pi)) % 1.0
    ns = np.arange(-200000, 200001)
    s1 = np.log((ns + a1) ** 2).sum()
    s2 = np.log((ns + a2) ** 2).sum()
    # the difference of regularized log-dets equals the (convergent)
    # difference of the symmetric partial sums in the limit
    assert abs((z1 - z2) - (s1 - s2)) < 1e-4


def test_zeta_oracle_matches_numerical_derivative():
    # the Hurwitz zeta derivative equals the numerically differentiated
    # zeta sum bit for bit, on random twists and the criterion and CLI ones
    rng = np.random.default_rng(7)
    thetas = list(rng.uniform(0.01, 2 * np.pi - 0.01, 36))
    thetas += [1.0, 2.0, np.pi / 3, np.pi / 2, np.pi, 4 * np.pi / 3, 3.14159265]
    for theta in thetas:
        assert M.zeta_log_det_twisted_circle(theta) == zeta_log_det_twisted_circle_diff(theta)


def test_cheeger_muller_sweep():
    for theta in (np.pi / 3, np.pi / 2, np.pi, 4 * np.pi / 3):
        out = M.cheeger_muller_compare(theta, n_grid=2000)
        assert out["gap_comb_exact"] <= 1e-6
        assert out["gap_fem_exact"] <= 1e-2
        closed = -np.log(abs(1 - np.exp(1j * theta)))
        assert abs(out["combinatorial"] - closed) <= 1e-10


def test_cheeger_muller_conjugate_symmetry():
    a = M.cheeger_muller_compare(np.pi / 2)
    b = M.cheeger_muller_compare(3 * np.pi / 2)
    assert abs(a["combinatorial"] - b["combinatorial"]) < 1e-12
    assert abs(a["analytic_exact"] - b["analytic_exact"]) < 1e-12


def test_cheeger_muller_rejects_untwisted():
    with pytest.raises(ValueError, match="acyclic"):
        M.cheeger_muller_compare(0.0)


def test_combinatorial_torsion_closed_form_sweep():
    for theta in np.linspace(0.4, 5.9, 8):
        rep = np.array([[np.exp(1j * theta)]])
        cpx = M.build_complex(M.circle_model(rep=rep)).complex
        closed = -np.log(abs(1 - np.exp(1j * theta)))
        assert abs(finite_torsion(cpx) - closed) <= 1e-10
