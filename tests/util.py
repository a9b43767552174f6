"""Shared generators for test complexes and families."""

import numpy as np
import scipy.linalg

from torsionlab.graded import GradedComplex
from torsionlab.forms import SuperconnectionFamily


def random_metric(rng, r, spread=0.5):
    if r == 0:
        return np.zeros((0, 0), dtype=complex)
    a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return (spread * a) @ (spread * a).conj().T + np.eye(r, dtype=complex)


def random_complex(rng, n_deg=3, max_piece=2, acyclic=False, identity_metrics=False):
    """Random complex with exact d^2 = 0 via a split model conjugated by
    random invertibles. Dims per degree: boundaries + harmonics + coboundaries.
    """
    h = [0 if acyclic else int(rng.integers(0, max_piece + 1)) for _ in range(n_deg)]
    c = [int(rng.integers(0, max_piece + 1)) for _ in range(n_deg - 1)]  # c[k] maps iso to b[k+1]
    if sum(h) + sum(c) == 0:
        c[0] = 1
    b = [0] + list(c)
    ranks = [b[k] + h[k] + (c[k] if k < n_deg - 1 else 0) for k in range(n_deg)]
    diffs = []
    for k in range(n_deg - 1):
        d = np.zeros((ranks[k + 1], ranks[k]), dtype=complex)
        for i in range(c[k]):
            s = 0.5 + rng.random() * 2.0
            d[i, b[k] + h[k] + i] = s
        diffs.append(d)
    # conjugate by random invertibles per degree
    basis = []
    for r in ranks:
        if r == 0:
            basis.append(np.zeros((0, 0), dtype=complex))
            continue
        t = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        t = t + 3.0 * np.eye(r)
        basis.append(t)
    diffs = [
        (basis[k + 1] @ d @ np.linalg.inv(basis[k])) if d.size else d
        for k, d in enumerate(diffs)
    ]
    if identity_metrics:
        metrics = [np.eye(r, dtype=complex) for r in ranks]
    else:
        metrics = [random_metric(rng, r) for r in ranks]
    return GradedComplex(tuple(ranks), diffs, metrics)


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


def _min_nonzero_eig(c):
    from torsionlab.graded import laplacian_spectrum, _split_spectrum

    vals = []
    for k in range(len(c.ranks)):
        if c.ranks[k] == 0:
            continue
        nz = _split_spectrum(laplacian_spectrum(c, k), check_band=False)[1]
        if nz.size:
            vals.append(nz.min())
    return min(vals) if vals else 1.0
