"""Shared generators for test complexes and families."""

import numpy as np
import scipy.linalg

from torsionlab.acceptance import random_complex
from torsionlab.graded import GradedComplex
from torsionlab.forms import SuperconnectionFamily


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
