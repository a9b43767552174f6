"""The validated types are frozen, hold read-only copies of their array
inputs, and refuse non-finite entries at construction."""

import dataclasses

import numpy as np
import pytest

from torsionlab import birthdeath as B
from torsionlab import forms as F
from torsionlab import graded as G
from torsionlab import morse as M
from torsionlab import witten1d as W
from torsionlab.acceptance import anomaly_family, cos2

NAN, INF = float("nan"), float("inf")


def _complex(d0=((1.0,), (1.0,)), metric=2.0 * np.eye(2)):
    return G.GradedComplex((1, 2, 1), [d0, [[1.0, -1.0]]], [np.eye(1), metric, np.eye(1)])


def _family(transport=None, at=3):
    fam = anomaly_family(8)
    ps = list(fam.transports)
    if transport is not None:
        ps[at] = transport
    return F.SuperconnectionFamily(fam.fibers, ps)


def _problem(fp=None, T=5.0):
    p = W.circle_problem(cos2(0.1), 5.0)
    return W.WittenProblem1D("circle", p.nodes, p.fp if fp is None else fp, p.fpp, T)


def _with_nan(a, idx=0):
    a = np.array(a)
    a.flat[idx] = NAN
    return a


MAKERS = {
    "GradedComplex": _complex,
    "SuperconnectionFamily": _family,
    "ManifoldModel": lambda: M.circle_model(rep=np.array([[np.exp(0.5j)]])),
    "WittenProblem1D": _problem,
    "InterfaceProfile": lambda: W.build_p_profile(4.0, 0.12),
}


def _array_fields(obj):
    """Every array held by the fields of a validated object."""
    if isinstance(obj, G.GradedComplex):
        return [*obj.diffs, *obj.metrics]
    if isinstance(obj, F.SuperconnectionFamily):
        return list(obj.transports)
    if isinstance(obj, M.ManifoldModel):
        return list(obj.holonomy)
    if isinstance(obj, W.WittenProblem1D):
        return [obj.nodes, obj.fp, obj.fpp]
    return []


@pytest.mark.parametrize("name", MAKERS)
def test_fields_refuse_assignment(name):
    obj = MAKERS[name]()
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


@pytest.mark.parametrize("name", ["GradedComplex", "SuperconnectionFamily", "ManifoldModel",
                                  "WittenProblem1D"])
def test_array_fields_refuse_writes(name):
    arrays = _array_fields(MAKERS[name]())
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_derived_data_refuses_writes():
    c = _complex()
    fam = _family()
    for a in [*c.spectra, *fam.stacks[0], *fam.stacks[1]]:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    assert c.spectra is c.spectra and fam.stacks is fam.stacks


def test_caller_mutation_leaves_objects_unchanged():
    d0 = np.array([[1.0], [1.0]], dtype=complex)
    g1 = 2.0 * np.eye(2, dtype=complex)
    c = _complex(d0, g1)
    d0[0, 0], g1[0, 0] = 5.0, 7.0
    assert c.diffs[0][0, 0] == 1.0 and c.metrics[1][0, 0] == 2.0

    ps = [np.array(t) for t in anomaly_family(8).transports]
    fam = F.SuperconnectionFamily(anomaly_family(8).fibers, ps)
    keep = fam.transports[0][0, 0]
    ps[0][0, 0] = 99.0
    assert fam.transports[0][0, 0] == keep

    rep = np.array([[np.exp(0.5j)]])
    model = M.circle_model(rep=rep)
    rep[0, 0] = 1.0
    assert model.holonomy[0][0, 0] == np.exp(0.5j)

    p = W.circle_problem(cos2(0.1), 5.0)
    nodes, fp, fpp = (np.array(a) for a in (p.nodes, p.fp, p.fpp))
    prob = W.WittenProblem1D("circle", nodes, fp, fpp, 5.0)
    nodes[1], fp[0], fpp[0] = 9.0, 1e3, 1e3
    assert np.array_equal(prob.nodes, p.nodes) and np.array_equal(prob.fp, p.fp)
    assert np.array_equal(prob.fpp, p.fpp)


NON_FINITE = {
    "GradedComplex d_0": (lambda: G.GradedComplex((1, 2, 1), [[[NAN], [1]], [[1, -1]]]),
                          ValueError),
    "GradedComplex metric": (lambda: G.GradedComplex((1,), [], [[[INF]]]),
                             G.InvalidMetricError),
    "SuperconnectionFamily transport": (
        lambda: _family(_with_nan(anomaly_family(8).transports[3], 5)), ValueError),
    "WittenProblem1D fp": (lambda: _problem(_with_nan(_problem().fp, 7)), ValueError),
    "WittenProblem1D T": (lambda: _problem(T=NAN), ValueError),
    "ManifoldModel holonomy": (lambda: M.circle_model(rep=[[NAN]]), ValueError),
    "InterfaceProfile A": (lambda: W.build_p_profile(NAN, 0.12), ValueError),
    "InterfaceProfile r": (lambda: W.build_p_profile(4.0, NAN), ValueError),
    "ModelParams A nan": (lambda: B.ModelParams(6, 3, 0.04, 0.06, 0.0015, A=NAN), ValueError),
    "ModelParams A inf": (lambda: B.ModelParams(6, 3, 0.04, 0.06, 0.0015, A=INF), ValueError),
    "ModelParams y": (lambda: B.ModelParams(6, 3, 0.04, 0.06, 0.0015, y=NAN), ValueError),
    "ModelParams r1": (lambda: B.ModelParams(6, 3, NAN, 0.06, 0.0015), ValueError),
}


def test_singular_transports_are_refused():
    fibers = anomaly_family(8).fibers
    # zero transports preserve the grading and are trivially flat
    with pytest.raises(ValueError, match="transport 0 is singular"):
        F.SuperconnectionFamily(fibers, [np.zeros((4, 4))] * 8)
    # smallest singular value at N eps times the largest is refused, on the edge named
    eps = np.finfo(float).eps
    with pytest.raises(ValueError, match="transport 5 is singular"):
        _family(np.diag([1.0, 1.0, 1.0, 4 * eps]), at=5)
    # just above it, the transport is invertible (and here not flat)
    with pytest.raises(ValueError, match="flatness"):
        _family(np.diag([1.0, 1.0, 1.0, 5 * eps]), at=5)
    for m in (8, 64):
        sv = np.linalg.svd(np.stack(anomaly_family(m).transports), compute_uv=False)
        assert np.abs(sv - 1.0).max() <= 1e-14


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_inputs_are_refused(case):
    make, error = NON_FINITE[case]
    with pytest.raises(ValueError, match="finite") as info:
        make()
    assert info.type is error
