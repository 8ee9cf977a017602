"""State-metric tests: transport exactness, ascent certificates, oracles,
diameters, and the point-collapse builder that consumes them."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapselab.core import (
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    lip_seminorm,
)
from collapselab.builders import (
    build_crossed_product_model,
    build_cycle_adjacency_model,
    build_cycle_graph_model,
    build_graph_model,
    build_path_graph_model,
    build_point_collapse,
    build_two_point_model,
)
from collapselab.qmetric import (
    DistanceResult,
    StateFunctional,
    connes_distance,
    distance_bruteforce_oracle,
    product_state_distance_check,
    pure_state,
    quantum_diameter,
    random_pure_state,
    vertex_state,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)


def _spin_model() -> SpectralTripleModel:
    """Two-level model with a one-parameter gauge-reduced span; the distance
    between the coordinate pure states is exactly 1."""
    return SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SX),
                               "spin", grading=SZ)


def _mixed_vertex_state(model, weights) -> StateFunctional:
    rho = np.zeros((model.hilbert_dim,) * 2, dtype=complex)
    for v, wgt in enumerate(weights):
        slots = model.structure.vertex_slots[v]
        for s in slots:
            rho[s, s] += wgt / len(slots)
    return StateFunctional(rho)


# ----------------------------------------------------------------- states

def test_state_rejects_non_square():
    with pytest.raises(PreconditionError, match="square"):
        StateFunctional(np.ones((2, 3)))


def test_state_rejects_non_hermitian():
    with pytest.raises(PreconditionError, match="Hermitian"):
        StateFunctional(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_state_rejects_wrong_trace():
    with pytest.raises(PreconditionError, match="trace"):
        StateFunctional(np.eye(2))


def test_state_rejects_negative_eigenvalue():
    with pytest.raises(PreconditionError, match="negative"):
        StateFunctional(np.diag([1.5, -0.5]))


def test_state_expectation():
    phi = pure_state(2, 0)
    # expectation of a Hermitian matrix is real
    val = phi.expectation(SZ)
    assert val == pytest.approx(1.0)
    assert abs(val.imag) == 0.0
    with pytest.raises(PreconditionError, match="dimension"):
        phi.expectation(np.eye(3))


def test_pure_state_index_range():
    with pytest.raises(PreconditionError, match="range"):
        pure_state(2, 5)


def test_vertex_state_needs_graph_structure():
    with pytest.raises(PreconditionError, match="graph"):
        vertex_state(_spin_model(), 0)


def test_vertex_state_trace_one_on_multislot_vertices():
    c5 = build_cycle_graph_model([1.0] * 5)
    phi = vertex_state(c5, 2)
    assert np.trace(phi.density).real == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------- exact transport distances

def test_two_point_distance_is_inverse_coupling():
    for kappa in (0.5, 1.0, 2.0):
        m = build_two_point_model(kappa)
        res = connes_distance(m, vertex_state(m, 0), vertex_state(m, 1))
        assert res.method == "exact-shortest-path"
        assert res.converged
        assert res.value == pytest.approx(1.0 / kappa, abs=1e-10)
        # the certificate is feasible and recovers the value
        assert lip_seminorm(m, res.certificate) <= 1.0 + 1e-9
        phi, psi = vertex_state(m, 0), vertex_state(m, 1)
        recovered = (phi.expectation(res.certificate)
                     - psi.expectation(res.certificate)).real
        assert recovered == pytest.approx(res.value, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0,
                 allow_nan=False, allow_infinity=False))
def test_two_point_random_coupling(kappa):
    m = build_two_point_model(kappa)
    res = connes_distance(m, vertex_state(m, 0), vertex_state(m, 1))
    assert res.value == pytest.approx(1.0 / kappa, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_two_point_mixed_state_transport(p, q):
    # W1 between (p, 1-p) and (q, 1-q) across one edge of length 1/2
    m = build_two_point_model(2.0)
    phi = _mixed_vertex_state(m, (p, 1.0 - p))
    psi = _mixed_vertex_state(m, (q, 1.0 - q))
    res = connes_distance(m, phi, psi)
    assert res.value == pytest.approx(abs(p - q) / 2.0, abs=1e-9)


def test_path_endpoints():
    p3 = build_path_graph_model([1.0, 1.0])
    res = connes_distance(p3, vertex_state(p3, 0), vertex_state(p3, 2))
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_weighted_path_sums_edge_lengths():
    p4 = build_path_graph_model([1.0, 2.0, 4.0])
    dist = {}
    for i in range(4):
        for j in range(i + 1, 4):
            dist[(i, j)] = connes_distance(
                p4, vertex_state(p4, i), vertex_state(p4, j)).value
    assert dist[(0, 3)] == pytest.approx(1.75, abs=1e-10)
    assert dist[(0, 1)] == pytest.approx(1.0, abs=1e-10)
    assert dist[(1, 3)] == pytest.approx(0.75, abs=1e-10)


def test_mixed_transport_on_weighted_path():
    # optimal coupling moves half the mass 0->2 and half 1->3
    p4 = build_path_graph_model([1.0, 2.0, 4.0])
    phi = _mixed_vertex_state(p4, (0.5, 0.5, 0.0, 0.0))
    psi = _mixed_vertex_state(p4, (0.0, 0.0, 0.5, 0.5))
    res = connes_distance(p4, phi, psi)
    assert res.value == pytest.approx(1.125, abs=1e-9)


def test_transport_symmetry_and_triangle():
    c5 = build_cycle_graph_model([1.0] * 5)
    states = [vertex_state(c5, v) for v in range(5)]
    d = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if i != j:
                d[i, j] = connes_distance(c5, states[i], states[j]).value
    assert np.max(np.abs(d - d.T)) <= 1e-10
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if len({i, j, k}) == 3:
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-10


def test_disconnected_components_are_infinitely_far():
    m = build_graph_model([(0, 1, 1.0), (2, 3, 1.0)])
    res = connes_distance(m, vertex_state(m, 0), vertex_state(m, 2))
    assert math.isinf(res.value)
    assert res.certificate is None
    rep = quantum_diameter(m)
    assert math.isinf(rep.value) and rep.degenerate


def test_identical_states_give_zero():
    m = build_two_point_model(1.0)
    assert connes_distance(m, vertex_state(m, 0), vertex_state(m, 0)).value == 0.0
    spin = _spin_model()
    res = connes_distance(spin, pure_state(2, 0), pure_state(2, 0))
    assert res.value == 0.0 and res.converged


def test_distance_rejects_dimension_mismatch():
    m = build_two_point_model(1.0)
    with pytest.raises(PreconditionError, match="dimension"):
        connes_distance(m, pure_state(3, 0), pure_state(3, 1))


# -------------------------------------------------------- ascent lower bounds

def test_spin_distance_closed_form():
    # lip(c0 + c1 sz) = 2|c1| against sx, so the coordinate states sit at 1
    spin = _spin_model()
    res = connes_distance(spin, pure_state(2, 0), pure_state(2, 1))
    assert res.method == "ascent-lower-bound"
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert lip_seminorm(spin, res.certificate) <= 1.0 + 1e-9
    recovered = (pure_state(2, 0).expectation(res.certificate)
                 - pure_state(2, 1).expectation(res.certificate)).real
    assert recovered == pytest.approx(res.value, abs=1e-12)


def test_ascent_never_exceeds_oracle():
    c4 = build_cycle_adjacency_model(4, 1.0)
    for (i, j) in ((0, 1), (0, 2), (1, 3)):
        a, b = vertex_state(c4, i), vertex_state(c4, j)
        low = connes_distance(c4, a, b, iterations=2000)
        ref = distance_bruteforce_oracle(c4, a, b)
        assert low.value <= ref.value + 1e-9
        assert low.value >= ref.value - 1e-4
        assert lip_seminorm(c4, low.certificate) <= 1.0 + 1e-9


def test_adjacency_cycle_distances_are_all_one():
    # row coupling makes the adjacency metric strictly smaller than the
    # path metric: every vertex pair of the 4-cycle sits at distance 1
    c4 = build_cycle_adjacency_model(4, 1.0)
    for (i, j) in ((0, 1), (0, 2)):
        ref = distance_bruteforce_oracle(c4, vertex_state(c4, i),
                                         vertex_state(c4, j))
        assert ref.value == pytest.approx(1.0, abs=1e-8)


def test_ascent_symmetric_and_deterministic():
    c4 = build_cycle_adjacency_model(4, 1.0)
    a, b = vertex_state(c4, 0), vertex_state(c4, 1)
    fwd = connes_distance(c4, a, b, seed=5)
    rev = connes_distance(c4, b, a, seed=5)
    again = connes_distance(c4, a, b, seed=5)
    assert fwd.value == again.value
    assert abs(fwd.value - rev.value) <= 1e-9


def test_unbounded_metric_reported_infinite():
    # Dirac commutes with the algebra: no finite distance exists
    deg = SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SZ), "deg")
    res = connes_distance(deg, pure_state(2, 0), pure_state(2, 1))
    assert math.isinf(res.value)


# ------------------------------------------------------- brute-force oracle

def test_oracle_two_point_sign_scan():
    m = build_two_point_model(2.0)
    res = distance_bruteforce_oracle(m, vertex_state(m, 0), vertex_state(m, 1))
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert res.evaluations == 2
    assert res.accuracy <= 1e-10


def test_oracle_matches_spin_closed_form():
    spin = _spin_model()
    res = distance_bruteforce_oracle(spin, pure_state(2, 0), pure_state(2, 1))
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_oracle_refuses_large_span():
    cp = build_crossed_product_model(_spin_model(), 1, 2).total
    rng = np.random.default_rng(0)
    a = random_pure_state(cp.hilbert_dim, rng)
    b = random_pure_state(cp.hilbert_dim, rng)
    with pytest.raises(PreconditionError, match="dimension too large"):
        distance_bruteforce_oracle(cp, a, b)


def test_oracle_seeded_determinism():
    c4 = build_cycle_adjacency_model(4, 1.0)
    a, b = vertex_state(c4, 0), vertex_state(c4, 1)
    r1 = distance_bruteforce_oracle(c4, a, b, seed=9)
    r2 = distance_bruteforce_oracle(c4, a, b, seed=9)
    assert r1.value == r2.value and r1.evaluations == r2.evaluations


def test_oracle_input_validation():
    m = build_two_point_model(1.0)
    with pytest.raises(PreconditionError, match="resolution"):
        distance_bruteforce_oracle(m, vertex_state(m, 0), vertex_state(m, 1),
                                   resolution=0)
    with pytest.raises(PreconditionError, match="dimension"):
        distance_bruteforce_oracle(m, pure_state(4, 0), pure_state(4, 1))


# --------------------------------------------------------------- diameters

def test_cycle_diameters_halve_the_length():
    for n in (4, 5, 6):
        c = build_cycle_graph_model([1.0] * n)
        rep = quantum_diameter(c)
        assert rep.method == "vertex-enumeration"
        assert rep.value == pytest.approx(n // 2, abs=1e-12)
        i, j = rep.pair
        attained = connes_distance(c, vertex_state(c, i), vertex_state(c, j))
        assert attained.value == pytest.approx(rep.value, abs=1e-10)


def test_adjacency_diameter():
    rep = quantum_diameter(build_cycle_adjacency_model(4, 1.0))
    assert rep.method == "vertex-oracle"
    assert rep.value == pytest.approx(1.0, abs=1e-8)


def test_sampled_diameter_is_a_lower_bound():
    spin = _spin_model()
    rep = quantum_diameter(spin, samples=12, seed=3)
    assert rep.method == "sampled-ascent"
    assert 0.6 < rep.value <= 1.0 + 1e-9
    again = quantum_diameter(spin, samples=12, seed=3)
    assert rep.value == again.value


def test_degenerate_metric_has_infinite_diameter():
    deg = SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SZ), "deg")
    rep = quantum_diameter(deg)
    assert math.isinf(rep.value)
    assert rep.degenerate and rep.method == "degenerate"


def test_scalar_algebra_has_zero_diameter():
    triv = SpectralTripleModel(2, (EYE2,), HermitianOperator(2, SX), "triv")
    rep = quantum_diameter(triv)
    assert rep.value == 0.0 and rep.method == "trivial"


# ------------------------------------------------ product distance inequality

def test_product_state_distances_subadditive():
    spin = _spin_model()
    c4 = build_cycle_adjacency_model(4, 1.0)
    rep = product_state_distance_check(spin, c4, samples=4, seed=11,
                                       iterations=600)
    assert rep.max_violation <= 1e-6
    assert rep.rows[0].methods == ("ascent-lower-bound", "oracle", "identical")
    assert rep.rows[0].rhs_vertical == 0.0
    for row in rep.rows:
        # product states on the first-leg algebra only see the first
        # marginal, so lhs coincides with the even-factor distance
        assert row.lhs == pytest.approx(row.rhs_even, abs=1e-6)
    again = product_state_distance_check(spin, c4, samples=4, seed=11,
                                         iterations=600)
    assert [r.lhs for r in rep.rows] == [r.lhs for r in again.rows]


# ------------------------------------------------------- point collapse input

def test_point_collapse_of_adjacency_cycle():
    c4 = build_cycle_adjacency_model(4, 1.0)
    dec = build_point_collapse(c4, vertex_state(c4, 0))
    vals = np.linalg.eigvalsh(np.asarray(dec.d_v))
    assert np.allclose(sorted(vals), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert int(np.sum(np.abs(vals) < 1e-9)) == 2
    assert np.max(np.abs(np.asarray(dec.d_h))) == 0.0
    assert dec.vertical_gap == pytest.approx(2.0, abs=1e-12)
    assert dec.group_dim == 1
    assert dec.group_diameter == pytest.approx(1.0, abs=1e-8)


def test_point_collapse_expectation_freezes_the_state():
    # E(a) = state(a) * identity, encoded on coefficient vectors
    c4 = build_cycle_adjacency_model(4, 1.0)
    dec = build_point_collapse(c4, vertex_state(c4, 0))
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    out = dec.expectation_matrix @ e0
    assert np.allclose(out, np.asarray(c4.identity_coefficients), atol=1e-12)
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    assert np.max(np.abs(dec.expectation_matrix @ e1)) <= 1e-12


def test_point_collapse_requires_a_kernel():
    m = build_two_point_model(1.0)      # spectrum {-1, 1}
    with pytest.raises(PreconditionError, match="no kernel"):
        build_point_collapse(m, vertex_state(m, 0))


def test_point_collapse_requires_nonzero_dirac():
    flat = SpectralTripleModel(2, (EYE2, SZ),
                               HermitianOperator(2, np.zeros((2, 2))), "flat")
    with pytest.raises(PreconditionError, match="vertical gap undefined"):
        build_point_collapse(flat, pure_state(2, 0))


def test_point_collapse_requires_finite_diameter():
    half = SpectralTripleModel(2, (EYE2, SZ),
                               HermitianOperator(2, np.diag([1.0, 0.0])), "half")
    with pytest.raises(PreconditionError, match="quantum diameter"):
        build_point_collapse(half, pure_state(2, 0))


def test_distance_result_pair_view():
    m = build_two_point_model(1.0)
    res = connes_distance(m, vertex_state(m, 0), vertex_state(m, 1))
    value, cert = res.as_pair()
    assert value == res.value and cert is res.certificate
    assert isinstance(res, DistanceResult)


def test_certificate_check_holds_under_optimize_flag():
    """The seminorm check on distance certificates is a raise, not an
    assert, so it survives python -O."""
    code = (
        "import collapselab.qmetric as q\n"
        "from collapselab.builders import build_two_point_model\n"
        "m = build_two_point_model(2.0)\n"
        "q.lip_seminorm = lambda model, cert: 2.0\n"
        "try:\n"
        "    q._check_certificate(m, m.identity_element())\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
