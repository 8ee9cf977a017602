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
from scipy.optimize import minimize

import collapselab.core as core
from collapselab import qmetric
from collapselab.cli_io import load_model
from collapselab.core import (
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    lip_seminorm,
    op_norm,
)
from collapselab.builders import (
    build_crossed_product_model,
    build_cycle_adjacency_model,
    build_cycle_graph_model,
    build_graph_model,
    build_path_graph_model,
    build_point_collapse,
    build_product_triple,
    build_two_point_model,
)
from collapselab.qmetric import (
    DistanceResult,
    StateFunctional,
    connes_distance,
    distance_bruteforce_oracle,
    pure_state,
    quantum_diameter,
    random_pure_state,
    vertex_state,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

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
        assert isinstance(res, DistanceResult)
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


def _dense_coupling_rows(n: int) -> np.ndarray:
    """The transport LP's equality rows, one dense row of length n*n each."""
    rows = []
    for i in range(n):
        r = np.zeros((n, n))
        r[i, :] = 1.0
        rows.append(r.ravel())
    for j in range(n - 1):
        r = np.zeros((n, n))
        r[:, j] = 1.0
        rows.append(r.ravel())
    return np.stack(rows)


@pytest.mark.parametrize("n", [5, 21, 61])
@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_sparse_constraints_match_dense_rows(kind, n, monkeypatch):
    rng = np.random.default_rng(n)
    if kind == "path":
        model = build_path_graph_model(rng.uniform(0.5, 2.0, n - 1).tolist())
    else:
        model = build_cycle_graph_model(rng.uniform(0.5, 2.0, n).tolist())
    ground = model.structure.path_lengths()
    assert np.array_equal(qmetric._coupling_constraints(n).toarray(),
                          _dense_coupling_rows(n))
    marginals = [(np.eye(n)[0], np.eye(n)[n - 1]), (np.eye(n)[1], np.eye(n)[n // 2])]
    marginals += [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
                  for _ in range(3)]
    sparse_runs = [qmetric._transport_distance(ground, p, q) for p, q in marginals]
    monkeypatch.setattr(qmetric, "_coupling_constraints", _dense_coupling_rows)
    dense_runs = [qmetric._transport_distance(ground, p, q) for p, q in marginals]
    for (v1, f1), (v2, f2) in zip(sparse_runs, dense_runs):
        assert v1 == v2
        assert f1 is not None and np.array_equal(f1, f2)


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


def _degenerate_model() -> SpectralTripleModel:
    """Dirac commuting with the algebra: no finite distance exists."""
    return SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SZ), "deg")


def test_unbounded_metric_reported_infinite():
    res = connes_distance(_degenerate_model(), pure_state(2, 0), pure_state(2, 1))
    assert math.isinf(res.value)


def _same_distance(a: DistanceResult, b: DistanceResult) -> bool:
    """Equal to the last bit: value, certificate, flags and step count."""
    if (a.value, a.method, a.converged, a.iterations) != (
            b.value, b.method, b.converged, b.iterations):
        return False
    if a.certificate is None or b.certificate is None:
        return a.certificate is b.certificate
    return np.array_equal(a.certificate.coefficients, b.certificate.coefficients)


@pytest.mark.parametrize("name", ["crossed_d2", "torus_g1f1"])
def test_ascent_starts_on_cores_are_bit_identical(name, monkeypatch, fresh_pool):
    # the two fixtures whose starts outweigh _SPLIT_WORK, with the states
    # the benchmark's ascent jobs draw; 100 steps per start are enough work
    # to reach the pool (crossed_d2 has dimension 72, torus_g1f1 98)
    model = load_model(MODELS / f"{name}.json").model
    rng = np.random.default_rng([0x5D, 1])
    phi = random_pure_state(model.hilbert_dim, rng)
    psi = random_pure_state(model.hilbert_dim, rng)
    monkeypatch.setattr(core, "_CORES", 1)
    expected = connes_distance(model, phi, psi, iterations=400)
    assert core._POOL is None
    assert expected.method == "ascent-lower-bound"
    for cores in (2, 3):
        monkeypatch.setattr(core, "_CORES", cores)
        got = connes_distance(model, phi, psi, iterations=400)
        assert core._POOL is not None
        assert _same_distance(got, expected)


@pytest.mark.parametrize("model, phi, psi", [
    (_spin_model(), pure_state(2, 0), pure_state(2, 1)),
    (_degenerate_model(), pure_state(2, 0), pure_state(2, 1)),
], ids=["spin", "unbounded"])
def test_small_ascents_match_on_the_pool(model, phi, psi, monkeypatch, fresh_pool):
    monkeypatch.setattr(core, "_CORES", 2)
    expected = connes_distance(model, phi, psi)
    assert core._POOL is None          # below the work constant: one core
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    got = connes_distance(model, phi, psi)
    assert core._POOL is not None
    assert _same_distance(got, expected)


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
    with pytest.raises(PreconditionError, match="dimension"):
        distance_bruteforce_oracle(m, pure_state(4, 0), pure_state(4, 1))


def _loop_ratio(span, directions, delta, y):
    """The oracle's objective for one parameter row, one span direction at a
    time and through op_norm: the reference its stacked evaluator matches."""
    x = directions @ y
    a = np.zeros_like(span.elements[0])
    comm = np.zeros_like(span.commutators[0])
    for xk, b, c in zip(x, span.elements, span.commutators):
        a += xk * b
        comm += xk * c
    num = float(np.trace(delta @ a).real)
    den = op_norm(comm)
    if den <= 1e-14 * max(1.0, float(np.linalg.norm(x))):
        return math.inf if num > 1e-12 else 0.0
    return num / den


def _scan_case(name):
    """(span, reduced directions, phi - psi, scan rows plus a zero row)."""
    if name == "cycle4":
        model = build_cycle_adjacency_model(4, 1.0)
        phi, psi = vertex_state(model, 1), vertex_state(model, 2)
    elif name == "path3":
        model = build_path_graph_model([1.0, 2.0])
        phi, psi = vertex_state(model, 0), vertex_state(model, 2)
    elif name == "degenerate":
        model = SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SZ), "deg")
        phi, psi = pure_state(2, 0), pure_state(2, 1)
    else:       # commutators not anti-Hermitian to the last bit
        model = build_crossed_product_model(_spin_model(), 1, 2).total
        rng = np.random.default_rng(2)
        phi = random_pure_state(model.hilbert_dim, rng)
        psi = random_pure_state(model.hilbert_dim, rng)
    span = qmetric._HermitianSpan(model)
    directions = span.reduced_directions()
    rows = qmetric._scan_directions(directions.shape[1], 32, 7)
    rows = np.vstack([rows, np.zeros(directions.shape[1])])
    return span, directions, phi.density - psi.density, rows


@pytest.mark.parametrize("name", ["cycle4", "path3", "degenerate", "crossed"])
def test_oracle_scan_scores_match_one_row_evaluation(name):
    span, directions, delta, rows = _scan_case(name)
    scores = qmetric._ratios(span, directions, delta, rows).tolist()
    one_row = [qmetric._ratios(span, directions, delta, y[None])[0] for y in rows]
    assert scores == one_row
    assert one_row == [_loop_ratio(span, directions, delta, y) for y in rows]


def test_oracle_scores_do_not_depend_on_chunking(monkeypatch):
    span, directions, delta, rows = _scan_case("cycle4")
    monkeypatch.setattr(qmetric, "_ORACLE_CHUNK_BYTES", 1 << 30)   # one stack
    whole = qmetric._ratios(span, directions, delta, rows)
    halves = [qmetric._ratios(span, directions, delta, part)
              for part in (rows[:600], rows[600:])]
    assert np.array_equal(np.concatenate(halves), whole)
    monkeypatch.setattr(qmetric, "_ORACLE_CHUNK_BYTES", 1)   # one row per chunk
    assert np.array_equal(qmetric._ratios(span, directions, delta, rows), whole)


def test_stacked_commutator_norms_follow_op_norm():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    adjoint = np.conj(np.swapaxes(g, 1, 2))
    anti = g - adjoint
    # anti-Hermitian, Hermitian, general, zero, and just inside and outside
    # op_norm's anti-Hermitian detector
    stack = np.concatenate([anti, g + adjoint, g, np.zeros((2, 6, 6)),
                            anti + 1e-15 * g, anti + 1e-10 * g])
    assert np.array_equal(qmetric._commutator_norms(stack, False),
                          [op_norm(k) for k in stack])
    assert np.array_equal(qmetric._commutator_norms(anti, True),
                          [op_norm(k) for k in anti])


def _polish_cases(model, keep, seed):
    """(span, reduced directions, stacked phi - psi, starts, owner) for the
    pairs numbered keep among the model's vertex pairs followed by two Haar
    pairs, each pair with its three best scan rows at resolution 5 and one
    Gaussian row as Nelder-Mead starts; owner[k] is start k's pair."""
    rng = np.random.default_rng(seed)
    n, dim = model.structure.n_vertices, model.hilbert_dim
    pairs = [(vertex_state(model, i), vertex_state(model, j))
             for i in range(n) for j in range(i + 1, n)]
    pairs += [(random_pure_state(dim, rng), random_pure_state(dim, rng))
              for _ in range(2)]
    span = qmetric._HermitianSpan(model)
    directions = span.reduced_directions()
    deltas = np.array([pairs[p][0].density - pairs[p][1].density for p in keep])
    scan = qmetric._scan_directions(directions.shape[1], 5, 7)
    starts, owner = [], []
    for p, row in enumerate(qmetric._scan_ratios(span, directions, deltas, scan)):
        top = np.argsort(-row, kind="stable")[:3]
        starts += list(scan[top]) + [rng.standard_normal(directions.shape[1])]
        owner += [p] * 4
    return span, directions, deltas, np.array(starts), np.array(owner)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_lockstep_matches_scipy(span, directions, deltas, starts, owner):
    """Every start polished in one lockstep against its own serial scipy
    run: fun, x and nfev equal to the last bit."""
    def objective(who, ys):
        return -qmetric._ratios(span, directions, deltas[owner[who]], ys)

    fun, x, nfev = qmetric._nelder_mead(objective, starts)
    for k, y0 in enumerate(starts):
        delta = deltas[owner[k]]
        with np.errstate(invalid="ignore"):     # scipy's -inf - -inf
            ref = minimize(lambda y: -qmetric._ratios(span, directions, delta, y[None])[0],
                           y0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert (_bits(fun[k]), _bits(x[k]), int(nfev[k])) == \
            (_bits(ref.fun), _bits(ref.x), ref.nfev), k


#: (model, pairs kept): 152 starts with 2, 3 and 4 free parameters, the
#: 4-parameter pairs picked so that the serial scipy runs stay near a second
#: per model; one cycle4 and one path5 start run all 4000 iterations
_POLISH_MODELS = {
    "cycle3": (lambda: build_cycle_adjacency_model(3, 1.0), range(5)),
    "path3": (lambda: build_path_graph_model([1.0, 2.0]), range(5)),
    "cycle4": (lambda: build_cycle_adjacency_model(4, 1.0), range(8)),
    "cycle4_weighted": (lambda: build_cycle_adjacency_model(4, 0.7), range(8)),
    "path4": (lambda: build_path_graph_model([1.0, 0.5, 2.0]), range(6)),
    "cycle5": (lambda: build_cycle_adjacency_model(5, 1.3), (4, 5)),
    "path5": (lambda: build_path_graph_model([1.0, 1.0, 3.0, 0.5]), (0, 1, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(_POLISH_MODELS))
def test_lockstep_nelder_mead_matches_scipy(name):
    build, keep = _POLISH_MODELS[name]
    _assert_lockstep_matches_scipy(*_polish_cases(build(), list(keep), 5))


def test_lockstep_nelder_mead_matches_scipy_on_an_infinite_objective():
    # the Dirac misses vertex 2, so a finite move of it costs nothing: the
    # ratio reaches +inf, the simplex fills with -inf (a NaN in scipy's
    # stopping test) and each polish runs all 4000 iterations
    dirac = np.zeros((3, 3), dtype=complex)
    dirac[0, 1] = dirac[1, 0] = 1.0
    model = SpectralTripleModel(
        3, tuple(np.diag(np.eye(3)[k]).astype(complex) for k in range(3)),
        HermitianOperator(3, dirac), "loose", identity_coefficients=np.ones(3))
    span = qmetric._HermitianSpan(model)
    directions = span.reduced_directions()
    deltas = np.array([pure_state(3, 0).density - pure_state(3, 2).density,
                       pure_state(3, 0).density - pure_state(3, 1).density])
    starts = np.array([[0.6, -0.8], [0.3, 0.1]])
    _assert_lockstep_matches_scipy(span, directions, deltas, starts,
                                   np.array([0, 1]))
    assert qmetric._oracles(span, directions, deltas[:1], 5,
                            qmetric.ORACLE_SEED)[0].value == math.inf


def test_stacked_rows_score_as_alone():
    """A row's ratio does not depend on which other pairs' rows share its
    stack, nor on whether its delta is given once or per row."""
    model = build_cycle_adjacency_model(4, 1.0)
    span, directions, deltas, starts, owner = _polish_cases(model, range(8), 3)
    scan = qmetric._scan_directions(directions.shape[1], 32, 7)
    rows = np.vstack([starts, scan[:200], np.zeros((1, directions.shape[1]))])
    rng = np.random.default_rng(1)
    owner = np.concatenate([owner, rng.integers(len(deltas), size=len(rows) - len(owner))])
    mixed = qmetric._ratios(span, directions, deltas[owner], rows)
    for p, delta in enumerate(deltas):
        mine = owner == p
        alone = qmetric._ratios(span, directions, delta, rows[mine])
        assert _bits(mixed[mine]) == _bits(alone)
        assert _bits(qmetric._scan_ratios(span, directions, deltas, rows)[p]) == \
            _bits(qmetric._ratios(span, directions, delta, rows))


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


def test_adjacency_diameter_shares_one_span_across_its_oracles(monkeypatch):
    evaluations, spans = [], []
    oracles = qmetric._oracles

    def recording_oracles(*args, **kwargs):
        results = oracles(*args, **kwargs)
        evaluations.extend(res.evaluations for res in results)
        return results

    class CountingSpan(qmetric._HermitianSpan):
        def __init__(self, model):
            spans.append(model)
            super().__init__(model)

    monkeypatch.setattr(qmetric, "_oracles", recording_oracles)
    monkeypatch.setattr(qmetric, "_HermitianSpan", CountingSpan)
    rep = quantum_diameter(build_cycle_adjacency_model(4, 1.0))
    # pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) at resolution 32
    assert evaluations == [1930, 1556, 2001, 1954, 1605, 1952]
    assert rep.value == 1.0000000000000007
    assert len(spans) == 1


def test_sampled_diameter_is_a_lower_bound():
    spin = _spin_model()
    rep = quantum_diameter(spin, samples=12, seed=3)
    assert rep.method == "sampled-ascent"
    assert 0.6 < rep.value <= 1.0 + 1e-9
    again = quantum_diameter(spin, samples=12, seed=3)
    assert rep.value == again.value


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_diameter_needs_a_sample(samples):
    cd1 = load_model(MODELS / "crossed_d1.json").model
    with pytest.raises(PreconditionError, match="sample count"):
        quantum_diameter(cd1, samples=samples)
    # graph models enumerate their vertices and never read the count
    path = build_path_graph_model([1.0, 2.0])
    assert quantum_diameter(path, samples=samples) == quantum_diameter(path)


@pytest.mark.parametrize("components", [2, 3])
def test_disconnected_edge_pair_graph_diameter_is_degenerate(components):
    # the seminorm vanishes on each component's indicator, so the diameter
    # stops at the nullity test and never enumerates infinite path lengths
    m = build_graph_model([(2 * c, 2 * c + 1, 1.0) for c in range(components)])
    assert m.structure.kind == "edge_pair"
    assert qmetric._seminorm_nullity(qmetric._HermitianSpan(m)) == components
    assert quantum_diameter(m) == qmetric.DiameterReport(math.inf, None, "degenerate", True)


def test_adjacency_diameter_past_the_oracle_cap_takes_the_ascent():
    # cycle_adjacency(6) has 5 free parameters, one past ORACLE_MAX_PARAMS
    m = build_cycle_adjacency_model(6)
    span = qmetric._HermitianSpan(m)
    assert span.reduced_directions().shape[1] == qmetric.ORACLE_MAX_PARAMS + 1
    rep = quantum_diameter(m)
    assert rep.method == "vertex-ascent" and not rep.degenerate
    assert rep.pair == (1, 4)
    ascents = {(i, j): connes_distance(m, vertex_state(m, i), vertex_state(m, j),
                                       iterations=400).value
               for i in range(6) for j in range(i + 1, 6)}
    assert rep.value == ascents[1, 4]
    assert max(ascents.values()) == rep.value


def test_degenerate_metric_has_infinite_diameter():
    deg = SpectralTripleModel(2, (EYE2, SZ), HermitianOperator(2, SZ), "deg")
    rep = quantum_diameter(deg)
    assert math.isinf(rep.value)
    assert rep.degenerate and rep.method == "degenerate"


def test_scalar_algebra_has_zero_diameter():
    triv = SpectralTripleModel(2, (EYE2,), HermitianOperator(2, SX), "triv")
    rep = quantum_diameter(triv)
    assert rep.value == 0.0 and rep.method == "trivial"


# ------------------------------------------------- product-state distances

def test_product_state_ascent_matches_even_oracle():
    # the product algebra acts on the first leg only, so the distance between
    # product states is the even-factor distance of their first legs: the
    # ascent on the product must reach the even factor's oracle value
    spin = _spin_model()
    s_mat = build_cycle_adjacency_model(4, 1.0).dirac.to_dense()
    product = build_product_triple(spin, s_mat).total
    _, w = np.linalg.eigh(s_mat)           # the product's second leg basis
    rng = np.random.default_rng(11)
    for s in range(4):
        phi = random_pure_state(2, rng)
        mu = random_pure_state(2, rng)
        psi = random_pure_state(4, rng)
        nu = psi if s == 0 else random_pure_state(4, rng)
        lhs = connes_distance(
            product,
            StateFunctional(np.kron(phi.density, w.conj().T @ psi.density @ w)),
            StateFunctional(np.kron(mu.density, w.conj().T @ nu.density @ w)),
            iterations=600, seed=11 + s)
        even = distance_bruteforce_oracle(spin, phi, mu)
        assert lhs.method == "ascent-lower-bound"
        assert lhs.value == pytest.approx(even.value, abs=1e-6)


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


def test_point_collapse_rotates_the_grading():
    # the grading diag(1, -1, 1) anticommutes with a Dirac coupling slots 0
    # and 1 only, so the kernel is slot 2, of grading +1
    dirac = np.zeros((3, 3), dtype=complex)
    dirac[0, 1] = dirac[1, 0] = 1.0
    graded = SpectralTripleModel(
        3, (np.eye(3, dtype=complex), np.diag([1.0, 0.0, 0.0]).astype(complex)),
        HermitianOperator(3, dirac), "graded",
        grading=np.diag([1.0, -1.0, 1.0]).astype(complex),
        identity_coefficients=np.array([1.0, 0.0], dtype=complex))
    dec = build_point_collapse(graded, pure_state(3, 2))
    g = np.asarray(dec.total.grading)
    assert np.allclose(np.linalg.eigvalsh(g), [-1.0, 1.0, 1.0], atol=1e-12)
    d = np.asarray(dec.d_v)
    assert np.max(np.abs(g @ d + d @ g)) <= 1e-12
    (k,) = dec.kernel_indices()
    assert g[k, k] == pytest.approx(1.0, abs=1e-12)


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


def test_distance_solvers_refuse_models_beyond_dense_limit(monkeypatch):
    import collapselab.qmetric as qmetric
    m = build_two_point_model(1.0)
    phi, psi = vertex_state(m, 0), vertex_state(m, 1)
    monkeypatch.setattr(qmetric, "DENSE_LIMIT", 1)
    for solve in (lambda: connes_distance(m, phi, psi),
                  lambda: distance_bruteforce_oracle(m, phi, psi),
                  lambda: quantum_diameter(m)):
        with pytest.raises(PreconditionError, match="dense limit 1"):
            solve()
    monkeypatch.setattr(qmetric, "DENSE_LIMIT", 2)   # the dimension itself passes
    assert connes_distance(m, phi, psi).value == pytest.approx(1.0, abs=1e-10)


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
