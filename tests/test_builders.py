"""Construction invariants and frozen spectra for the model builders."""

import math
from pathlib import Path

import numpy as np
import pytest

from collapselab.builders import (
    CircleBundleBlockModel,
    DecomposedTripleModel,
    build_circle_bundle_blocks,
    build_crossed_product_model,
    build_cycle_adjacency_model,
    build_cycle_graph_model,
    build_graph_model,
    build_path_graph_model,
    build_product_triple,
    build_torus_triple,
    build_two_point_model,
    make_clifford,
)
from collapselab.cli_io import load_model
from collapselab.core import (
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    _raw,
    commutator,
    hermitian_spectrum,
    lip_seminorm,
    op_norm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def spectrum_counts(vals, tol=1e-9):
    """Round eigenvalues and tally multiplicities."""
    out = {}
    for v in np.asarray(vals).ravel():
        key = round(float(v) / tol) * tol
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------- Clifford

def test_clifford_counts_and_dims():
    for d, dim in [(0, 2), (1, 2), (2, 4), (3, 4), (4, 8), (5, 8)]:
        c = make_clifford(d)
        assert c.count == d + 1
        assert c.spin_dim == dim
        assert all(g.shape == (dim, dim) for g in c.gammas)


def test_clifford_identities_exact():
    c = make_clifford(4)
    eye = np.eye(c.spin_dim, dtype=complex)
    for i, g in enumerate(c.gammas):
        assert np.array_equal(g, g.conj().T)
        assert np.array_equal(g @ g, eye)
        for j in range(i):
            h = c.gammas[j]
            assert np.array_equal(g @ h + h @ g, np.zeros_like(g))
            # distinct generators are trace orthogonal
            assert abs(np.trace(g @ h)) == 0


def test_clifford_chirality():
    c = make_clifford(3)  # four generators -> chirality exists
    chi = c.chirality()
    eye = np.eye(c.spin_dim, dtype=complex)
    assert np.array_equal(chi, chi.conj().T)
    assert np.array_equal(chi @ chi, eye)
    for g in c.gammas:
        assert np.array_equal(chi @ g + g @ chi, np.zeros_like(g))
    assert make_clifford(2).chirality() is None  # odd generator count


def test_clifford_direction_cap():
    with pytest.raises(PreconditionError):
        make_clifford(13)
    with pytest.raises(PreconditionError):
        make_clifford(-1)


# ------------------------------------------------------------------- torus

def test_minimal_torus_shape():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    assert t.total.hilbert_dim == 6
    counts = spectrum_counts(hermitian_spectrum(_raw(t.d_v)))
    assert counts == {-1.0: 2, 0.0: 2, 1.0: 2}
    assert t.vertical_gap == pytest.approx(1.0)
    assert t.group_diameter == pytest.approx(math.pi)
    assert t.comparison_constant == pytest.approx(1.0)
    assert t.reliable_window == pytest.approx(0.5)
    # horizontal part vanishes without base directions
    assert op_norm(_raw(t.d_h)) == 0.0


def test_torus_vertical_spectrum_g1f1():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    assert t.total.hilbert_dim == 50
    counts = spectrum_counts(hermitian_spectrum(_raw(t.d_v)))
    assert counts == {-2.0: 10, -1.0: 10, 0.0: 10, 1.0: 10, 2.0: 10}
    assert len(t.kernel_indices()) == 10
    sectors = t.sector_index_sets()
    assert sorted(sectors) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert all(len(ix) == 10 for ix in sectors.values())


def test_torus_monomials_adjoint_closed_exactly():
    theta = np.array([[0.0, 0.37], [-0.37, 0.0]])
    t = build_torus_triple(1, 1, theta, 2)
    mats = [np.asarray(b) for b in t.total.algebra_basis]
    eye = np.eye(t.total.hilbert_dim, dtype=complex)
    for m in mats:
        # unitary, and the adjoint is again a basis element, bit for bit
        assert np.allclose(m @ m.conj().T, eye, atol=1e-14)
        assert any(np.array_equal(m.conj().T, other) for other in mats)


def test_torus_dirac_independent_of_twist():
    th = np.array([[0.0, 0.81], [-0.81, 0.0]])
    plain = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    twisted = build_torus_triple(1, 1, th, 2)
    a = hermitian_spectrum(plain.total.dirac)
    b = hermitian_spectrum(twisted.total.dirac)
    assert np.max(np.abs(a - b)) == 0.0


def test_torus_weights_set_gap_and_window():
    w = (1 / math.pi, 1.3 / math.pi)
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 3, weights=w)
    assert t.vertical_gap == pytest.approx(2.6)
    assert t.group_diameter == pytest.approx(math.pi / 2.6)
    assert t.reliable_window == pytest.approx(3.0)


def test_torus_block_path_matches_dense():
    th = np.zeros((3, 3))
    th[0, 1], th[1, 0] = 0.4, -0.4
    dense = build_torus_triple(2, 1, th, 1, materialize="dense")
    blocks = build_torus_triple(2, 1, th, 1, materialize="blocks")
    sd = hermitian_spectrum(dense.total.dirac)
    sb = hermitian_spectrum(blocks.total.dirac)
    assert np.max(np.abs(sd - sb)) <= 1e-12
    assert blocks.total.hilbert_dim == dense.total.hilbert_dim
    # base algebra sizes agree (block path carries only base monomials)
    assert blocks.base_coefficients.shape[1] == dense.base_coefficients.shape[1]


def test_torus_block_path_rejects_base_fiber_coupling():
    th = np.zeros((3, 3))
    th[0, 2], th[2, 0] = 0.2, -0.2   # couples base direction 0 to the fiber
    with pytest.raises(PreconditionError, match="coupling"):
        build_torus_triple(2, 1, th, 1, materialize="blocks")


def test_torus_block_path_needs_a_base_direction():
    with pytest.raises(PreconditionError, match="at least one base direction"):
        build_torus_triple(0, 1, np.zeros((1, 1)), 1, materialize="blocks")


def test_torus_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        build_torus_triple(1, 0, np.zeros((1, 1)), 1)   # no fiber
    with pytest.raises(PreconditionError):
        build_torus_triple(0, 1, np.zeros((1, 1)), 0)   # cutoff
    with pytest.raises(PreconditionError, match="antisymmetric"):
        build_torus_triple(1, 1, np.eye(2), 1)
    with pytest.raises(PreconditionError):
        build_torus_triple(1, 1, np.zeros((2, 2)), 1, weights=(1.0, -1.0))


def test_torus_sector_zero_carries_base_spectrum():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    ker = t.kernel_indices()
    sec0 = t.sector_index_sets()[(0,)]
    assert np.array_equal(ker, sec0)


# ------------------------------------------------- sampled Dirac domination

@pytest.mark.parametrize("factory", [
    lambda: build_torus_triple(0, 1, np.zeros((1, 1)), 1),
    lambda: build_torus_triple(1, 1, np.array([[0, .3], [-.3, 0]]), 2),
    lambda: build_crossed_product_model(build_two_point_model(1.0), 1, 2),
])
def test_split_dirac_domination_sampled(factory):
    """The two Dirac summands are dominated by the rescaled family member:
    |[d_h, a]| <= |[D_eps, a]| and |[d_v, a]| <= M eps |[D_eps, a]|."""
    dec = factory()
    rng = np.random.default_rng(7)
    n = len(dec.total.algebra_basis)
    for _ in range(20):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = dec.total.element(c)
        am = _raw(a.matrix)
        ch = commutator(_raw(dec.d_h), am)
        cv = commutator(_raw(dec.d_v), am)
        for eps in (1.0, 0.5, 0.25):
            ce = _raw(dec.dirac_at(eps)) @ am - am @ _raw(dec.dirac_at(eps))
            e_norm = op_norm(ce)
            assert op_norm(ch) <= e_norm + 1e-9
            assert op_norm(cv) <= dec.comparison_constant * eps * e_norm + 1e-9


# ---------------------------------------------------------- crossed product

def test_crossed_product_shape_and_spectrum():
    base = build_two_point_model(1.0)
    cx = build_crossed_product_model(base, 1, 2)
    assert cx.total.hilbert_dim == 20
    counts = spectrum_counts(hermitian_spectrum(_raw(cx.d_v)))
    assert counts == {-2.0: 4, -1.0: 4, 0.0: 4, 1.0: 4, 2.0: 4}
    assert cx.vertical_gap == pytest.approx(1.0)
    assert cx.comparison_constant == pytest.approx(1.0)
    assert cx.group_diameter == pytest.approx(math.pi)
    assert cx.reliable_window == pytest.approx(1.0)
    assert cx.total.grading is not None  # two gammas admit a chirality
    assert build_crossed_product_model(base, 2, 1).total.grading is None


def test_crossed_product_base_commutes():
    base = build_two_point_model(0.5)
    cx = build_crossed_product_model(base, 2, 1)
    dv = _raw(cx.d_v)
    for b in cx.base_basis():
        assert op_norm(commutator(dv, _raw(b.matrix))) <= 1e-12


def test_crossed_product_defect_breaks_commutation_only():
    base = build_two_point_model(1.0)
    cx = build_crossed_product_model(base, 1, 2, vertical_defect=0.25)
    dv = _raw(cx.d_v)
    worst = max(op_norm(commutator(dv, _raw(b.matrix))) for b in cx.base_basis())
    assert worst == pytest.approx(0.25, abs=1e-12)
    # gap survives: the defect rides the extreme momentum shell
    spec = hermitian_spectrum(dv)
    nonzero = spec[np.abs(spec) > 1e-9]
    assert np.min(np.abs(nonzero)) >= 1.0 - 1e-12


def test_crossed_product_twisted_phases():
    base = build_two_point_model(1.0)
    ph = np.array([[0.0, 0.5], [-0.5, 0.0]])
    cx = build_crossed_product_model(base, 2, 1, phases=ph)
    mats = [np.asarray(b) for b in cx.total.algebra_basis]
    for m in mats:
        assert any(np.array_equal(m.conj().T, other) for other in mats)


def test_crossed_product_rejects_defect_on_scalar_base():
    point = SpectralTripleModel(
        hilbert_dim=1,
        algebra_basis=(np.eye(1, dtype=complex),),
        dirac=HermitianOperator(1, np.zeros((1, 1))),
        identity_coefficients=np.array([1.0 + 0j]),
    )
    with pytest.raises(PreconditionError, match="defect"):
        build_crossed_product_model(point, 1, 1, vertical_defect=0.1)


# ------------------------------------------------------------------ product

def _even_spin_model():
    return SpectralTripleModel(
        hilbert_dim=2,
        algebra_basis=(np.eye(2, dtype=complex), SZ),
        dirac=HermitianOperator(2, SX),
        grading=SZ,
        label="spin-half",
        identity_coefficients=np.array([1.0, 0.0], dtype=complex),
    )


def test_product_total_spectrum_closed_form():
    pr = build_product_triple(_even_spin_model(), np.diag([0.0, 2.0]))
    spec = hermitian_spectrum(pr.total.dirac)
    expected = sorted([-math.sqrt(5), -1.0, 1.0, math.sqrt(5)])
    assert np.allclose(spec, expected, atol=1e-12)
    assert pr.vertical_gap == pytest.approx(2.0)
    assert pr.group_diameter == pytest.approx(math.pi / 2.0)


def test_product_sector_labels_follow_vertical_eigenvalues():
    pr = build_product_triple(_even_spin_model(), np.diag([1.0, 0.0, -1.0]))
    sectors = pr.sector_index_sets()
    assert sorted(sectors) == [(-1,), (0,), (1,)]
    assert all(len(ix) == 2 for ix in sectors.values())
    assert np.array_equal(pr.kernel_indices(), sectors[(0,)])


def test_product_requires_kernel_and_nonzero_vertical():
    even = _even_spin_model()
    with pytest.raises(PreconditionError, match="no kernel"):
        build_product_triple(even, np.diag([1.0, 2.0]))
    with pytest.raises(PreconditionError, match="vertical gap undefined"):
        build_product_triple(even, np.zeros((2, 2)))
    graph = build_two_point_model(1.0)   # carries no grading
    with pytest.raises(PreconditionError, match="grading"):
        build_product_triple(graph, np.diag([0.0, 1.0]))


# ------------------------------------------------------------- circle bundle

def test_circle_bundle_block_closed_form():
    cb = build_circle_bundle_blocks([0.5, -1.5], 2.0, -3, 3)
    b = cb.block_at(0, 2, 0.25)
    v = 2 / (2.0 * 0.25)
    assert np.allclose(b, [[0.5, -1j * v], [1j * v, -0.5]])
    lo, hi = cb.eigenvalues_at(0, 2, 0.25)
    assert hi == pytest.approx(math.hypot(0.5, 4.0))
    assert lo == -hi
    ev = np.linalg.eigvalsh(b)
    assert np.allclose(ev, [lo, hi], atol=1e-12)


def test_circle_bundle_decomposition():
    cb = build_circle_bundle_blocks([3.0], 1.0, -2, 2)
    dec = cb.as_decomposition()
    assert dec.total.hilbert_dim == 10
    spec = hermitian_spectrum(dec.total.dirac)
    expected = sorted(
        s * math.hypot(3.0, k) for k in range(-2, 3) for s in (-1, 1))
    assert np.allclose(spec, expected, atol=1e-12)
    assert any(abs(abs(x) - math.sqrt(13.0)) < 1e-12 for x in spec)
    assert dec.vertical_gap == pytest.approx(1.0)
    assert dec.reliable_window == pytest.approx(1.0)
    assert dec.group_diameter == pytest.approx(math.pi)


def test_circle_bundle_requires_momentum_zero():
    cb = build_circle_bundle_blocks([1.0], 1.0, 1, 3)
    with pytest.raises(PreconditionError, match="no kernel"):
        cb.as_decomposition()
    with pytest.raises(PreconditionError):
        build_circle_bundle_blocks([], 1.0, -1, 1)
    with pytest.raises(PreconditionError):
        build_circle_bundle_blocks([1.0], 0.0, -1, 1)
    with pytest.raises(PreconditionError):
        build_circle_bundle_blocks([1.0], 1.0, 2, -2)


# ------------------------------------------------------------------- graphs

def test_two_point_model_metric_data():
    g = build_two_point_model(2.0)
    assert g.hilbert_dim == 2
    f = g.element(np.array([1.0, 0.0], dtype=complex))
    assert lip_seminorm(g, f.matrix) == pytest.approx(2.0)
    assert g.structure.kind == "edge_pair"
    assert g.structure.path_lengths()[0, 1] == pytest.approx(0.5)


def test_path_graph_lengths():
    g = build_path_graph_model([1.0, 2.0, 4.0])
    lengths = g.structure.path_lengths()
    assert lengths[0, 3] == pytest.approx(1.0 + 0.5 + 0.25)
    assert g.hilbert_dim == 6


def test_cycle_graph_lengths():
    g = build_cycle_graph_model([1.0] * 5)
    lengths = g.structure.path_lengths()
    assert lengths[0, 2] == pytest.approx(2.0)
    assert lengths[0, 3] == pytest.approx(2.0)  # wraps the short way


def test_cycle_adjacency_spectrum():
    g = build_cycle_adjacency_model(4)
    spec = hermitian_spectrum(g.dirac)
    assert np.allclose(spec, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert g.structure.kind == "adjacency"


def test_graph_input_validation():
    with pytest.raises(PreconditionError, match="self-loop"):
        build_graph_model([(0, 0, 1.0)])
    with pytest.raises(PreconditionError, match="zero weight"):
        build_graph_model([(0, 1, 0.0)])
    with pytest.raises(PreconditionError, match="duplicate"):
        build_graph_model([(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(PreconditionError, match="isolated"):
        build_graph_model([(0, 1, 1.0)], n_vertices=3)
    with pytest.raises(PreconditionError):
        build_cycle_graph_model([1.0, 1.0])


# ------------------------------------------------------- decomposition plumbing

def test_dirac_at_rescales_vertical_only():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1)
    d_half = t.dirac_at(0.5)
    expected = np.asarray(_raw(t.d_h)) + 2.0 * np.asarray(_raw(t.d_v))
    assert np.allclose(np.asarray(d_half), expected, atol=1e-14)
    with pytest.raises(PreconditionError):
        t.dirac_at(0.0)
    with pytest.raises(PreconditionError, match="eps must be positive"):
        t.dirac_at(math.nan)


def test_conditional_expectation_is_idempotent_contraction():
    th = np.array([[0.0, 0.3], [-0.3, 0.0]])
    t = build_torus_triple(1, 1, th, 2)
    rng = np.random.default_rng(3)
    n = len(t.total.algebra_basis)
    for _ in range(10):
        a = t.total.element(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ea = t.conditional_expectation(a)
        eea = t.conditional_expectation(ea)
        assert np.allclose(ea.coefficients, eea.coefficients, atol=1e-12)
        assert op_norm(_raw(ea.matrix)) <= op_norm(_raw(a.matrix)) + 1e-9


def test_self_check_rejects_wrong_gap():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    bad = DecomposedTripleModel(
        total=t.total, d_h=t.d_h, d_v=t.d_v,
        base_coefficients=t.base_coefficients,
        expectation_matrix=t.expectation_matrix,
        sector_labels=t.sector_labels,
        group_dim=t.group_dim, group_diameter=t.group_diameter,
        vertical_gap=5.0,   # claims more than the actual least nonzero |eig|
        comparison_constant=t.comparison_constant,
        reliable_window=t.reliable_window)
    with pytest.raises(PreconditionError, match="gap"):
        bad.self_check()


def test_self_check_rejects_base_not_commuting_with_d_v():
    # the adversarial crossed product skips this check on build; its planted
    # defect couples the base to the extreme momentum shell
    path = Path(__file__).resolve().parent.parent / "models" / "crossed_adversarial.json"
    dec = load_model(str(path)).decomposition
    assert max(dec.vertical_defects()) > 0.1
    with pytest.raises(PreconditionError, match="fails to commute"):
        dec.self_check()


def test_self_check_rejects_invertible_vertical_part():
    d_v = np.diag([1.0, -1.0]).astype(complex)
    total = SpectralTripleModel(hilbert_dim=2, algebra_basis=(np.eye(2, dtype=complex),),
                                dirac=d_v)
    bad = DecomposedTripleModel(
        total=total, d_h=np.zeros((2, 2), dtype=complex), d_v=d_v,
        base_coefficients=np.eye(1, dtype=complex),
        expectation_matrix=np.eye(1, dtype=complex),
        sector_labels=None, group_dim=1, group_diameter=math.pi,
        vertical_gap=1.0, comparison_constant=1.0)
    with pytest.raises(PreconditionError, match="d_v has no kernel"):
        bad.self_check()
