"""Numeric oracles for the bound machinery and the hypothesis audit.

Closed-form values here were computed by hand from the defining formulas
(and, for quadrature, cross-checked with scipy) before being frozen.
"""

import math

import numpy as np
import pytest

from collapselab.builders import (
    CliffordSet,
    DecomposedTripleModel,
    build_circle_bundle_blocks,
    build_crossed_product_model,
    build_product_triple,
    build_torus_triple,
    build_two_point_model,
    make_clifford,
)
from collapselab.core import (
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    _raw,
    commutator,
    op_norm,
)
from collapselab.estimates import (
    AUDIT_EPS,
    bump_function,
    comparison_check,
    expectation_lipschitz_check,
    fourier_projection_check,
    hypothesis_audit,
    sample_self_adjoint,
    tunnel_bounds,
)

HYPOTHESIS_NAMES = (
    "hypothesis_1_horizontal_domination",
    "hypothesis_2_vertical_comparison",
    "hypothesis_3_vertical_commutes_with_base",
    "hypothesis_4_projection_compatibility",
    "hypothesis_5_base_metric",
    "hypothesis_6_expectation_bounds",
)


# ------------------------------------------------------------------- window

def test_bump_shape_and_values():
    b = bump_function(1.0, 1.0)
    assert b.support_radius == 1.0
    assert b(0.0) == 1.0
    assert b(0.5) == pytest.approx(0.5)        # cos(pi/4)^2
    assert b(2.0) == 0.0
    assert b.derivative(2.0) == 0.0
    assert b.l2_deriv_norm == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_bump_l2_norm_scaling():
    # (pi/2) sqrt(eps/delta)
    assert bump_function(1.0, 0.01).l2_deriv_norm == pytest.approx(
        0.15707963267948966, abs=1e-15)
    assert bump_function(4.0, 1.0).l2_deriv_norm == pytest.approx(
        math.pi / 4.0, rel=1e-15)


@pytest.mark.parametrize("delta,eps", [(1.0, 1.0), (1.0, 0.01), (2.5, 0.3)])
def test_bump_l2_norm_against_quadrature(delta, eps):
    b = bump_function(delta, eps)
    assert abs(b.l2_deriv_norm - b.l2_deriv_norm_quadrature()) <= 1e-8


def test_bump_derivative_bound_holds_sampled():
    b = bump_function(2.0, 0.7)
    t = np.linspace(-b.support_radius, b.support_radius, 2001)
    assert np.max(np.abs(b.derivative(t))) <= b.derivative_bound + 1e-15
    # the sharp constant is pi/2 times eps/delta, below the stored bound
    assert np.max(np.abs(b.derivative(t))) <= (math.pi / 2) * 0.7 / 2.0 + 1e-12


def test_bump_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        bump_function(0.0, 1.0)
    with pytest.raises(PreconditionError):
        bump_function(1.0, -2.0)


# ----------------------------------------------------------- tunnel constants

def test_tunnel_bounds_small_eps_regime():
    tb = tunnel_bounds(0.01, 1.0, 1.0, 1.0)
    assert tb.alpha == pytest.approx(0.565685424949238, abs=1e-14)
    assert tb.extent_bound == pytest.approx(0.01)
    assert tb.k_eps == tb.alpha          # dispersion term dominates
    assert tb.m_eps == pytest.approx(1.131370849898476, abs=1e-14)


def test_tunnel_bounds_large_extent_regime():
    tb = tunnel_bounds(0.09, 10.0, 100.0, 10.0)
    assert tb.k_eps == pytest.approx(90.0, rel=1e-12)
    assert tb.m_eps == pytest.approx(90.5366563146, abs=1e-9)
    assert tb.alpha == pytest.approx(0.5366563146, abs=1e-9)


def test_tunnel_bounds_internal_identities():
    for eps in (1.0, 0.3, 0.004):
        tb = tunnel_bounds(eps, 2.0, 3.0, 1.5)
        assert tb.extent_bound == pytest.approx(3.0 * 1.5 * eps, rel=1e-15)
        assert tb.k_eps == max(tb.extent_bound, tb.alpha)
        assert tb.m_eps == tb.alpha + tb.k_eps


def test_tunnel_bounds_shrink_along_dyadic_grid():
    vals = [tunnel_bounds(2.0 ** -j, 1.0, 1.0, 1.0).m_eps for j in range(13)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] / 10.0


def test_tunnel_bounds_reject_nonpositive():
    with pytest.raises(PreconditionError):
        tunnel_bounds(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        tunnel_bounds(0.1, 1.0, -1.0, 1.0)


# -------------------------------------------------------- projection estimate

def test_fourier_projection_two_level_oracle():
    d_v = np.diag([0.0, 1.0]).astype(complex)
    xi = np.array([0.0, 1.0], dtype=complex)
    chk = fourier_projection_check(d_v, 1.0, 0.04, xi)
    assert chk.lhs == pytest.approx(1.0, abs=1e-15)
    # 4*sqrt(2*0.04)*(1 + 1/0.04) = 29.4156...
    assert chk.rhs == pytest.approx(4.0 * math.sqrt(0.08) * 26.0, rel=1e-14)
    assert chk.rhs == pytest.approx(29.4156420974, abs=1e-9)
    assert chk.passed


def test_fourier_projection_kernel_vector_is_fixed():
    d_v = np.diag([0.0, 3.0, -2.0]).astype(complex)
    xi = np.array([1.0, 0.0, 0.0], dtype=complex)
    chk = fourier_projection_check(d_v, 2.0, 0.5, xi)
    assert chk.lhs == 0.0
    assert chk.passed


def test_fourier_projection_rejects_dirty_gap():
    d_v = np.diag([0.0, 0.5]).astype(complex)
    with pytest.raises(PreconditionError, match="gap"):
        fourier_projection_check(d_v, 1.0, 0.1, np.array([1.0, 0.0]))


def test_fourier_projection_rejects_bad_vector():
    with pytest.raises(PreconditionError):
        fourier_projection_check(np.diag([0.0, 1.0]), 1.0, 0.1, np.ones(3))


def test_fourier_projection_block_matches_dense():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks")
    td = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="dense")
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    a = fourier_projection_check(t.d_v, t.vertical_gap, 0.3, xi)
    b = fourier_projection_check(td.d_v, td.vertical_gap, 0.3, xi)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)
    assert a.rhs == pytest.approx(b.rhs, abs=1e-12)


def test_fourier_projection_sampled_on_torus():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    rng = np.random.default_rng(29)
    dim = t.total.hilbert_dim
    for _ in range(50):
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for eps in (1.0, 0.25):
            chk = fourier_projection_check(t.d_v, t.vertical_gap, eps, xi)
            assert chk.passed


# ------------------------------------------------------ direction comparison

def _lifted_clifford_setup(seed):
    """Clifford directions on lattice x spin, with lattice-diagonal
    coefficient operators and a lattice-only algebra element."""
    spin = make_clifford(2)                  # three generators on C^4
    eye3 = np.eye(3)
    lifted = CliffordSet(
        count=3, spin_dim=12,
        gammas=tuple(np.kron(eye3, g) for g in spin.gammas))
    rng = np.random.default_rng(seed)
    comps = [np.kron(np.diag(rng.standard_normal(3)), np.eye(4)) for _ in range(3)]
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = np.kron(m + m.conj().T, np.eye(4))
    return lifted, comps, a


def test_comparison_all_subsets_hold():
    for seed in range(10):
        lifted, comps, a = _lifted_clifford_setup(seed)
        for mask in range(1, 8):
            F = [j for j in range(3) if mask >> j & 1]
            chk = comparison_check(lifted, comps, a, F)
            assert chk.passed, (seed, F)


def test_comparison_single_direction_is_tight():
    lifted, comps, a = _lifted_clifford_setup(0)
    zero = np.zeros((12, 12))
    chk = comparison_check(lifted, [comps[0], zero, zero], a, [0])
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_comparison_input_contracts():
    lifted, comps, a = _lifted_clifford_setup(1)
    with pytest.raises(PreconditionError, match="empty"):
        comparison_check(lifted, comps, a, [])
    with pytest.raises(PreconditionError, match="range"):
        comparison_check(lifted, comps, a, [3])
    with pytest.raises(PreconditionError, match="components"):
        comparison_check(lifted, comps + [comps[0]], a, [0])
    rng = np.random.default_rng(5)
    loose = rng.standard_normal((12, 12))
    loose = loose + loose.T
    with pytest.raises(PreconditionError, match="commute"):
        comparison_check(lifted, comps, loose, [0, 1])
    # validate=False skips the commutation screen entirely
    comparison_check(lifted, comps, loose, [0, 1], validate=False)


# --------------------------------------------------- expectation Lipschitz

def test_expectation_report_fixes_base_elements():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    for b in t.base_basis():
        rep = expectation_lipschitz_check(t, b)
        assert rep.deviation == 0.0
        assert rep.horizontal_margin == 0.0
        assert rep.passed


def test_expectation_report_pure_fiber_element():
    from collapselab.builders import _exponent_list
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    # a fiber shift plus its adjoint: self-adjoint, expectation kills it
    names = [tuple(p) for p in _exponent_list(2, 2, 1)]
    assert len(names) == len(t.total.algebra_basis)
    c = np.zeros(len(names), dtype=complex)
    c[names.index((0, 1))] = c[names.index((0, -1))] = 1.0
    a = t.total.element(c)
    rep = expectation_lipschitz_check(t, a)
    assert rep.deviation > 0.5
    assert rep.vertical_lip > 0.5
    assert rep.passed


def test_expectation_report_random_elements():
    th = np.zeros((3, 3))
    th[0, 1], th[1, 0] = 0.4, -0.4
    t = build_torus_triple(2, 1, th, 1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = sample_self_adjoint(t.total, rng)
        rep = expectation_lipschitz_check(t, a)
        assert rep.passed
        assert rep.deviation <= rep.mvt_constant * rep.vertical_lip + 1e-9


# ------------------------------------------------------------ hypothesis audit

def test_audit_minimal_torus_passes():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    rep = hypothesis_audit(t, samples=50)
    assert rep.all_passed
    assert tuple(v.name for v in rep.verdicts) == HYPOTHESIS_NAMES
    assert rep.samples == 50


def test_audit_torus_with_base_twist_passes():
    th = np.zeros((3, 3))
    th[0, 1], th[1, 0] = 0.4, -0.4
    t = build_torus_triple(2, 1, th, 1)
    assert hypothesis_audit(t, samples=20).all_passed


def test_audit_torus_base_fiber_twist_fails_expectation_bound():
    # base-fiber coupling breaks the compression identity on a truncated
    # lattice (wrap-around phases); everything else survives
    th = np.array([[0.0, 0.3], [-0.3, 0.0]])
    t = build_torus_triple(1, 1, th, 2)
    rep = hypothesis_audit(t, samples=20)
    assert rep.failing() == ["hypothesis_6_expectation_bounds"]


def test_audit_crossed_product_passes():
    base = build_two_point_model(1.0)
    assert hypothesis_audit(
        build_crossed_product_model(base, 1, 2), samples=30).all_passed
    ph = np.array([[0.0, 0.5], [-0.5, 0.0]])
    assert hypothesis_audit(
        build_crossed_product_model(base, 2, 1, phases=ph), samples=20).all_passed


def test_audit_adversarial_fails_exactly_base_commutation():
    base = build_two_point_model(1.0)
    bad = build_crossed_product_model(base, 1, 2, vertical_defect=0.25)
    rep = hypothesis_audit(bad, samples=50)
    assert rep.failing() == ["hypothesis_3_vertical_commutes_with_base"]
    worst = [v for v in rep.verdicts if not v.passed][0]
    assert worst.worst_margin == pytest.approx(0.25, abs=1e-12)


def test_audit_circle_bundle_passes():
    dec = build_circle_bundle_blocks([1.0, -2.0], 1.0, -2, 2).as_decomposition()
    assert hypothesis_audit(dec, samples=10).all_passed


def test_audit_product_passes():
    even = SpectralTripleModel(
        hilbert_dim=2,
        algebra_basis=(np.eye(2, dtype=complex),
                       np.diag([1.0, -1.0]).astype(complex)),
        dirac=HermitianOperator(2, np.array([[0, 1], [1, 0]], dtype=complex)),
        grading=np.diag([1.0, -1.0]).astype(complex),
        identity_coefficients=np.array([1.0, 0.0], dtype=complex),
    )
    pr = build_product_triple(even, np.diag([0.0, 1.0, -1.0]))
    assert hypothesis_audit(pr, samples=20).all_passed


def test_audit_is_seed_deterministic():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1)
    a = hypothesis_audit(t, samples=25, seed=99)
    b = hypothesis_audit(t, samples=25, seed=99)
    assert [v.worst_margin for v in a.verdicts] == [v.worst_margin for v in b.verdicts]
    c = hypothesis_audit(t, samples=25, seed=100)
    assert [v.worst_margin for v in a.verdicts] != [v.worst_margin for v in c.verdicts]


def test_audit_input_contracts():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    with pytest.raises(PreconditionError):
        hypothesis_audit(t, samples=0)


def test_audit_names_d_h_when_it_couples_the_kernel_to_the_rest():
    # the kernel of d_v is slot 0 and the diagonal base commutes with its
    # projection p, but d_h couples slot 0 to slot 1: |[p, d_h]| = 1
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    d_v = np.diag([0.0, 2.0]).astype(complex)
    total = SpectralTripleModel(
        hilbert_dim=2,
        algebra_basis=(np.eye(2, dtype=complex), np.diag([1.0, 2.0]).astype(complex)),
        dirac=HermitianOperator(2, sx + d_v),
        identity_coefficients=np.array([1.0, 0.0], dtype=complex))
    dec = DecomposedTripleModel(
        total=total, d_h=sx, d_v=d_v,
        base_coefficients=np.eye(2, dtype=complex),
        expectation_matrix=np.eye(2, dtype=complex), sector_labels=None,
        group_dim=1, group_diameter=math.pi / 2.0, vertical_gap=2.0,
        comparison_constant=1.0)
    h4 = hypothesis_audit(dec, samples=5).verdicts[3]
    assert h4.name == "hypothesis_4_projection_compatibility"
    assert (h4.passed, h4.witness) == (False, "[p, d_h]")
    assert h4.worst_margin == pytest.approx(1.0, abs=1e-12)


def test_sample_self_adjoint_is_hermitian_and_seeded():
    t = build_torus_triple(1, 1, np.array([[0.0, 0.2], [-0.2, 0.0]]), 1)
    a = sample_self_adjoint(t.total, np.random.default_rng(4))
    m = np.asarray(_raw(a.matrix))
    assert op_norm(m - m.conj().T) <= 1e-12 * op_norm(m)
    b = sample_self_adjoint(t.total, np.random.default_rng(4))
    assert np.array_equal(a.coefficients, b.coefficients)


def test_audit_samples_vertical_commutator_when_base_is_not_the_algebra():
    # torus_g1f1: every base monomial commutes with d_v exactly, but the
    # fiber monomials do not, so the audit must form [d_v, a] per sample
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 3)
    assert all(c == 0.0 for c in t.vertical_defects())
    rep = hypothesis_audit(t, samples=1, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
    a = sample_self_adjoint(t.total, rng)
    ch, cv = commutator(t.d_h, a.matrix), commutator(t.d_v, a.matrix)
    v_norm = op_norm(cv)
    assert v_norm > 1.0
    assert rep.eps_list == AUDIT_EPS == (1.0, 0.5, 0.25)
    expected = max(v_norm - t.comparison_constant * eps * op_norm(ch + cv / eps)
                   for eps in AUDIT_EPS)
    assert rep.verdicts[1].worst_margin == pytest.approx(expected, abs=1e-9)
