"""Rescaling, compression, sweep, and convergence-report behavior."""

import dataclasses
import math
import multiprocessing
import queue
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import collapselab.core as core
from collapselab.builders import (
    DecomposedTripleModel,
    build_circle_bundle_blocks,
    build_crossed_product_model,
    build_product_triple,
    build_torus_triple,
    build_two_point_model,
    make_clifford,
)
from collapselab.cli_io import load_model
from collapselab.collapse import (
    WindowError,
    compress_base,
    hausdorff_window,
    kernel_projection,
    projector_rank,
    sweep,
    track_convergence_report,
    unitary_restriction_check,
)
from collapselab.core import (
    BlockDiagonalOperator,
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    _raw,
    commutator,
    compress_to_indices,
    hermitian_spectrum,
    op_norm,
    projection_commutator_norm,
)


def _manual_split(d_h, d_v, sector_labels=None, gap=None):
    """Tiny hand-built decomposition over the diagonal algebra; enough
    structure for rescale/projection/compression tests."""
    d_h = np.asarray(d_h, dtype=complex)
    d_v = np.asarray(d_v, dtype=complex)
    n = d_h.shape[0]
    basis = (np.eye(n, dtype=complex),
             np.diag(np.arange(1, n + 1)).astype(complex))
    ident = np.zeros(2, dtype=complex)
    ident[0] = 1.0
    total = SpectralTripleModel(
        hilbert_dim=n, algebra_basis=basis,
        dirac=HermitianOperator(n, d_h + d_v),
        identity_coefficients=ident)
    if gap is None:
        ev = np.abs(np.linalg.eigvalsh(d_v))
        nz = ev[ev > 1e-9]
        gap = float(nz.min()) if nz.size else 1.0
    return DecomposedTripleModel(
        total=total, d_h=d_h, d_v=d_v,
        base_coefficients=np.eye(2, dtype=complex),
        expectation_matrix=np.eye(2, dtype=complex),
        sector_labels=sector_labels,
        group_dim=1, group_diameter=math.pi / gap,
        vertical_gap=gap, comparison_constant=1.0)


# ------------------------------------------------------------------ rescale

def test_rescale_identity_at_one():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    r = t.dirac_at(1.0)
    assert np.array_equal(np.asarray(_raw(r)), np.asarray(_raw(t.total.dirac)))


def test_rescale_diagonal_arithmetic():
    dec = _manual_split(np.diag([1.0, 1.0]), np.diag([0.0, 2.0]))
    assert np.allclose(np.asarray(_raw(dec.dirac_at(0.5))), np.diag([1.0, 5.0]))
    with pytest.raises(PreconditionError):
        dec.dirac_at(0.0)


def test_rescale_four_torus_mode_eigenvalue():
    # mode with one base and one fiber unit: |eigenvalue| = sqrt(1 + 1/eps^2)
    t = build_torus_triple(2, 2, np.zeros((4, 4)), 1)
    spec = hermitian_spectrum(t.dirac_at(0.5))
    assert np.min(np.abs(spec - math.sqrt(5.0))) <= 1e-9


# ------------------------------------------------------------ projections

def test_kernel_projection_diagonal_oracle():
    p = kernel_projection(np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    assert projector_rank(p) == 2


def test_kernel_projection_empty_kernel():
    p = kernel_projection(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(p, 0.0)
    assert projector_rank(p) == 0


def test_kernel_eigenvectors_annulus_guard():
    d_v = np.diag([0.0, 0.5]).astype(complex)
    with pytest.raises(PreconditionError, match="annulus"):
        core._kernel_eigenvectors(d_v, gap=1.0)
    # the same eigenvalue is fine when the claimed gap sits below it
    _, kept = core._kernel_eigenvectors(d_v, gap=0.4)
    assert [k.shape[1] for k in kept] == [1]


def test_kernel_projection_torus_rank_and_commutation():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    p = kernel_projection(t.d_v)
    assert projector_rank(p) == 10   # spin 2 x five zero-fiber modes
    _, kept = core._kernel_eigenvectors(t.d_v, gap=t.vertical_gap)   # clean gap
    assert sum(k.shape[1] for k in kept) == 10
    assert op_norm(commutator(p, _raw(t.d_v))) <= 1e-10
    m = np.asarray(p) if not hasattr(p, "to_dense") else p.to_dense()
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.allclose(m @ m, m, atol=1e-12)


def test_kernel_projection_block_input_stays_block():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks")
    p = kernel_projection(t.d_v)
    assert hasattr(p, "index_blocks")
    assert projector_rank(p) == 6


# ------------------------------------------------------------- compression

def test_compress_base_torus_circle_spectrum():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    base = compress_base(t)
    assert base.hilbert_dim == 10
    spec = hermitian_spectrum(base.dirac)
    assert np.allclose(spec, np.repeat(np.arange(-2.0, 3.0), 2), atol=1e-12)


def test_compress_base_crossed_product_is_base_times_gamma():
    cx = build_crossed_product_model(build_two_point_model(1.0), 1, 2)
    base = compress_base(cx)
    gamma0 = make_clifford(1).gammas[0]
    expected = hermitian_spectrum(
        np.kron(np.array([[0, 1], [1, 0]], dtype=complex), gamma0))
    assert np.allclose(hermitian_spectrum(base.dirac), expected, atol=1e-12)


def test_compress_base_product_multiplies_by_kernel_dim():
    even = SpectralTripleModel(
        hilbert_dim=2,
        algebra_basis=(np.eye(2, dtype=complex),
                       np.diag([1.0, -1.0]).astype(complex)),
        dirac=HermitianOperator(2, np.array([[0, 1], [1, 0]], dtype=complex)),
        grading=np.diag([1.0, -1.0]).astype(complex),
        identity_coefficients=np.array([1.0, 0.0], dtype=complex),
    )
    pr = build_product_triple(even, np.diag([0.0, 0.0, 3.0]))
    base = compress_base(pr)
    assert base.hilbert_dim == 4
    assert np.allclose(hermitian_spectrum(base.dirac),
                       [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_compress_base_rejects_incompatible_projection():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = _manual_split(sx, np.diag([0.0, 2.0]))
    with pytest.raises(PreconditionError, match="commute"):
        compress_base(dec)


def test_conditional_expectation_sector_projection():
    th = np.zeros((2, 2))
    t = build_torus_triple(1, 1, th, 2, monomial_cap=2)
    from collapselab.builders import _exponent_list
    names = [tuple(p) for p in _exponent_list(2, 2, 2)]
    c = np.zeros(len(names), dtype=complex)
    c[names.index((0, 0))] = 2.0     # scalar part survives
    c[names.index((1, 0))] = 1.5     # base monomial survives
    c[names.index((0, 1))] = 1.0     # pure fiber dies
    c[names.index((1, 1))] = -0.5    # mixed term dies
    ea = t.conditional_expectation(t.total.element(c))
    want = np.zeros(len(names), dtype=complex)
    want[names.index((0, 0))] = 2.0
    want[names.index((1, 0))] = 1.5
    assert np.allclose(ea.coefficients, want, atol=1e-12)
    one = t.total.identity_element()
    assert np.allclose(t.conditional_expectation(one).coefficients,
                       one.coefficients, atol=1e-12)


# ------------------------------------------------------- windowed Hausdorff

def test_hausdorff_window_oracles():
    assert hausdorff_window([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 5.0) == 0.0
    assert hausdorff_window([0.0, 5.0], [0.1, 5.0], 1.0) == pytest.approx(0.1)
    assert hausdorff_window([], [0.5], 1.0) == math.inf
    assert hausdorff_window([3.0], [-3.0], 1.0) == 0.0   # both windows empty
    assert hausdorff_window([0.0, 0.9], [0.0], 1.0) == pytest.approx(0.9)
    with pytest.raises(PreconditionError):
        hausdorff_window([0.0], [0.0], 0.0)
    with pytest.raises(PreconditionError, match="window must be positive"):
        hausdorff_window([0.0], [0.0], math.nan)


def test_hausdorff_window_is_symmetric_and_sorts():
    a, b = [2.0, -1.0, 0.3], [0.25, -0.9]
    assert hausdorff_window(a, b, 1.5) == hausdorff_window(b, a, 1.5)


# ------------------------------------------------------------------- sweeps

def test_sweep_single_point_grid():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    sw = sweep(t, eps_grid=[1.0])
    assert len(sw.hausdorff_curve) == 1
    expect = hausdorff_window(hermitian_spectrum(t.dirac_at(1.0)),
                              sw.base_spectrum, sw.window)
    assert sw.hausdorff_curve[0] == pytest.approx(expect)


def test_sweep_defaults_and_shapes():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1)
    sw = sweep(t)
    assert sw.eps_grid == tuple(2.0 ** -j for j in range(13))
    assert sw.spectra.shape == (13, t.total.hilbert_dim)
    assert sw.tracking_method == "sector-exact"
    assert all(np.all(np.diff(row) >= 0) for row in sw.spectra)


def test_sweep_zero_sector_equals_base_spectrum_every_eps():
    t = build_torus_triple(1, 1, np.array([[0.0, 0.0], [0.0, 0.0]]), 2)
    sw = sweep(t)
    nz = sum(1 for lab, j in sw.sector_tracks if lab == (0,))
    stacked = np.stack([sw.track((0,), j) for j in range(nz)])
    for i in range(len(sw.eps_grid)):
        assert np.allclose(np.sort(stacked[:, i]), sw.base_spectrum, atol=1e-9)


def test_sweep_spectra_symmetric_under_grading():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)   # two directions: graded
    assert t.total.grading is not None
    sw = sweep(t)
    for row in sw.spectra:
        assert np.max(np.abs(row + row[::-1])) <= 1e-9


def test_sweep_projection_commutes_with_family():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    mask = np.zeros(t.total.hilbert_dim)
    mask[t.kernel_indices()] = 1.0
    for eps in (1.0, 0.25, 2.0 ** -12):
        assert projection_commutator_norm(mask, t.dirac_at(eps)) <= 1e-10


def test_sweep_circle_bundle_tracks():
    cb = build_circle_bundle_blocks([0.5, -1.5], 1.0, -3, 3).as_decomposition()
    sw = sweep(cb)
    zero = np.stack([sw.track((0,), j) for j in range(4)])
    assert np.allclose(zero, zero[:, :1], atol=1e-12)   # constant in eps
    assert sorted(zero[:, 0]) == pytest.approx([-1.5, -0.5, 0.5, 1.5])
    # every nonzero sector leaves the window by the end of the default grid
    rep = track_convergence_report(sw)
    assert all(g.left_window for g in rep.nonzero_sectors)
    assert rep.all_converged


def test_sweep_bound_curve_shrinks():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1)
    sw = sweep(t)
    assert all(b < a for a, b in zip(sw.bound_curve, sw.bound_curve[1:]))
    assert sw.bound_curve[-1] < sw.bound_curve[0] / 10.0


def test_sweep_hausdorff_settles_for_flat_model():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    sw = sweep(t)
    finite = [h for h in sw.hausdorff_curve if math.isfinite(h)]
    assert finite[-1] <= 1e-9
    # non-increasing once eps is below gap/window
    start = next(i for i, e in enumerate(sw.eps_grid)
                 if e < t.vertical_gap / sw.window)
    tail = sw.hausdorff_curve[start:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_sweep_grid_validation():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    with pytest.raises(PreconditionError):
        sweep(t, eps_grid=[])
    with pytest.raises(PreconditionError):
        sweep(t, eps_grid=[0.5, 1.0])
    with pytest.raises(PreconditionError):
        sweep(t, eps_grid=[1.0, -0.5])
    with pytest.raises(WindowError):
        sweep(t, window=2 * t.reliable_window)


def test_sweep_rejects_nan_window_and_eps():
    t = build_torus_triple(0, 1, np.zeros((1, 1)), 1)
    with pytest.raises(PreconditionError, match="window must be positive"):
        sweep(t, window=math.nan)
    with pytest.raises(PreconditionError, match="eps values must be positive"):
        sweep(t, eps_grid=[math.nan])


def test_sweep_rejects_labels_that_split_a_coupled_pair():
    # d_v couples the two indices of each momentum block; relabel one of them
    cb = build_circle_bundle_blocks([1.0], 1.0, -1, 1).as_decomposition()
    labels = cb.sector_labels.copy()
    labels[-1, 0] = 5
    with pytest.raises(PreconditionError, match="vertical Dirac part couples"):
        sweep(dataclasses.replace(cb, sector_labels=labels))


def test_sweep_without_labels_is_one_sector():
    dec = _manual_split(np.diag([1.0, 2.0, 0.0, 0.0]),
                        np.diag([0.0, 0.0, 2.0, 2.0]))
    assert np.array_equal(dec.sector_labels, np.zeros((4, 1), dtype=np.int64))
    sw = sweep(dec, eps_grid=[1.0, 0.5, 0.25], window=10.0)
    assert sw.tracking_method == "sector-exact"
    assert sw.sector_labels() == [(0,)]
    assert sw.spectra.shape == (3, 4)
    # the one sector's tracks are the ascending spectrum at every grid point
    for i, eps in enumerate([1.0, 0.5, 0.25]):
        expected = np.sort([1.0, 2.0, 2.0 / eps, 2.0 / eps])
        assert [sw.track((0,), j)[i] for j in range(4)] == list(sw.spectra[i])
        assert np.allclose(sw.spectra[i], expected, atol=1e-12)


# ------------------------------------------------- sweeps split across cores

def _planted_five_blocks():
    """Five blocks of 3 over a scattered partition (five does not divide
    over two or three cores), one kernel vector per block, which d_h keeps."""
    rng = np.random.default_rng(29)
    idx = rng.permutation(15).reshape(5, 3)
    h = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    h = (h + h.conj().transpose(0, 2, 1)) / 4
    h[:, 0, 1:] = h[:, 1:, 0] = 0.0
    w = np.zeros((5, 3, 3), dtype=complex)
    w[:, 1, 1], w[:, 2, 2] = 2.0, -1.0
    bh = BlockDiagonalOperator(15, idx, h)
    bv = BlockDiagonalOperator(15, idx, w)
    dense = _manual_split(bh.to_dense(), bv.to_dense())
    return dataclasses.replace(dense, d_h=bh, d_v=bv)


@pytest.mark.parametrize("cores", [2, 3])
def test_sweep_split_across_cores_is_bit_identical(cores, monkeypatch, fresh_pool):
    models = [build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks"),
              _planted_five_blocks()]
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    monkeypatch.setattr(core, "_CORES", 1)
    expected = [sweep(m) for m in models]
    assert core._POOL is None
    monkeypatch.setattr(core, "_CORES", cores)
    for m, ref in zip(models, expected):
        got = sweep(m)
        assert np.array_equal(got.spectra, ref.spectra)
        assert got.sector_tracks.keys() == ref.sector_tracks.keys()
        for key, track in ref.sector_tracks.items():
            assert np.array_equal(got.sector_tracks[key], track)
        assert np.array_equal(got.base_spectrum, ref.base_spectrum)
        assert got.hausdorff_curve == ref.hausdorff_curve
        assert got.horizontal_norm == ref.horizontal_norm
    assert core._POOL is not None


def _sweep_in_child(dec, out):
    out.put(sweep(dec).spectra)


def test_forked_child_sweeps_blocks_after_the_pool_is_built(monkeypatch, fresh_pool):
    # the parent's pool threads do not survive a fork: the child must build
    # its own pool instead of queueing work that no thread will run
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    monkeypatch.setattr(core, "_CORES", 2)
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks")
    expected = sweep(t).spectra
    assert core._POOL is not None
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_sweep_in_child, args=(t, out))
    child.start()
    try:
        got = out.get(timeout=60)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got is not None, "the forked child's block sweep hung"
    assert np.array_equal(got, expected)
    assert child.exitcode == 0


# ------------------------------------------------------- restriction defect

def test_restriction_defect_zero_at_t_zero():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1)
    assert unitary_restriction_check(t, 0.5, 0.0) == 0.0


def test_restriction_defect_commuting_toy():
    dec = _manual_split(np.diag([1.0, 2.0]), np.diag([0.0, 3.0]))
    assert unitary_restriction_check(dec, 1.0, math.pi) <= 1e-14


def test_restriction_defect_crossed_product_sampled():
    cx = build_crossed_product_model(build_two_point_model(1.0), 1, 2)
    rng = np.random.default_rng(31)
    for tval in rng.uniform(0.0, 10.0, 25):
        assert unitary_restriction_check(cx, 0.3, float(tval)) <= 1e-8
    with pytest.raises(PreconditionError):
        unitary_restriction_check(cx, -1.0, 1.0)
    with pytest.raises(PreconditionError, match="eps must be positive"):
        unitary_restriction_check(cx, math.nan, 1.0)


def test_restriction_defect_block_torus_matches_dense():
    blocks = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks")
    dense = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="dense")
    assert isinstance(_raw(blocks.d_h), BlockDiagonalOperator)
    assert isinstance(_raw(dense.d_h), np.ndarray)
    for eps, tval in ((1.0, 0.7), (0.25, 2.0), (2.0 ** -6, 1.3)):
        got = unitary_restriction_check(blocks, eps, tval)
        assert abs(got - unitary_restriction_check(dense, eps, tval)) <= 1e-14


def test_restriction_defect_planted_blocks_match_dense():
    # two blocks over scattered indices; the kernel {0, 6, 7} covers part of
    # each, and d_h couples it to the rest, so the defect is far from zero
    n = 8
    index_blocks = np.array([[5, 0, 3, 6], [1, 7, 2, 4]])
    rng = np.random.default_rng(17)
    h = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    h = (h + h.conj().transpose(0, 2, 1)) / 4
    w = np.zeros((2, 4, 4), dtype=complex)
    w[0, [0, 2], [0, 2]] = (1.0, -2.0)
    w[1, [0, 2, 3], [0, 2, 3]] = (2.0, 1.0, -1.0)
    bh = BlockDiagonalOperator(n, index_blocks, h)
    bv = BlockDiagonalOperator(n, index_blocks, w)
    dh, dv = bh.to_dense(), bv.to_dense()
    dense = _manual_split(dh, dv)
    block = dataclasses.replace(dense, d_h=bh, d_v=bv)
    kernel = block.kernel_indices()
    assert list(kernel) == [0, 6, 7]
    # the norm comes from the first block's rows in the first pair and from
    # the second block's rows in the other two
    for eps, tval in ((1.0, 0.5), (0.5, 1.0), (1.0, 2.0)):
        lhs = expm(1j * tval * (dh + dv / eps))[:, kernel]
        rhs = np.zeros_like(lhs)
        rhs[kernel] = expm(1j * tval * dh[np.ix_(kernel, kernel)])
        got = unitary_restriction_check(block, eps, tval)
        assert got > 0.1
        assert abs(got - unitary_restriction_check(dense, eps, tval)) <= 1e-14
        assert abs(got - np.linalg.norm(lhs - rhs, ord=2)) <= 1e-12


def test_restriction_defect_empty_kernel():
    dense = _manual_split(np.diag([1.0, 2.0]), np.diag([1.0, -3.0]))
    assert unitary_restriction_check(dense, 0.5, 1.0) == 0.0
    block = dataclasses.replace(dense, d_h=BlockDiagonalOperator(
        2, [[0], [1]], [[[1.0]], [[2.0]]]), d_v=BlockDiagonalOperator(
        2, [[0], [1]], [[[1.0]], [[-3.0]]]))
    assert block.kernel_indices().size == 0
    assert unitary_restriction_check(block, 0.5, 1.0) == 0.0


# ------------------------------------------------------ convergence report

def test_track_report_circle_bundle_scaled_products():
    cb = build_circle_bundle_blocks([0.5, -1.5, 2.5], 1.0, -3, 3).as_decomposition()
    rep = track_convergence_report(sweep(cb))
    for g in rep.nonzero_sectors:
        k = abs(g.label[0])
        assert abs(g.scaled_product_final - k) <= 1e-6
        assert g.growth_margin_min >= -1e-9
    for z in rep.zero_tracks:
        assert z.cauchy_width <= 1e-12
        assert z.distance_to_base <= 1e-12


def test_track_report_torus_growth_bound():
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 2)
    rep = track_convergence_report(sweep(t))
    assert rep.all_converged
    assert len(rep.zero_tracks) == 10
    assert all(g.growth_margin_min >= -1e-9 for g in rep.nonzero_sectors)
    assert all(z.distance_to_base <= 1e-9 for z in rep.zero_tracks)


@pytest.mark.parametrize("fixture", ["crossed_d1", "torus_g1f1"])
def test_one_block_form_matches_dense(fixture):
    """A dense matrix is the one-block case: wrapping every operator of a
    dense model as a single block leaves each value bit for bit unchanged."""
    models = Path(__file__).resolve().parent.parent / "models"
    dec = load_model(str(models / f"{fixture}.json")).decomposition
    n = dec.total.hilbert_dim

    def one_block(m):
        return BlockDiagonalOperator(n, np.arange(n)[None], np.asarray(m)[None])

    kernel_ix = dec.kernel_indices()
    mask = np.zeros(n)
    mask[kernel_ix] = 1.0
    for m in (dec.d_h, dec.d_v) + dec.total.algebra_basis:
        b = one_block(m)
        assert op_norm(b) == op_norm(m)
        assert np.array_equal(compress_to_indices(b, kernel_ix),
                              compress_to_indices(m, kernel_ix))
        assert projection_commutator_norm(mask, b) == projection_commutator_norm(mask, m)
    for m in (dec.d_h, dec.d_v):
        assert np.array_equal(hermitian_spectrum(one_block(m)), hermitian_spectrum(m))
    p = kernel_projection(one_block(dec.d_v))
    assert isinstance(p, BlockDiagonalOperator)
    assert np.array_equal(p.to_dense(), kernel_projection(dec.d_v))
