"""Core operator primitives: fixed oracles plus sampled invariants."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collapselab.core as core
from collapselab.builders import build_torus_triple
from collapselab.core import (
    AlgebraElement,
    BlockDiagonalOperator,
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    commutator,
    graph_norm,
    hermitian_coefficient_basis,
    hermitian_spectrum,
    lip_seminorm,
    op_norm,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pauli_model(dirac=SZ):
    return SpectralTripleModel(2, (I2, SX, SY, SZ), HermitianOperator(2, dirac))


# ---------------------------------------------------------------- fixed values

def test_commutator_oracle():
    # [diag(1,2), e_{01}] = -e_{01}: hand computation
    got = commutator(np.diag([1.0, 2.0]).astype(complex),
                     np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.allclose(got, [[0, -1], [0, 0]], atol=1e-15)


def test_op_norm_oracle():
    assert op_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0, rel=1e-12)
    assert op_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    # rank-one: norm of outer product uv* is |u||v|
    u = np.array([3.0, 4.0])
    assert op_norm(np.outer(u, u).astype(complex)) == pytest.approx(25.0, rel=1e-12)


def test_graph_norm_oracle():
    # |xi| + |D xi| = 1 + 2 for xi = e_1, D = diag(0, 2)
    assert graph_norm(np.diag([0.0, 2.0]).astype(complex),
                      np.array([0.0, 1.0])) == pytest.approx(3.0, rel=1e-12)


def test_hermitian_spectrum_oracle():
    got = hermitian_spectrum(SX)
    assert np.allclose(got, [-1.0, 1.0], atol=1e-12)
    # ascending with multiplicity
    h = np.diag([2.0, -1.0, 2.0]).astype(complex)
    assert np.allclose(hermitian_spectrum(h), [-1.0, 2.0, 2.0], atol=0)


def test_hermitian_spectrum_backward_error():
    rng = np.random.default_rng(7)
    lam = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
    u = rand_unitary(rng, 5)
    h = u @ np.diag(lam) @ u.conj().T
    h = (h + h.conj().T) / 2
    got = hermitian_spectrum(h)
    assert np.max(np.abs(got - np.sort(lam))) <= 1e-10 * np.max(np.abs(lam))


def test_hermitian_operator_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(PreconditionError):
        HermitianOperator(2, bad)
    # just inside the tolerance: accepted as-is, never symmetrized
    almost = SZ + np.array([[0, 1e-13], [0, 0]])
    h = HermitianOperator(2, almost)
    assert h.matrix[0, 1] == pytest.approx(1e-13)


def test_hermitian_spectrum_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))


def test_non_finite_rejected():
    with pytest.raises(PreconditionError):
        HermitianOperator(2, np.array([[np.inf, 0], [0, 0]], dtype=complex))
    with pytest.raises(PreconditionError):
        op_norm(np.array([[np.nan, 0], [0, 0]], dtype=complex))


def test_lip_seminorm_pauli():
    m = pauli_model()
    # norm([Z, X]) = norm(2iY) = 2; [Z, Z] = 0
    assert lip_seminorm(m, m.element([0, 1, 0, 0])) == pytest.approx(2.0, rel=1e-12)
    assert lip_seminorm(m, m.element([0, 0, 0, 1])) == pytest.approx(0.0, abs=1e-14)
    assert lip_seminorm(m, m.element([5, 0, 0, 0])) == pytest.approx(0.0, abs=1e-14)


# ------------------------------------------------------------- model contract

def test_model_requires_identity_in_span():
    with pytest.raises(PreconditionError):
        SpectralTripleModel(2, (SX, SY), HermitianOperator(2, SZ))


def test_model_requires_linear_independence():
    with pytest.raises(PreconditionError):
        SpectralTripleModel(2, (I2, SX, 2 * SX), HermitianOperator(2, SZ))


def test_model_requires_adjoint_closure():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(PreconditionError):
        SpectralTripleModel(2, (I2, e01), HermitianOperator(2, SZ))
    # span-level closure is enough: e01 together with its adjoint passes
    SpectralTripleModel(2, (I2, e01, e01.conj().T), HermitianOperator(2, SZ))


def test_element_roundtrip():
    m = pauli_model()
    a = m.element([1.0, 2.0, 0.0, -1.0])
    assert isinstance(a, AlgebraElement)
    assert np.allclose(a.matrix, I2 + 2 * SX - SZ, atol=1e-12)
    recomputed = m.element(a.coefficients)
    assert np.max(np.abs(recomputed.matrix - a.matrix)) <= 1e-12


def test_identity_element():
    m = pauli_model()
    assert np.allclose(m.identity_element().matrix, I2, atol=1e-10)


def test_hermitian_coefficient_basis_spans_pauli():
    m = pauli_model()
    hb = hermitian_coefficient_basis(m)
    assert hb.shape == (4, 4)
    for k in range(hb.shape[1]):
        a = m.element(hb[:, k]).matrix
        assert np.max(np.abs(a - a.conj().T)) < 1e-9


# ------------------------------------------------------------- block operators

def block_pair():
    idx = np.array([[0, 1], [2, 3]])
    rep = BlockDiagonalOperator(4, idx, np.array([SX]))
    var = BlockDiagonalOperator(4, idx, np.array([SZ, 2 * SZ]))
    return rep, var


def test_block_basis_with_distinct_blocks_matches_dense():
    # a basis element whose blocks differ (not one repeated block) is
    # vectorized blockwise and stacked in full
    idx = np.array([[0, 1], [2, 3]])
    basis = (BlockDiagonalOperator(4, idx, np.array([I2])),
             BlockDiagonalOperator(4, idx, np.array([I2, 0 * I2])))
    dirac = BlockDiagonalOperator(4, idx, np.array([SX, 2 * SX]))
    block = SpectralTripleModel(4, basis, dirac)
    dense = SpectralTripleModel(4, tuple(b.to_dense() for b in basis), dirac.to_dense())
    hb = hermitian_coefficient_basis(block)
    assert hb.shape == (2, 2)
    assert np.allclose(hb, hermitian_coefficient_basis(dense), atol=1e-12)
    c = np.array([0.5, 2.0 - 1.0j])
    assert np.array_equal(block.element(c).matrix.to_dense(), dense.element(c).matrix)
    a = block.element(hb @ np.array([0.3, -1.2]))
    assert lip_seminorm(block, a) == pytest.approx(
        lip_seminorm(dense, a.matrix.to_dense()), rel=1e-12)
    with pytest.raises(PreconditionError, match="share one block partition"):
        SpectralTripleModel(4, (np.eye(4, dtype=complex), basis[1]), dirac)


def test_block_partition_validation():
    with pytest.raises(PreconditionError):
        BlockDiagonalOperator(4, np.array([[0, 1], [1, 2]]), np.array([SX, SX]))
    with pytest.raises(PreconditionError):
        BlockDiagonalOperator(4, np.array([[0, 1], [2, 3]]), np.array([np.eye(3)]))


def test_block_matches_dense():
    rep, var = block_pair()
    assert np.allclose(rep.to_dense(), np.kron(I2, SX), atol=0)
    assert op_norm(var) == pytest.approx(op_norm(var.to_dense()), rel=1e-12)
    assert np.allclose(hermitian_spectrum(var), hermitian_spectrum(var.to_dense()), atol=1e-12)
    c = commutator(var, rep)
    dense_c = commutator(var.to_dense(), rep.to_dense())
    assert np.allclose(c.to_dense(), dense_c, atol=1e-12)


def test_block_commutator_collapses_exact_zero():
    rep, _ = block_pair()
    c = commutator(rep, rep)
    assert c.blocks.shape == (1, 2, 2)
    assert not np.any(c.blocks)


def test_block_apply_and_graph_norm():
    _, var = block_pair()
    xi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.allclose(var.apply(xi), var.to_dense() @ xi, atol=1e-12)
    assert graph_norm(var, xi) == pytest.approx(graph_norm(var.to_dense(), xi), rel=1e-12)


def test_block_mixed_with_dense_commutator():
    rep, _ = block_pair()
    dense = np.kron(SZ, I2)
    c = commutator(rep, dense)
    assert np.allclose(c, rep.to_dense() @ dense - dense @ rep.to_dense(), atol=1e-12)


# ------------------------------------------------- stacks split across cores

def _planted_stacks():
    """Five blocks of 4 over a scattered partition (five does not divide
    over two or three cores): a Hermitian stack, a general one, and one
    repeated Hermitian block."""
    rng = np.random.default_rng(41)
    idx = rng.permutation(20).reshape(5, 4)
    g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    h = g + g.conj().transpose(0, 2, 1)
    rep = rand_complex(rng, 4)
    return (BlockDiagonalOperator(20, idx, h), BlockDiagonalOperator(20, idx, g),
            BlockDiagonalOperator(20, idx, (rep + rep.conj().T)[None]))


def _split_results():
    """Commutator blocks, norms (eigensolver and SVD paths) and spectra of
    the planted stacks and of a block torus."""
    t = build_torus_triple(1, 1, np.zeros((2, 2)), 1, materialize="blocks")
    h, g, rep = _planted_stacks()
    pairs = [(h, g), (g, rep), (rep, h), (t.total.dirac, t.d_v)]
    pairs += [(t.total.dirac, b) for b in t.total.algebra_basis]
    out = []
    for a, b in pairs:
        c = commutator(a, b)
        out += [c.blocks, op_norm(c), op_norm(a), op_norm(b)]
    for op in (h, rep, t.d_h, t.d_v, t.total.dirac):
        out.append(hermitian_spectrum(op))
    return out


@pytest.mark.parametrize("cores", [2, 3])
def test_split_stacks_are_bit_identical(cores, monkeypatch, fresh_pool):
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    monkeypatch.setattr(core, "_CORES", 1)
    expected = _split_results()
    assert core._POOL is None
    monkeypatch.setattr(core, "_CORES", cores)
    got = _split_results()
    assert core._POOL is not None
    assert len(got) == len(expected)
    for x, y in zip(expected, got):
        assert np.array_equal(x, y)


def test_split_stacks_from_concurrent_callers(monkeypatch, fresh_pool):
    # more calling threads than cores race to build and share the one pool
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    monkeypatch.setattr(core, "_CORES", 1)
    expected = _split_results()
    monkeypatch.setattr(core, "_CORES", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            runs = [callers.submit(_split_results) for _ in range(4)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert len(got) == len(expected)
        assert all(np.array_equal(x, y) for x, y in zip(expected, got))


def test_one_block_and_small_stacks_never_build_the_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(core, "_CORES", 3)
    h, g, rep = _planted_stacks()
    # below the work constant: stacks of many blocks stay on one core
    commutator(h, g)
    op_norm(g)
    hermitian_spectrum(h)
    # one stored block, dense or repeated, whatever the constant: its
    # commutators and norms never split (a repeated block's spectrum lists
    # every copy, so it is a full stack)
    monkeypatch.setattr(core, "_SPLIT_WORK", 0)
    rng = np.random.default_rng(5)
    m = rand_complex(rng, 6)
    d = m + m.conj().T
    commutator(d, m)
    op_norm(m)
    op_norm(commutator(d, m))
    hermitian_spectrum(d)
    commutator(rep, rep)
    op_norm(rep)
    assert core._POOL is None


@pytest.mark.parametrize("env, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, False),                   # MKL unpinned
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1",
      "MKL_NUM_THREADS": "1"}, True),                         # 0 reads as unset
    ({"OMP_NUM_THREADS": "one"}, False),
])
def test_blas_pinned_to_one_thread(env, pinned):
    assert core._blas_pinned_to_one_thread(env) is pinned


def test_pool_runs_only_with_blas_pinned_to_one_thread():
    # BLAS free to run threads of its own: the process keeps to one core
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = "import os, collapselab.core as c; print(c._CORES, len(os.sched_getaffinity(0)))"
    for pin, pinned in (({}, False), ({"OMP_NUM_THREADS": "1"}, True)):
        proc = subprocess.run([sys.executable, "-c", code], env=dict(base, **pin),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cores, affinity = map(int, proc.stdout.split())
        assert cores == (affinity if pinned else 1)


# ------------------------------------------------------------ sampled laws

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_op_norm_unitary_invariance(seed, n):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n)
    u = rand_unitary(rng, n)
    assert abs(op_norm(u @ a @ u.conj().T) - op_norm(a)) <= 1e-9 * (1 + op_norm(a))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_spectrum_unitary_invariance(seed, n):
    rng = np.random.default_rng(seed)
    h = rand_complex(rng, n)
    h = (h + h.conj().T) / 2
    u = rand_unitary(rng, n)
    hu = u @ h @ u.conj().T
    hu = (hu + hu.conj().T) / 2
    assert np.max(np.abs(hermitian_spectrum(hu) - hermitian_spectrum(h))) \
        <= 1e-9 * (1 + op_norm(h))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-5, 5, allow_nan=False, allow_infinity=False))
def test_lip_ignores_identity_shift(seed, t):
    rng = np.random.default_rng(seed)
    m = pauli_model()
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = m.element(c)
    shifted = m.element(c + t * m.identity_coefficients)
    la, ls = lip_seminorm(m, a), lip_seminorm(m, shifted)
    assert abs(la - ls) <= 1e-10 * (1 + la)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lip_leibniz_jordan(seed):
    rng = np.random.default_rng(seed)
    m = pauli_model(dirac=SZ + 0.3 * SX)
    a = m.element(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = m.element(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    jordan = (a.matrix @ b.matrix + b.matrix @ a.matrix) / 2
    lhs = op_norm(commutator(m.dirac.matrix, jordan))
    rhs = lip_seminorm(m, a) * op_norm(b.matrix) + op_norm(a.matrix) * lip_seminorm(m, b)
    assert lhs <= rhs + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-4, 4, allow_nan=False, allow_infinity=False))
def test_lip_is_a_seminorm(seed, t):
    rng = np.random.default_rng(seed)
    m = pauli_model(dirac=SZ + 0.4 * SY)
    ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    la = lip_seminorm(m, m.element(ca))
    lb = lip_seminorm(m, m.element(cb))
    lab = lip_seminorm(m, m.element(ca + cb))
    assert lab <= la + lb + 1e-9
    lt = lip_seminorm(m, m.element(t * ca))
    assert abs(lt - abs(t) * la) <= 1e-9 * (1 + abs(t)) * (1 + la)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_graph_norm_dominates_vector_norm(seed, n):
    rng = np.random.default_rng(seed)
    d = rand_complex(rng, n)
    d = (d + d.conj().T) / 2
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert graph_norm(d, xi) >= np.linalg.norm(xi) - 1e-12


def test_library_has_no_assert_statements():
    # python -O strips assert statements; every check in the library must
    # be an explicit raise so that it holds under any optimization flag
    src = Path(__file__).resolve().parent.parent / "src" / "collapselab"
    modules = sorted(src.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
