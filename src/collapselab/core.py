"""Matrix primitives, seminorms and graph norms shared by every other module.

All models are finite dimensional: operators are plain complex numpy arrays,
either stored densely or as block-diagonal stacks over an index partition
(used by the lattice builders, whose Dirac operators never mix Fourier modes).
Every primitive is written once, over block stacks; a dense matrix is the
one-block case.  Results keep the operand's form: dense in gives an ndarray
out, block in gives a BlockDiagonalOperator out.
Everything here is pure and safe to call from multiple threads.

Block stacks whose work (blocks times block size cubed) reaches
``_SPLIT_WORK`` have their eigensolves, SVDs and commutator products split
into contiguous slices, one per core the process may run on, on a shared
thread pool.  Each block still gets the same LAPACK or BLAS call, so the
results are bit-identical to one core.  Dense matrices and smaller stacks
never reach the pool, and neither does anything unless the environment pins
BLAS to one thread (``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, or
their MKL and GOTO counterparts).  The same pool runs the seeded starts of
``qmetric``'s state-distance ascent, one start per task, when their
eigensolves add up to ``_SPLIT_WORK``.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "PreconditionError",
    "ComplexMatrix",
    "HermitianOperator",
    "BlockDiagonalOperator",
    "AlgebraElement",
    "SpectralTripleModel",
    "commutator",
    "op_norm",
    "hermitian_spectrum",
    "lip_seminorm",
    "graph_norm",
    "hermitian_coefficient_basis",
    "projection_commutator_norm",
    "compress_to_indices",
    "operator_dim",
]

# Relative tolerance for accepting a matrix as Hermitian.  Inputs beyond it are
# rejected, never symmetrized, so invariant violations surface at the boundary.
HERMITICITY_RTOL = 1e-12

#: Largest Hilbert dimension the library densifies.  Builders switch to the
#: block form above it, and the state-distance solvers refuse such models.
DENSE_LIMIT = 2000


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given input."""


#: A finite complex matrix in row-major order.  Plain ndarray; the alias marks
#: contract boundaries in signatures.
ComplexMatrix = np.ndarray


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a square 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(obj, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix has non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _max_abs(a) -> float:
    """Largest entry modulus of an array, or of an operator's stored blocks."""
    a = a if isinstance(a, np.ndarray) else _view(a).blocks
    return float(np.max(np.abs(a))) if a.size else 0.0


def _adjoint_blocks(blocks: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(blocks, -1, -2))


def _hermitian_defect(blocks: np.ndarray) -> float:
    return _max_abs(blocks - _adjoint_blocks(blocks))


def is_hermitian(a: np.ndarray) -> bool:
    """a == a* blockwise, within HERMITICITY_RTOL * (1 + max|entry|)."""
    return _hermitian_defect(a) <= HERMITICITY_RTOL * (1.0 + _max_abs(a))


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian operator (dense matrix or block-diagonal) with its dimension.

    Hermiticity is enforced on construction within ``1e-12 * (1 + max|entry|)``.
    """

    dim: int
    matrix: object

    def __post_init__(self):
        v = _view(self.matrix)
        if v.dim != self.dim:
            raise PreconditionError(
                f"dim={self.dim} does not match operator dim {v.dim}")
        if not is_hermitian(v.blocks):
            raise PreconditionError(
                f"matrix is not Hermitian (defect {_hermitian_defect(v.blocks):.3e} "
                "beyond tolerance)")
        if v.dense:
            m = v.blocks[0].copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    def to_dense(self) -> np.ndarray:
        return _dense(self.matrix)


@dataclass(frozen=True)
class BlockDiagonalOperator:
    """Operator that is block diagonal over a partition of the Hilbert basis.

    ``index_blocks[b]`` lists the global basis indices of block ``b`` and
    ``blocks[b]`` is the matrix acting on them.  A leading axis of length 1 in
    ``blocks`` means one shared block repeated over every index block, which the
    lattice models use heavily (base-direction operators do not depend on the
    fiber sector).  Blocks all have one common size; operations never couple
    distinct blocks, so norms and spectra reduce to stacked small problems.
    """

    dim: int
    index_blocks: np.ndarray   # (nb, bd) integer
    blocks: np.ndarray         # (nb, bd, bd) or (1, bd, bd) repeated

    def __post_init__(self):
        idx = np.asarray(self.index_blocks, dtype=np.int64)
        blk = np.asarray(self.blocks, dtype=complex)
        if idx.ndim != 2 or blk.ndim != 3:
            raise PreconditionError("index_blocks must be (nb, bd), blocks (nb, bd, bd)")
        nb, bd = idx.shape
        if blk.shape[1:] != (bd, bd) or blk.shape[0] not in (1, nb):
            raise PreconditionError(
                f"blocks shape {blk.shape} incompatible with partition {idx.shape}")
        flat = np.sort(idx.ravel())
        if flat.size != self.dim or not np.array_equal(flat, np.arange(self.dim)):
            raise PreconditionError("index blocks must partition range(dim)")
        if not np.all(np.isfinite(blk)):
            raise PreconditionError("blocks have non-finite entries")
        idx.flags.writeable = False
        blk.flags.writeable = False
        object.__setattr__(self, "index_blocks", idx)
        object.__setattr__(self, "blocks", blk)

    @property
    def n_blocks(self) -> int:
        return self.index_blocks.shape[0]

    def full_blocks(self) -> np.ndarray:
        """Blocks with the repeat axis expanded (view when possible)."""
        if self.blocks.shape[0] == self.n_blocks:
            return self.blocks
        return np.broadcast_to(self.blocks, (self.n_blocks,) + self.blocks.shape[1:])

    def apply(self, xi: np.ndarray) -> np.ndarray:
        return _apply(self, xi)

    def to_dense(self) -> np.ndarray:
        return _dense(self)


#: Operators the generic routines accept.
OperatorLike = Union[np.ndarray, HermitianOperator, BlockDiagonalOperator]


def _raw(op: OperatorLike):
    """Unwrap to ndarray (dense) or BlockDiagonalOperator."""
    if isinstance(op, HermitianOperator):
        return op.matrix
    if isinstance(op, BlockDiagonalOperator):
        return op
    return as_complex_matrix(op)


class _Blocks(NamedTuple):
    """An operator as a stack of diagonal blocks over an index partition.

    ``blocks`` is stored as given (leading axis 1 when repeated), ``full``
    has one block per index block.  A dense n x n matrix is the one-block
    view ``(arange(n)[None], m[None])``, made without a copy; ``dense``
    records which form results go back into.
    """

    dim: int
    index_blocks: np.ndarray
    blocks: np.ndarray
    full: np.ndarray
    dense: bool


def _view(op: OperatorLike) -> _Blocks:
    r = _raw(op)
    if isinstance(r, BlockDiagonalOperator):
        return _Blocks(r.dim, r.index_blocks, r.blocks, r.full_blocks(), False)
    n = r.shape[0]
    return _Blocks(n, np.arange(n)[None], r[None], r[None], True)


def _like(v: _Blocks, blocks: np.ndarray):
    """Blocks over v's partition, returned in v's form."""
    if v.dense:
        return blocks[0]
    return BlockDiagonalOperator(v.dim, v.index_blocks, blocks)


def _dense(op: OperatorLike) -> np.ndarray:
    """The operator as a dense matrix (no copy for dense input)."""
    v = _view(op)
    if v.dense:
        return v.blocks[0]
    out = np.zeros((v.dim, v.dim), dtype=complex)
    for ix, blk in zip(v.index_blocks, v.full):
        out[np.ix_(ix, ix)] = blk
    return out


def _pair(a: OperatorLike, b: OperatorLike):
    """Views of two operators over one partition.  Operands whose partitions
    differ, dense against block included, are densified here."""
    va, vb = _view(a), _view(b)
    if va.dim != vb.dim:
        raise PreconditionError(f"dimension mismatch: {va.dim} vs {vb.dim}")
    if va.dense == vb.dense and (
            va.dense or np.array_equal(va.index_blocks, vb.index_blocks)):
        return va, vb
    return _view(_dense(a)), _view(_dense(b))


def _sum(a: OperatorLike, b: OperatorLike, eps: float = 1.0):
    """``a + b / eps`` in the operands' common form; eps = -1 subtracts."""
    va, vb = _pair(a, b)
    out = np.empty(np.broadcast_shapes(va.blocks.shape, vb.blocks.shape), dtype=complex)
    np.divide(vb.blocks, eps, out=out)   # one buffer: no b / eps temporary
    np.add(va.blocks, out, out=out)
    return _like(va, out)


#: Work (blocks x block size cubed) from which a block stack is split across
#: cores: about four 196 x 196 blocks.
_SPLIT_WORK = 4 * 196 ** 3


def _blas_pinned_to_one_thread(env=os.environ) -> bool:
    """Whether the environment runs BLAS on one thread: OpenBLAS takes the
    first positive count of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, MKL that of MKL_NUM_THREADS and OMP_NUM_THREADS, and
    both must read 1."""
    def first_count(names):
        for name in names:
            try:
                count = int(env.get(name, ""))
            except ValueError:
                continue
            if count > 0:
                return count
        return None

    return (first_count(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")) == 1
            and first_count(("MKL_NUM_THREADS", "OMP_NUM_THREADS")) == 1)


#: Cores this process may run on: one slice of a split stack each.  One
#: when BLAS may run threads of its own: its calls then spread over the
#: cores already, and pool threads contending with them made 2000-step
#: ascents 1.65-1.93x and stacked eigensolves 1.3x slower than one core
#: (2-core box).
_CORES = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
          if _blas_pinned_to_one_thread() else 1)
_POOL = None
_POOL_LOCK = threading.Lock()


def _reset_pool() -> None:
    """In a forked child the parent's pool threads are gone: build anew."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_reset_pool)


def _slices(n: int, bd: int):
    """Contiguous slices of a stack of n blocks of size bd, one per core, or
    None when the stack is too small to be worth splitting."""
    if n < 2 or _CORES < 2 or n * bd ** 3 < _SPLIT_WORK:
        return None
    k = min(_CORES, n)
    edges = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _on_cores(task, parts) -> list:
    """task(s) for every part s (a slice of a block stack, or an ascent
    start), run on the pool (built on first use); results in part order.
    A task must not itself wait on the pool."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_CORES, thread_name_prefix="collapselab")
        pool = _POOL
    return list(pool.map(task, parts))


def _per_block(fn, stack: np.ndarray, **kwargs) -> np.ndarray:
    """``fn(stack, **kwargs)`` for a stacked numpy call that returns one row
    per block, split across cores when the stack is large.  Every block gets
    the same call either way, so the result is bit-identical."""
    parts = _slices(stack.shape[0], stack.shape[-1])
    if parts is None:
        return fn(stack, **kwargs)
    return np.concatenate(_on_cores(lambda s: fn(stack[s], **kwargs), parts))


def _apply(op: OperatorLike, xi: np.ndarray) -> np.ndarray:
    v = _view(op)
    xi = np.asarray(xi, dtype=complex)
    out = np.empty(v.dim, dtype=complex)
    for ix, blk in zip(v.index_blocks, v.full):
        out[ix] = blk @ xi[ix]
    return out


def operator_dim(op: OperatorLike) -> int:
    return _view(op).dim


def commutator(a: OperatorLike, b: OperatorLike):
    """[a, b] = ab - ba.  Both operands must share a dimension; operands over
    different partitions (or dense against block) give a dense result."""
    va, vb = _pair(a, b)
    x, y = va.blocks, vb.blocks
    n = max(x.shape[0], y.shape[0])
    parts = _slices(n, x.shape[-1])
    if parts is None:
        blk = x @ y - y @ x
    else:
        # each slice writes its own rows of two caller-owned buffers
        shape = (n,) + x.shape[1:]
        x, y = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
        blk, tmp = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)

        def part(s):
            np.matmul(x[s], y[s], out=blk[s])
            np.matmul(y[s], x[s], out=tmp[s])
            np.subtract(blk[s], tmp[s], out=blk[s])

        _on_cores(part, parts)
    if blk.shape[0] > 1 and not np.any(blk):
        # exact cancellation; collapse to one repeated zero block
        blk = blk[:1]
    return _like(va, blk)


_NORMAL_DETECT_RTOL = 1e-13


def _normal_sign(blocks: np.ndarray) -> int:
    """1 if (each) matrix is Hermitian to within the detection tolerance,
    -1 if anti-Hermitian, 0 otherwise.  Commutators of Hermitian operators
    are anti-Hermitian up to summation-order noise, far below the detector."""
    swapped = _adjoint_blocks(blocks)
    scale = _max_abs(blocks)
    if _max_abs(blocks - swapped) <= _NORMAL_DETECT_RTOL * scale:
        return 1
    if _max_abs(blocks + swapped) <= _NORMAL_DETECT_RTOL * scale:
        return -1
    return 0


def op_norm(a: OperatorLike) -> float:
    """Largest singular value, the max over blocks; relative accuracy ~1e-15
    via LAPACK, well inside the 1e-10 contract.  (Anti-)Hermitian inputs take
    a symmetric eigensolver path, which is substantially faster than the
    general SVD."""
    blk = _view(a).blocks
    if blk.size == 0 or not blk.any():
        return 0.0
    sign = _normal_sign(blk)
    if sign:
        ev = _per_block(np.linalg.eigvalsh, blk if sign > 0 else 1j * blk)
        return float(np.max(np.abs(ev)))
    return float(np.max(_per_block(np.linalg.svd, blk, compute_uv=False)))


def hermitian_spectrum(h: OperatorLike) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending, with multiplicity.

    Rejects inputs violating the Hermiticity tolerance.  Eigenvector phases are
    never exposed; nothing downstream may depend on them.
    """
    v = _view(h)
    if not is_hermitian(v.blocks):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    vals = _per_block(np.linalg.eigvalsh, v.full)
    if not np.all(np.isfinite(vals)):
        raise PreconditionError("eigensolver produced non-finite values")
    # one block comes back ascending from eigvalsh; re-sorting could swap +-0.0
    return vals[0] if len(vals) == 1 else np.sort(vals.ravel())


def graph_norm(d: OperatorLike, xi: np.ndarray) -> float:
    """``norm(xi) + norm(D xi)`` with Euclidean vector norms."""
    dim = operator_dim(d)
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 1 or xi.shape[0] != dim:
        raise PreconditionError(
            f"vector length {xi.shape} does not match operator dim {dim}")
    return float(np.linalg.norm(xi) + np.linalg.norm(_apply(d, xi)))


def _kernel_eigenvectors(op: OperatorLike, gap: float = None):
    """Per block, the eigenvectors of a Hermitian operator with eigenvalue in
    (-tol, tol), tol = 1e-9 * max(1, norm(op)), returned with the operator's
    view.

    When a gap is supplied, any eigenvalue with tol <= |lambda| < gap
    raises: an eigenvalue inside the forbidden annulus means the kernel
    cannot be classified reliably.
    """
    tol = 1e-9 * max(1.0, op_norm(op))
    if gap is not None and gap <= tol:
        raise PreconditionError("gap must exceed the kernel tolerance")
    v = _view(op)
    kept = []
    for blk in v.full:
        vals, vecs = np.linalg.eigh(blk)
        if gap is not None:
            bad = (np.abs(vals) >= tol) & (np.abs(vals) < gap)
            if np.any(bad):
                raise PreconditionError(
                    f"spectral gap violated: eigenvalue {vals[bad][0]:.6g} "
                    f"inside the annulus [{tol:.3g}, {gap:.6g})")
        kept.append(vecs[:, np.abs(vals) < tol])
    return v, kept


@dataclass(frozen=True)
class AlgebraElement:
    """An algebra element: coefficients over a model basis plus the realized
    matrix.  Coefficients are the source of truth; the matrix is a cache that
    ``SpectralTripleModel.element`` recomputes from the basis."""

    coefficients: np.ndarray
    matrix: OperatorLike

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


def basis_vector_stack(basis):
    """Vectorized basis rows plus the matching identity vector.

    All basis elements must share one partition.  When every one stores one
    block (a dense matrix, or one block repeated over the partition),
    vectorization uses that single block; the span geometry is the same up
    to a harmless overall scale, and the expansion of large models is
    avoided entirely.  Otherwise operators and the identity flatten
    blockwise.
    """
    views = [_view(b) for b in basis]
    first = views[0]
    if not all(np.array_equal(v.index_blocks, first.index_blocks) for v in views):
        raise PreconditionError("algebra basis elements must share one block partition")
    nb, bd = first.index_blocks.shape
    eye = np.eye(bd, dtype=complex).ravel()
    if all(v.blocks.shape[0] == 1 for v in views):
        return np.stack([v.blocks[0].ravel() for v in views]), eye
    return np.stack([v.full.ravel() for v in views]), np.tile(eye, nb)


def projection_commutator_norm(mask: np.ndarray, op: OperatorLike) -> float:
    """Norm of [p, op] for the diagonal projection p = diag(mask), mask 0/1.

    Entrywise (mask_i - mask_j) * op_ij over each block; never materializes p.
    """
    mask = np.asarray(mask, dtype=float)
    v = _view(op)
    worst = 0.0
    for ix, blk in zip(v.index_blocks, v.full):
        mb = mask[ix]
        if mb.min() == mb.max():
            continue  # constant mask on the block: commutator vanishes there
        worst = max(worst, op_norm(blk * (mb[:, None] - mb[None, :])))
    return worst


def compress_to_indices(op: OperatorLike, indices: np.ndarray) -> np.ndarray:
    """Dense submatrix of op on the given (small) index set."""
    ix = np.asarray(indices, dtype=np.int64)
    v = _view(op)
    pos = np.full(v.dim, -1, dtype=np.int64)
    pos[ix] = np.arange(ix.size)
    out = np.zeros((ix.size, ix.size), dtype=complex)
    for g, blk in zip(v.index_blocks, v.full):
        p = pos[g]
        loc = np.flatnonzero(p >= 0)
        if loc.size:
            out[np.ix_(p[loc], p[loc])] = blk[np.ix_(loc, loc)]
    return out


@dataclass(frozen=True)
class SpectralTripleModel:
    """A finite model of a spectral triple: a matrix *-algebra basis and a
    Hermitian Dirac operator on one shared Hilbert dimension.

    The basis must be linearly independent, closed under adjoints as a span,
    and contain the identity in its span; all three are verified on build.
    An optional grading is validated as a self-adjoint unitary commuting with
    the algebra and anticommuting with the Dirac operator.
    """

    hilbert_dim: int
    algebra_basis: tuple
    dirac: OperatorLike
    label: str = ""
    grading: OperatorLike = None
    #: optional structural annotation attached by builders (e.g. graph data);
    #: not part of the core contract and never required.
    structure: object = None
    identity_coefficients: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.dirac, HermitianOperator):
            object.__setattr__(self, "dirac",
                               HermitianOperator(operator_dim(self.dirac), self.dirac))
        basis = tuple(self.algebra_basis)
        if not basis:
            raise PreconditionError("algebra basis is empty")
        for b in basis:
            if operator_dim(b) != self.hilbert_dim:
                raise PreconditionError("basis matrix dimension mismatch")
        if self.dirac.dim != self.hilbert_dim:
            raise PreconditionError("Dirac dimension mismatch")
        object.__setattr__(self, "algebra_basis", basis)

        v, ident = basis_vector_stack(basis)
        gram = v @ v.conj().T
        scale = np.max(np.abs(np.diag(gram)))
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= 1e-10 * max(scale, 1.0):
            raise PreconditionError("algebra basis is not linearly independent")

        # identity in span: least squares through the Gram system
        c_id = self._span_solve(v, gram, ident)
        if np.linalg.norm(c_id @ v - ident) > 1e-8 * np.sqrt(ident.size):
            raise PreconditionError("identity is not in the span of the algebra basis")
        c_id.flags.writeable = False
        object.__setattr__(self, "identity_coefficients", c_id)

        # adjoint closure of the span; column i of the kept matrix holds the
        # coefficients of adjoint(basis_i), which hermitian_coefficient_basis reads
        adj = tuple(self._adjoint_of(b) for b in basis)
        w_all, _ = basis_vector_stack(adj)
        jm = np.empty((len(basis), len(basis)), dtype=complex)
        for i, w in enumerate(w_all):
            c_w = self._span_solve(v, gram, w)
            if np.linalg.norm(c_w @ v - w) > 1e-8 * (1.0 + np.linalg.norm(w)):
                raise PreconditionError("algebra basis span is not closed under adjoints")
            jm[:, i] = c_w
        jm.flags.writeable = False
        object.__setattr__(self, "_adjoint_coefficients", jm)

        if self.grading is not None:
            self._check_grading()

    def _check_grading(self):
        if operator_dim(self.grading) != self.hilbert_dim:
            raise PreconditionError("grading dimension mismatch")
        gd = _dense(self.grading)
        if not is_hermitian(gd):
            raise PreconditionError("grading is not self-adjoint")
        scale = 1.0 + _max_abs(gd)
        if _max_abs(gd @ gd - np.eye(self.hilbert_dim)) > 1e-12 * scale:
            raise PreconditionError("grading is not unitary")
        dd = _dense(self.dirac)
        anti = gd @ dd + dd @ gd
        if _max_abs(anti) > 1e-12 * (1.0 + _max_abs(dd)):
            raise PreconditionError("grading does not anticommute with the Dirac")
        for b in self.algebra_basis:
            bb = _dense(b)
            if _max_abs(gd @ bb - bb @ gd) > 1e-12 * (1.0 + _max_abs(bb)):
                raise PreconditionError("grading does not commute with the algebra")

    @staticmethod
    def _adjoint_of(op: OperatorLike):
        v = _view(op)
        return _like(v, _adjoint_blocks(v.blocks))

    @staticmethod
    def _span_solve(v: np.ndarray, gram: np.ndarray, target: np.ndarray) -> np.ndarray:
        # minimal-norm coefficients c with  sum_i c_i basis_i ~ target
        return np.linalg.solve(gram, v @ target.conj()).conj()

    def _basis_tensor(self) -> np.ndarray:
        """Stacked basis blocks, cached; repeated blocks over the shared
        partition are never expanded."""
        cached = getattr(self, "_basis_tensor_cache", None)
        if cached is None:
            views = [_view(b) for b in self.algebra_basis]
            if len({v.blocks.shape for v in views}) == 1:
                cached = np.stack([v.blocks for v in views])
            else:
                cached = np.stack([v.full for v in views])
            object.__setattr__(self, "_basis_tensor_cache", cached)
        return cached

    def element(self, coefficients: Sequence[complex]) -> AlgebraElement:
        """Realize the coefficient vector as a matrix over this basis."""
        c = np.asarray(coefficients, dtype=complex)
        if c.shape != (len(self.algebra_basis),):
            raise PreconditionError(
                f"expected {len(self.algebra_basis)} coefficients, got {c.shape}")
        blocks = np.tensordot(c, self._basis_tensor(), axes=1)
        return AlgebraElement(c, _like(_view(self.algebra_basis[0]), blocks))

    def identity_element(self) -> AlgebraElement:
        return self.element(self.identity_coefficients)


def lip_seminorm(model: SpectralTripleModel, a) -> float:
    """Lipschitz seminorm ``norm([D, a])`` of an algebra element against the
    model Dirac.  Accepts an AlgebraElement or a raw matrix on the model
    Hilbert space."""
    mat = a.matrix if isinstance(a, AlgebraElement) else a
    if operator_dim(mat) != model.hilbert_dim:
        raise PreconditionError("element dimension does not match the model")
    return op_norm(commutator(model.dirac, mat))


def hermitian_coefficient_basis(model: SpectralTripleModel) -> np.ndarray:
    """Real basis of the self-adjoint part of the algebra span.

    Returns a complex array of shape (n_basis, n_real): column k is a
    coefficient vector c with  sum_i c_i basis_i  Hermitian, and the columns
    span all such c over the reals.  Used by the samplers and the distance
    solvers, which optimize over self-adjoint elements only.
    """
    # J: coefficients of each basis adjoint, so adjoint(sum c_i b_i) realizes
    # as sum (J conj(c))_i b_i; solved once when the model was validated
    jm = model._adjoint_coefficients
    n = jm.shape[0]
    # fixed points of c -> J conj(c), as a real-linear problem on (Re c, Im c)
    a_r, a_i = jm.real, jm.imag
    top = np.hstack([a_r, a_i])
    bot = np.hstack([a_i, -a_r])
    m = np.vstack([top, bot]) - np.eye(2 * n)
    _, s, vh = np.linalg.svd(m)
    tol = max(s[0], 1.0) * 1e-9
    null = vh[s <= tol]      # s descends, so these are the trailing rows
    cols = null[:, :n] + 1j * null[:, n:]
    return cols.T
