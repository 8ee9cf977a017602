"""Model constructors: decomposed spectral triples with a designated
horizontal/vertical split, plus the small graph models used for metric tests.

Every builder returns either a plain :class:`~collapselab.core.SpectralTripleModel`
(graph models) or a :class:`DecomposedTripleModel` wrapping one.  The decomposed
form carries the data the collapse machinery consumes: the two Dirac summands,
the distinguished base subalgebra, the conditional expectation onto it, sector
labels for the isotypic grading, and the constants (gap, comparison constant,
group diameter) that feed the quantitative bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    DENSE_LIMIT,
    AlgebraElement,
    BlockDiagonalOperator,
    PreconditionError,
    SpectralTripleModel,
    _dense,
    _max_abs,
    _spectral_kernel,
    _sum,
    _view,
    commutator,
    hermitian_spectrum,
    op_norm,
    operator_dim,
)

__all__ = [
    "CliffordSet",
    "make_clifford",
    "DecomposedTripleModel",
    "build_torus_triple",
    "CircleBundleBlockModel",
    "build_circle_bundle_blocks",
    "build_product_triple",
    "build_crossed_product_model",
    "build_point_collapse",
    "GraphStructure",
    "build_graph_model",
    "build_two_point_model",
    "build_path_graph_model",
    "build_cycle_graph_model",
    "build_cycle_adjacency_model",
]

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)

MAX_CLIFFORD_DIRECTIONS = 12


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


@dataclass(frozen=True)
class CliffordSet:
    """Irreducible self-adjoint gamma matrices on a qubit register.

    count      -- number of generators
    spin_dim   -- 2**ceil(count/2), the register dimension
    gammas     -- tuple of (spin_dim, spin_dim) arrays, entries in {0, +-1, +-i}

    The generators square to the identity and pairwise anticommute exactly
    (integer/imaginary-unit arithmetic, no rounding).
    """

    count: int
    spin_dim: int
    gammas: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        eye = np.eye(self.spin_dim, dtype=complex)
        for i, g in enumerate(self.gammas):
            if not np.array_equal(g, g.conj().T):
                raise PreconditionError(f"gamma {i} is not self-adjoint")
            if not np.array_equal(g @ g, eye):
                raise PreconditionError(f"gamma {i} does not square to identity")
            for j in range(i):
                h = self.gammas[j]
                if not np.array_equal(g @ h, -(h @ g)):
                    raise PreconditionError(f"gammas {j},{i} do not anticommute")

    def chirality(self) -> Optional[np.ndarray]:
        """Self-adjoint unitary anticommuting with every generator, or None
        when the generator count is odd (no such element exists then)."""
        if self.count % 2 == 1 or self.count == 0:
            return None if self.count else np.eye(self.spin_dim, dtype=complex)
        prod = reduce(np.matmul, self.gammas)
        if not np.array_equal(prod, prod.conj().T):
            prod = 1j * prod
        if not (np.array_equal(prod, prod.conj().T)
                and np.array_equal(prod @ prod, np.eye(self.spin_dim, dtype=complex))):
            raise AssertionError("chirality construction failed")
        return prod


def make_clifford(directions: int) -> CliffordSet:
    """Build `directions` + 1 anticommuting self-adjoint involutions.

    The register has ceil((directions+1)/2) qubits; generator 2q is
    Z^q (x) X (x) 1..., generator 2q+1 is Z^q (x) Y (x) 1... .
    """
    if directions < 0:
        raise PreconditionError("direction count must be nonnegative")
    if directions > MAX_CLIFFORD_DIRECTIONS:
        raise PreconditionError(
            f"direction count {directions} exceeds supported maximum "
            f"{MAX_CLIFFORD_DIRECTIONS}")
    count = directions + 1
    n_qubits = (count + 1) // 2
    gammas = []
    for j in range(count):
        q, parity = divmod(j, 2)
        word = [_PAULI_Z] * q
        word.append(_PAULI_X if parity == 0 else _PAULI_Y)
        word.extend([_EYE2] * (n_qubits - q - 1))
        gammas.append(_kron_chain(word))
    return CliffordSet(count=count, spin_dim=2 ** n_qubits, gammas=tuple(gammas))


# ---------------------------------------------------------------------------
# Twisted lattice monomials
# ---------------------------------------------------------------------------


def _mode_box(cutoff: int, ndim: int) -> np.ndarray:
    """All integer vectors in [-cutoff, cutoff]^ndim, last axis fastest."""
    rng = range(-cutoff, cutoff + 1)
    return np.array(list(itertools.product(rng, repeat=ndim)), dtype=np.int64)


def _mode_lookup(modes: np.ndarray, cutoff: int) -> np.ndarray:
    """Flat index of each mode vector under mixed-radix base 2*cutoff+1."""
    n = 2 * cutoff + 1
    shifted = modes + cutoff
    idx = np.zeros(len(modes), dtype=np.int64)
    for j in range(modes.shape[1]):
        idx = idx * n + shifted[:, j]
    return idx


def _lex_positive(p: np.ndarray) -> bool:
    for v in p:
        if v > 0:
            return True
        if v < 0:
            return False
    return False


def _exponent_list(cutoff: int, ndim: int, cap: int) -> list:
    """Exponent vectors with total degree <= cap inside the mode box,
    deterministic order, zero vector first."""
    cap = min(cap, cutoff * ndim)
    out = [p for p in itertools.product(range(-cutoff, cutoff + 1), repeat=ndim)
           if sum(abs(v) for v in p) <= cap]
    out.sort(key=lambda p: (sum(abs(v) for v in p), p))
    return [np.array(p, dtype=np.int64) for p in out]


def _wrap_modes(modes: np.ndarray, cutoff: int) -> np.ndarray:
    n = 2 * cutoff + 1
    return (modes + cutoff) % n - cutoff


def _weyl_phase(p: np.ndarray, theta: np.ndarray, modes: np.ndarray) -> np.ndarray:
    return np.exp(1j * math.pi * (modes @ theta.T @ p))


def _twisted_shift_matrix(p: np.ndarray, theta: np.ndarray, modes: np.ndarray,
                          cutoff: int) -> np.ndarray:
    """Unitary monomial on the truncated mode box: cyclic shift by p with a
    Weyl phase.  The phase of a lexicographically negative exponent is defined
    through the adjoint of its positive partner, so T(p)^* == T(-p) holds
    exactly despite the wraparound."""
    lut = np.empty(len(modes), dtype=np.int64)
    lut[_mode_lookup(modes, cutoff)] = np.arange(len(modes))
    target = _wrap_modes(modes + p, cutoff)
    rows = lut[_mode_lookup(target, cutoff)]
    if _lex_positive(p) or not p.any():
        phases = _weyl_phase(p, theta, modes)
    else:
        phases = np.conj(_weyl_phase(-p, theta, target))
    mat = np.zeros((len(modes), len(modes)), dtype=complex)
    mat[rows, np.arange(len(modes))] = phases
    return mat


def _validate_theta(theta: np.ndarray, ndim: int, name: str = "theta") -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ndim, ndim):
        raise PreconditionError(f"{name} must be {ndim}x{ndim}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise PreconditionError(f"{name} contains non-finite entries")
    if np.max(np.abs(theta + theta.T)) > 1e-12:
        raise PreconditionError(f"{name} must be antisymmetric")
    return theta


# ---------------------------------------------------------------------------
# Decomposed triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecomposedTripleModel:
    """A spectral triple together with a horizontal/vertical Dirac split.

    total                -- the underlying model; its Dirac is d_h + d_v
    d_h, d_v             -- the two self-adjoint summands
    base_coefficients    -- (n_basis, n_base) columns spanning the base
                            subalgebra inside the total coefficient space
    expectation_matrix   -- (n_basis, n_basis) coefficient-space matrix of the
                            conditional expectation onto the base
    sector_labels        -- (hilbert_dim, group_dim) integer labels of the
                            isotypic sector of each Hilbert basis vector;
                            None puts every index in the one sector (0,)
    group_dim            -- number of circle factors acting vertically
    group_diameter       -- diameter constant entering the expectation bound
    vertical_gap         -- least nonzero |eigenvalue| of d_v
    comparison_constant  -- constant M in the vertical comparison bound
    reliable_window      -- largest spectral radius the truncation resolves
                            faithfully (math.inf when exact)
    """

    total: SpectralTripleModel
    d_h: object
    d_v: object
    base_coefficients: np.ndarray
    expectation_matrix: np.ndarray
    sector_labels: Optional[np.ndarray]
    group_dim: int
    group_diameter: float
    vertical_gap: float
    comparison_constant: float
    reliable_window: float = math.inf

    def __post_init__(self):
        if self.sector_labels is None:
            object.__setattr__(self, "sector_labels", np.zeros(
                (self.total.hilbert_dim, 1), dtype=np.int64))

    def base_basis(self) -> list:
        """The base subalgebra realized as elements of the total model."""
        return [self.total.element(col) for col in self.base_coefficients.T]

    def conditional_expectation(self, a: AlgebraElement) -> AlgebraElement:
        """Project onto the base subalgebra; linear, unital, norm-nonincreasing."""
        return self.total.element(self.expectation_matrix @ a.coefficients)

    def kernel_indices(self) -> np.ndarray:
        """Hilbert-space indices spanning ker d_v (eigenbasis is coordinate
        in every builder here, so the kernel is an index set)."""
        cached = getattr(self, "_kernel_cache", None)
        if cached is None:
            cached = _zero_eigenvector_indices(self.d_v, self.vertical_gap)
            object.__setattr__(self, "_kernel_cache", cached)
        return cached

    def vertical_defects(self) -> tuple:
        """|[d_v, b]| for each base element b, in base order.  Computed once
        and kept as a plain attribute, not a field, so dataclasses.replace
        never carries a table over to a model with another d_v."""
        cached = getattr(self, "_vertical_defect_cache", None)
        if cached is None:
            cached = tuple(op_norm(commutator(self.d_v, b.matrix))
                           for b in self.base_basis())
            object.__setattr__(self, "_vertical_defect_cache", cached)
        return cached

    def sectors(self) -> Tuple[np.ndarray, list]:
        """Sector code of each Hilbert index, and the ascending sector label
        tuples the codes index."""
        labels, codes = np.unique(self.sector_labels, axis=0, return_inverse=True)
        return codes.reshape(-1), [tuple(lab) for lab in labels]

    def sector_index_sets(self) -> "dict":
        """Map sector label tuple -> sorted index array, ordered by label."""
        codes, labels = self.sectors()
        return {lab: np.flatnonzero(codes == c) for c, lab in enumerate(labels)}

    def dirac_at(self, eps: float):
        """The collapse family member d_h + d_v / eps as a raw operator."""
        if not eps > 0:
            raise PreconditionError("eps must be positive")
        return _sum(self.d_h, self.d_v, eps)

    def self_check(self, check_base_commutation: bool = True) -> None:
        """Structural invariants; PreconditionError on violation."""
        dv = self.d_v
        dim = self.total.hilbert_dim
        if operator_dim(self.d_h) != dim or operator_dim(dv) != dim:
            raise PreconditionError("Dirac summand dimension mismatch")
        defect = _max_abs(_sum(self.dirac_at(1.0), self.total.dirac, -1.0))
        if defect > 1e-12 * max(1.0, _max_abs(self.total.dirac)):
            raise PreconditionError(
                f"d_h + d_v does not reproduce the total Dirac (defect {defect:.3e})")
        nb = self.base_coefficients.shape
        if nb[0] != len(self.total.algebra_basis) or nb[1] < 1:
            raise PreconditionError("base coefficient block has wrong shape")
        em = self.expectation_matrix
        if em.shape != (nb[0], nb[0]):
            raise PreconditionError("expectation matrix has wrong shape")
        # E restricted to the base must be the identity.
        fix = em @ self.base_coefficients - self.base_coefficients
        if np.linalg.norm(fix) > 1e-9 * max(1.0, np.linalg.norm(self.base_coefficients)):
            raise PreconditionError("expectation does not fix the base subalgebra")
        # max |eigenvalue| of d_v is its norm: one eigensolve serves both checks
        kernel, least, scale = _spectral_kernel(hermitian_spectrum(dv))
        if check_base_commutation:
            for c in self.vertical_defects():
                if c > 1e-10 * scale:
                    raise PreconditionError(
                        f"base element fails to commute with d_v (norm {c:.3e})")
        if not kernel.any():
            raise PreconditionError("d_v has no kernel")
        if least < self.vertical_gap * (1 - 1e-9) - 1e-12:
            raise PreconditionError(
                f"vertical gap {self.vertical_gap} exceeds least nonzero "
                f"|eigenvalue| {least}")
        if self.vertical_gap <= 0:
            raise PreconditionError("vertical gap must be positive")
        if self.group_dim < 1 or self.group_diameter <= 0:
            raise PreconditionError("group data must be positive")
        ker = self.kernel_indices()
        if len(ker) == 0:
            raise PreconditionError("kernel index set is empty")
        if _column_norm(dv, ker) > 1e-9 * scale:
            raise PreconditionError("kernel indices do not annihilate d_v")


def _zero_eigenvector_indices(dv, gap: float) -> np.ndarray:
    """Coordinate indices with vanishing d_v column (and row, by symmetry)."""
    v = _view(dv)
    col = np.sqrt(np.sum(np.abs(v.full) ** 2, axis=1))  # (nb, bd) column norms
    scale = max(1.0, _max_abs(v.blocks))
    return np.sort(v.index_blocks[col <= 1e-9 * max(scale, gap)])


def _column_norm(op, indices: np.ndarray) -> float:
    """Frobenius norm of the selected columns."""
    v = _view(op)
    sel = np.zeros(v.dim, dtype=bool)
    sel[indices] = True
    total = 0.0
    for ix, blk in zip(v.index_blocks, v.full):
        m = sel[ix]
        if m.any():
            total += float(np.sum(np.abs(blk[:, m]) ** 2))
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# Torus builder
# ---------------------------------------------------------------------------


def build_torus_triple(g_base: int, g_fiber: int, theta, cutoff: int,
                       weights: Optional[Sequence[float]] = None,
                       monomial_cap: int = 1,
                       materialize: str = "auto",
                       label: str = "") -> DecomposedTripleModel:
    """Truncated noncommutative torus with the last `g_fiber` directions
    declared vertical.

    Modes live in the box [-cutoff, cutoff]^d, d = g_base + g_fiber; the spin
    factor carries d anticommuting gammas.  The algebra is the span of twisted
    shift monomials of total degree <= monomial_cap (adjoint-closed by the
    phase pairing in `_twisted_shift_matrix`).  Weights default to 1/(2*pi)
    per direction, which puts the Dirac eigenvalue spacing at 1.

    The two Dirac summands are built once, one block per fiber mode;
    `materialize` picks only how the algebra is stored.  "dense" densifies
    the summands and keeps the full monomial algebra and the chirality
    grading.  "blocks" keeps the base monomials, one block repeated over the
    fiber modes, so only base-base twist phases survive: request it only when
    theta does not couple base and fiber directions.  "auto" picks blocks
    above DENSE_LIMIT.
    """
    if g_base < 0 or g_fiber < 1:
        raise PreconditionError("need g_base >= 0 and g_fiber >= 1")
    d = g_base + g_fiber
    if cutoff < 1:
        raise PreconditionError("cutoff must be at least 1")
    theta = _validate_theta(theta, d)
    if weights is None:
        weights = (1.0 / (2 * math.pi),) * d
    weights = tuple(float(w) for w in weights)
    if len(weights) != d or any(w <= 0 for w in weights):
        raise PreconditionError("weights must be positive, one per direction")
    if monomial_cap < 1:
        raise PreconditionError("monomial cap must be at least 1")
    if materialize not in ("auto", "dense", "blocks"):
        raise PreconditionError(f"unknown materialize mode {materialize!r}")

    cliff = make_clifford(d - 1)  # d gamma matrices
    spin = cliff.spin_dim
    n_modes = 2 * cutoff + 1
    dim = n_modes ** d * spin
    if materialize == "auto":
        materialize = "dense" if dim <= DENSE_LIMIT else "blocks"
    if materialize == "blocks":
        if g_base == 0:
            raise PreconditionError(
                "block materialization needs at least one base direction")
        coupling = theta[:g_base, g_base:]
        if coupling.size and np.max(np.abs(coupling)) > 1e-12:
            raise PreconditionError(
                "block materialization requires theta with no base-fiber coupling")

    # Fiber-major mode order keeps each isotypic sector contiguous: one
    # block of base modes times spin per fiber mode.
    base_modes = _mode_box(cutoff, g_base)
    fiber_modes = _mode_box(cutoff, g_fiber)
    n_base_lat = len(base_modes)
    n_fiber = len(fiber_modes)
    bd = n_base_lat * spin
    index_blocks = np.arange(dim, dtype=np.int64).reshape(n_fiber, bd)

    h_block = np.zeros((bd, bd), dtype=complex)
    for j in range(g_base):
        coeff = 2 * math.pi * weights[j] * base_modes[:, j]
        h_block += np.kron(np.diag(coeff.astype(complex)), cliff.gammas[j])
    dirac_h = BlockDiagonalOperator(dim, index_blocks, h_block[None, :, :])

    eye_base = np.eye(n_base_lat, dtype=complex)
    v_blocks = np.zeros((n_fiber, bd, bd), dtype=complex)
    for f, mf in enumerate(fiber_modes):
        s = np.zeros((spin, spin), dtype=complex)
        for l in range(g_fiber):
            s += 2 * math.pi * weights[g_base + l] * mf[l] * cliff.gammas[g_base + l]
        v_blocks[f] += np.kron(eye_base, s)   # onto zeros: every zero is +0.0
    dirac_v = BlockDiagonalOperator(dim, index_blocks, v_blocks)

    grading = None
    if materialize == "dense":
        dirac_h, dirac_v = _dense(dirac_h), _dense(dirac_v)
        alg_modes = np.concatenate(
            [np.tile(base_modes, (n_fiber, 1)),
             np.repeat(fiber_modes, n_base_lat, axis=0)], axis=1)
        alg_theta = theta
        chi = cliff.chirality()
        if chi is not None:
            grading = np.kron(np.eye(len(alg_modes), dtype=complex), chi)
    else:
        alg_modes, alg_theta = base_modes, theta[:g_base, :g_base]

    exps = _exponent_list(cutoff, alg_modes.shape[1], monomial_cap)
    base_mask = np.array([not p[g_base:].any() for p in exps])
    eye_spin = np.eye(spin, dtype=complex)
    basis = []
    for p in exps:
        blk = np.kron(_twisted_shift_matrix(p, alg_theta, alg_modes, cutoff), eye_spin)
        basis.append(blk if materialize == "dense" else
                     BlockDiagonalOperator(dim, index_blocks, blk[None, :, :]))
    identity_coeffs = np.zeros(len(exps), dtype=complex)
    identity_coeffs[0] = 1.0  # zero exponent sorts first

    total = SpectralTripleModel(
        hilbert_dim=dim,
        algebra_basis=tuple(basis),
        dirac=_sum(dirac_h, dirac_v),
        label=label or f"torus[{g_base}+{g_fiber},K={cutoff}]",
        grading=grading,
        identity_coefficients=identity_coeffs,
    )
    dec = DecomposedTripleModel(
        total=total,
        d_h=dirac_h,
        d_v=dirac_v,
        base_coefficients=np.eye(len(exps), dtype=complex)[:, base_mask],
        expectation_matrix=np.diag(base_mask.astype(complex)),
        sector_labels=np.repeat(fiber_modes, bd, axis=0),
        group_dim=g_fiber,
        group_diameter=max(1.0 / (2 * w) for w in weights[g_base:]),
        vertical_gap=2 * math.pi * min(weights[g_base:]),
        comparison_constant=math.sqrt(g_fiber),
        reliable_window=math.pi * cutoff * min(weights),
    )
    dec.self_check()
    return dec


# ---------------------------------------------------------------------------
# Circle bundle block family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleBundleBlockModel:
    """Two-by-two block family of a circle fibration over a discrete base.

    For base eigenvalue mu and fiber momentum k the block at collapse
    parameter eps is [[mu, -i k/(l eps)], [i k/(l eps), -mu]], with
    eigenvalues +-sqrt(mu^2 + (k/(l eps))^2).  l is the fiber length scale.
    """

    base_eigenvalues: Tuple[float, ...]
    fiber_length_scale: float
    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if not self.base_eigenvalues:
            raise PreconditionError("base spectrum must be nonempty")
        if self.fiber_length_scale <= 0:
            raise PreconditionError("fiber length scale must be positive")
        if self.k_min > self.k_max:
            raise PreconditionError("empty momentum range")

    def pairs(self):
        """(base index, momentum) in sector-major order."""
        return [(j, k) for k in range(self.k_min, self.k_max + 1)
                for j in range(len(self.base_eigenvalues))]

    def block_at(self, j: int, k: int, eps: float) -> np.ndarray:
        mu = self.base_eigenvalues[j]
        v = k / (self.fiber_length_scale * eps)
        return np.array([[mu, -1j * v], [1j * v, -mu]], dtype=complex)

    def eigenvalues_at(self, j: int, k: int, eps: float) -> Tuple[float, float]:
        mu = self.base_eigenvalues[j]
        v = k / (self.fiber_length_scale * eps)
        r = math.hypot(mu, v)
        return (-r, r)

    def as_decomposition(self, label: str = "") -> DecomposedTripleModel:
        """Assemble the direct sum into a decomposed model (dense; the family
        is small by construction).  Momentum 0 must lie in the range, else
        the vertical operator has no kernel."""
        if not (self.k_min <= 0 <= self.k_max):
            raise PreconditionError("no kernel: momentum range must contain 0")
        pairs = self.pairs()
        dim = 2 * len(pairs)
        dirac_h = np.zeros((dim, dim), dtype=complex)
        dirac_v = np.zeros((dim, dim), dtype=complex)
        labels = np.zeros((dim, 1), dtype=np.int64)
        ell = self.fiber_length_scale
        for idx, (j, k) in enumerate(pairs):
            sl = slice(2 * idx, 2 * idx + 2)
            mu = self.base_eigenvalues[j]
            dirac_h[sl, sl] = np.array([[mu, 0.0], [0.0, -mu]], dtype=complex)
            dirac_v[sl, sl] = np.array([[0.0, -1j * k / ell],
                                        [1j * k / ell, 0.0]], dtype=complex)
            labels[sl, 0] = k
        grading = np.kron(np.eye(len(pairs), dtype=complex), _PAULI_X)
        total = SpectralTripleModel(
            hilbert_dim=dim,
            algebra_basis=(np.eye(dim, dtype=complex),),
            dirac=dirac_h + dirac_v,
            label=label or f"circle-bundle[l={ell},k={self.k_min}..{self.k_max}]",
            grading=grading,
            identity_coefficients=np.array([1.0], dtype=complex),
        )
        nonzero_k = [abs(k) for k in range(self.k_min, self.k_max + 1) if k != 0]
        gap = (min(nonzero_k) / ell) if nonzero_k else 1.0 / ell
        window = (max(abs(self.k_min), abs(self.k_max)) / (2.0 * ell)
                  if nonzero_k else math.inf)
        dec = DecomposedTripleModel(
            total=total,
            d_h=dirac_h,
            d_v=dirac_v,
            base_coefficients=np.eye(1, dtype=complex),
            expectation_matrix=np.eye(1, dtype=complex),
            sector_labels=labels,
            group_dim=1,
            group_diameter=math.pi * ell,
            vertical_gap=gap,
            comparison_constant=1.0,
            reliable_window=window,
        )
        dec.self_check()
        return dec


def build_circle_bundle_blocks(base_eigenvalues: Sequence[float],
                               fiber_length_scale: float,
                               k_min: int, k_max: int) -> CircleBundleBlockModel:
    """Validated constructor for the block family."""
    return CircleBundleBlockModel(
        base_eigenvalues=tuple(float(m) for m in base_eigenvalues),
        fiber_length_scale=float(fiber_length_scale),
        k_min=int(k_min), k_max=int(k_max))


# ---------------------------------------------------------------------------
# Product of an even triple with a vertical operator
# ---------------------------------------------------------------------------


def build_product_triple(even: SpectralTripleModel, vertical: np.ndarray,
                         label: str = "") -> DecomposedTripleModel:
    """Product model: Hilbert space H (x) H', Dirac D (x) 1 + gamma (x) S.

    `even` must carry a grading; `vertical` is a self-adjoint S on H' with
    0 in its spectrum (the collapse limit lives on H (x) ker S).  The algebra
    is the even factor's algebra acting on the first leg; it already commutes
    with the vertical summand, so the conditional expectation is the identity
    and the quantitative hypotheses hold with constant 1.
    """
    if even.grading is None:
        raise PreconditionError("even factor must carry a grading")
    s = np.asarray(vertical, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise PreconditionError("vertical operator must be square")
    if np.max(np.abs(s - s.conj().T)) > 1e-12 * max(1.0, float(np.max(np.abs(s)))):
        raise PreconditionError("vertical operator must be self-adjoint")
    svals = np.linalg.eigvalsh(s)
    kernel, gap, scale = _spectral_kernel(svals)
    if kernel.all():
        raise PreconditionError("vertical gap undefined: S vanishes")
    if not kernel.any():
        raise PreconditionError("no kernel: 0 is not an eigenvalue of S")

    n2 = s.shape[0]
    # Work in the eigenbasis of S so sectors are coordinate index sets.
    s_diag = np.diag(svals.astype(complex))
    eye2 = np.eye(n2, dtype=complex)
    gamma = even.grading
    dim = even.hilbert_dim * n2
    dirac_h = np.kron(_dense(even.dirac), eye2)
    dirac_v = np.kron(gamma, s_diag)

    basis = [np.kron(_dense(b), eye2) for b in even.algebra_basis]
    # Signed sector label: cluster position of the S eigenvalue relative to
    # the kernel cluster (ascending eigenvalue order).
    cluster = _cluster_labels(svals, 1e-9 * scale)
    labels = np.tile(cluster, even.hilbert_dim)[:, None]

    n = len(basis)
    total = SpectralTripleModel(
        hilbert_dim=dim,
        algebra_basis=tuple(basis),
        dirac=dirac_h + dirac_v,
        label=label or f"product[{even.label or 'even'}x{n2}]",
        identity_coefficients=even.identity_coefficients,
    )
    dec = DecomposedTripleModel(
        total=total,
        d_h=dirac_h,
        d_v=dirac_v,
        base_coefficients=np.eye(n, dtype=complex),
        expectation_matrix=np.eye(n, dtype=complex),
        sector_labels=labels,
        group_dim=1,
        group_diameter=math.pi / gap,
        vertical_gap=gap,
        comparison_constant=1.0,
        reliable_window=math.inf,
    )
    dec.self_check()
    return dec


def _cluster_labels(sorted_vals: np.ndarray, tol: float) -> np.ndarray:
    """Signed cluster index per (ascending) eigenvalue; the cluster containing
    zero gets label 0."""
    ids = np.zeros(len(sorted_vals), dtype=np.int64)
    width = max(tol, 1e-12)
    for i in range(1, len(sorted_vals)):
        ids[i] = ids[i - 1] + (1 if sorted_vals[i] - sorted_vals[i - 1] > width else 0)
    zero_pos = int(np.argmin(np.abs(sorted_vals)))
    return ids - ids[zero_pos]


# ---------------------------------------------------------------------------
# Crossed product by Z^d
# ---------------------------------------------------------------------------


def build_crossed_product_model(base: SpectralTripleModel, d: int, cutoff: int,
                                phases=None, vertical_defect: float = 0.0,
                                label: str = "") -> DecomposedTripleModel:
    """Discretized crossed product of a base triple by Z^d.

    The Hilbert space is (momentum box) (x) (base space) (x) (spin register
    with d+1 gammas).  Horizontal Dirac: D_base (x) gamma_0; vertical Dirac:
    sum_j diag(z_j) (x) 1 (x) gamma_j over the dual momenta z in
    [-cutoff, cutoff]^d.  The algebra is spanned by b (x) T(q) (x) 1 with b in
    the base algebra and T(q) (optionally twisted) shift monomials of total
    degree <= 1.

    vertical_defect != 0 adds a rank-perturbation that couples the extreme
    momentum shell to the base, spoiling the commutation of d_v with the base
    algebra while keeping the gap and all other structure; it exists to give
    the hypothesis audit a true negative.
    """
    if d < 1:
        raise PreconditionError("need at least one crossed direction")
    if cutoff < 1:
        raise PreconditionError("cutoff must be at least 1")
    theta = (np.zeros((d, d)) if phases is None else _validate_theta(phases, d, "phases"))
    cliff = make_clifford(d)  # gammas 0..d
    spin = cliff.spin_dim
    z_modes = _mode_box(cutoff, d)
    nz = len(z_modes)
    nb = base.hilbert_dim
    dim = nz * nb * spin

    eye_z = np.eye(nz, dtype=complex)
    eye_b = np.eye(nb, dtype=complex)
    eye_s = np.eye(spin, dtype=complex)

    dirac_h = np.kron(eye_z, np.kron(_dense(base.dirac), cliff.gammas[0]))
    dirac_v = np.zeros((dim, dim), dtype=complex)
    for j in range(d):
        dirac_v += np.kron(np.diag(z_modes[:, j].astype(complex)),
                           np.kron(eye_b, cliff.gammas[j + 1]))

    if vertical_defect != 0.0:
        if nb < 2:
            raise PreconditionError("vertical defect needs a base of dimension >= 2")
        shell = np.zeros(nz, dtype=complex)
        corner = np.zeros(d, dtype=np.int64)
        corner[0] = cutoff
        shell[int(np.flatnonzero((z_modes == corner).all(axis=1))[0])] = 1.0
        bx = np.zeros((nb, nb), dtype=complex)
        bx[0, 1] = bx[1, 0] = 1.0
        dirac_v += vertical_defect * np.kron(np.diag(shell), np.kron(bx, cliff.gammas[1]))

    exps = _exponent_list(cutoff, d, 1)
    base_ops = [_dense(b) for b in base.algebra_basis]
    basis = []
    for q in exps:
        t = _twisted_shift_matrix(q, theta, z_modes, cutoff)
        for b in base_ops:
            basis.append(np.kron(t, np.kron(b, eye_s)))

    nbasis = len(basis)
    nb_alg = len(base_ops)
    identity_coeffs = np.zeros(nbasis, dtype=complex)
    identity_coeffs[:nb_alg] = base.identity_coefficients  # q = 0 sorts first

    base_mask = np.zeros(nbasis, dtype=bool)
    base_mask[:nb_alg] = True
    base_cols = np.eye(nbasis, dtype=complex)[:, base_mask]
    expectation = np.diag(base_mask.astype(complex))

    labels = np.repeat(z_modes, nb * spin, axis=0)
    # The spin chirality anticommutes with every gamma, including the one the
    # defect rides on, so the grading survives the perturbation.
    chi = cliff.chirality()
    grading = None if chi is None else np.kron(eye_z, np.kron(eye_b, chi))

    total = SpectralTripleModel(
        hilbert_dim=dim,
        algebra_basis=tuple(basis),
        dirac=dirac_h + dirac_v,
        label=label or f"crossed[{base.label or 'base'}xZ^{d},K={cutoff}]",
        grading=grading,
        identity_coefficients=identity_coeffs,
    )
    gap = 1.0
    if vertical_defect != 0.0:
        gap = min(gap, _spectral_kernel(hermitian_spectrum(dirac_v))[1])
    dec = DecomposedTripleModel(
        total=total,
        d_h=dirac_h,
        d_v=dirac_v,
        base_coefficients=base_cols,
        expectation_matrix=expectation,
        sector_labels=labels,
        group_dim=d,
        group_diameter=math.pi,
        vertical_gap=gap,
        comparison_constant=math.sqrt(d),
        reliable_window=cutoff / 2.0,
    )
    dec.self_check(check_base_commutation=(vertical_defect == 0.0))
    return dec


# ---------------------------------------------------------------------------
# Point collapse
# ---------------------------------------------------------------------------


def build_point_collapse(model: SpectralTripleModel, state,
                         label: str = "") -> DecomposedTripleModel:
    """Collapse an entire triple to a point: d_h = 0, d_v = D.

    Requires ker D != 0 ("no kernel" otherwise) and D != 0 ("vertical gap
    undefined").  The conditional expectation sends a to state(a) * identity;
    `state` must expose a density matrix on the model's Hilbert space.  The
    expectation bound constant is the model's quantum diameter (group_dim 1),
    computed here, so the audit can verify the bound with the diameter in
    place of a group constant.

    The returned model is expressed in the Dirac eigenbasis, making the
    kernel a coordinate index set.
    """
    dirac = _dense(model.dirac)
    vals, vecs = np.linalg.eigh(dirac)
    kernel, gap, scale = _spectral_kernel(vals)
    if kernel.all():
        raise PreconditionError("vertical gap undefined: Dirac vanishes")
    if not kernel.any():
        raise PreconditionError("no kernel: Dirac is invertible")

    density = np.asarray(state.density, dtype=complex)
    if density.shape != (model.hilbert_dim,) * 2:
        raise PreconditionError("state density has wrong dimension")

    rot = vecs.conj().T
    basis_rot = [rot @ _dense(b) @ vecs for b in model.algebra_basis]
    dirac_rot = np.diag(vals.astype(complex))
    grading_rot = None
    if model.grading is not None:
        grading_rot = rot @ model.grading @ vecs

    from .qmetric import quantum_diameter  # deferred: qmetric must not import builders

    diam = quantum_diameter(model)
    if not math.isfinite(diam.value):
        raise PreconditionError(
            "quantum diameter is not finite; point collapse bound undefined")

    moments = np.array([np.trace(density @ _dense(b)) for b in model.algebra_basis])
    n = len(basis_rot)
    expectation = np.outer(np.asarray(model.identity_coefficients, dtype=complex),
                           moments)

    total = SpectralTripleModel(
        hilbert_dim=model.hilbert_dim,
        algebra_basis=tuple(basis_rot),
        dirac=dirac_rot,
        label=label or f"point-collapse[{model.label or 'model'}]",
        grading=grading_rot,
        identity_coefficients=model.identity_coefficients,
    )
    labels = _cluster_labels(vals, 1e-9 * scale)[:, None]
    dec = DecomposedTripleModel(
        total=total,
        d_h=np.zeros((model.hilbert_dim,) * 2, dtype=complex),
        d_v=dirac_rot,
        base_coefficients=np.asarray(model.identity_coefficients,
                                     dtype=complex).reshape(n, 1),
        expectation_matrix=expectation,
        sector_labels=labels,
        group_dim=1,
        group_diameter=diam.value,
        vertical_gap=gap,
        comparison_constant=1.0,
        reliable_window=math.inf,
    )
    dec.self_check(check_base_commutation=False)
    return dec


# ---------------------------------------------------------------------------
# Graph models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphStructure:
    """Side data identifying a model as a weighted-graph Dirac.

    kind          -- "edge_pair" (edge-doubled Hilbert space) or "adjacency"
    n_vertices    -- vertex count
    edges         -- tuple of (i, j, weight); weight may be complex
    vertex_slots  -- per vertex, the Hilbert indices its indicator occupies
    """

    kind: str
    n_vertices: int
    edges: Tuple[Tuple[int, int, complex], ...]
    vertex_slots: Tuple[Tuple[int, ...], ...]

    def path_lengths(self) -> np.ndarray:
        """All-pairs shortest paths with edge length 1/|weight|."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path
        n = self.n_vertices
        rows, cols, vals = [], [], []
        for i, j, w in self.edges:
            rows += [i, j]
            cols += [j, i]
            vals += [1.0 / abs(w)] * 2
        graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
        return shortest_path(graph, method="D", directed=False)


def build_graph_model(edges: Sequence[Tuple[int, int, complex]],
                      n_vertices: Optional[int] = None,
                      label: str = "") -> SpectralTripleModel:
    """Edge-doubled graph Dirac: one two-dimensional block [[0, w], [w*, 0]]
    per edge, vertex indicators as the (commutative) algebra.

    The Lipschitz seminorm of a vertex function f is then
    max over edges |w| |f(i) - f(j)|, the discrete gradient bound.
    """
    edges = [(int(i), int(j), complex(w)) for i, j, w in edges]
    if not edges:
        raise PreconditionError("graph needs at least one edge")
    pairs = set()
    for i, j, w in edges:
        if i < 0 or j < 0:
            raise PreconditionError(f"negative vertex index on edge ({i},{j})")
        if i == j:
            raise PreconditionError(f"self-loop at vertex {i}")
        if w == 0:
            raise PreconditionError(f"zero weight on edge ({i},{j})")
        key = (min(i, j), max(i, j))
        if key in pairs:
            raise PreconditionError(f"duplicate edge ({i},{j})")
        pairs.add(key)
    seen = max(max(i, j) for i, j, _ in edges) + 1
    n = seen if n_vertices is None else int(n_vertices)
    if n < seen:
        raise PreconditionError("edge endpoints exceed vertex count")
    touched = set()
    for i, j, _ in edges:
        touched.update((i, j))
    if len(touched) < n:
        raise PreconditionError("isolated vertices make the metric degenerate")

    dim = 2 * len(edges)
    dirac = np.zeros((dim, dim), dtype=complex)
    slots: list = [[] for _ in range(n)]
    for e, (i, j, w) in enumerate(edges):
        a, b = 2 * e, 2 * e + 1
        dirac[a, b] = w
        dirac[b, a] = np.conj(w)
        slots[i].append(a)
        slots[j].append(b)
    basis = []
    for v in range(n):
        chi = np.zeros((dim, dim), dtype=complex)
        for s in slots[v]:
            chi[s, s] = 1.0
        basis.append(chi)
    structure = GraphStructure(
        kind="edge_pair", n_vertices=n,
        edges=tuple(edges), vertex_slots=tuple(tuple(s) for s in slots))
    return SpectralTripleModel(
        hilbert_dim=dim,
        algebra_basis=tuple(basis),
        dirac=dirac,
        label=label or f"graph[{n}v{len(edges)}e]",
        structure=structure,
        identity_coefficients=np.ones(n, dtype=complex),
    )


def build_two_point_model(kappa: complex, label: str = "") -> SpectralTripleModel:
    """Two points joined by coupling kappa; distance is 1/|kappa|."""
    if kappa == 0:
        raise PreconditionError("coupling must be nonzero")
    return build_graph_model([(0, 1, kappa)], label=label or "two-point")


def build_path_graph_model(weights: Sequence[complex],
                           label: str = "") -> SpectralTripleModel:
    """Path graph on len(weights)+1 vertices."""
    weights = list(weights)
    if not weights:
        raise PreconditionError("path needs at least one edge")
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    return build_graph_model(edges, label=label or f"path[{len(weights) + 1}]")


def build_cycle_graph_model(weights: Sequence[complex],
                            label: str = "") -> SpectralTripleModel:
    """Cycle graph on len(weights) vertices (at least 3)."""
    weights = list(weights)
    if len(weights) < 3:
        raise PreconditionError("cycle needs at least three edges")
    n = len(weights)
    edges = [(i, (i + 1) % n, w) for i, w in enumerate(weights)]
    return build_graph_model(edges, label=label or f"cycle[{n}]")


def build_cycle_adjacency_model(n: int, weight: float = 1.0,
                                label: str = "") -> SpectralTripleModel:
    """Cycle Dirac acting on the vertex space itself (adjacency form);
    used as point-collapse input, where a Dirac kernel is required and the
    edge-doubled form has none for odd cycles."""
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    if weight == 0:
        raise PreconditionError("weight must be nonzero")
    dirac = np.zeros((n, n), dtype=complex)
    edges = []
    for i in range(n):
        j = (i + 1) % n
        dirac[i, j] = weight
        dirac[j, i] = np.conj(weight)
        edges.append((i, j, complex(weight)))
    basis = [np.diag(np.eye(n, dtype=complex)[v]) for v in range(n)]
    structure = GraphStructure(
        kind="adjacency", n_vertices=n, edges=tuple(edges),
        vertex_slots=tuple((v,) for v in range(n)))
    return SpectralTripleModel(
        hilbert_dim=n,
        algebra_basis=tuple(basis),
        dirac=dirac,
        label=label or f"cycle-adjacency[{n}]",
        structure=structure,
        identity_coefficients=np.ones(n, dtype=complex),
    )
