"""Vertical rescaling, base compression, and spectral sweeps.

The family D_eps = d_h + (1/eps) d_v is evaluated on a descending eps grid;
eigenvalues are grouped into sector tracks, compared against the compressed
base triple through a windowed Hausdorff distance, and paired with the
analytic bound curve from the estimates module.
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import (
    AlgebraElement,
    HermitianOperator,
    PreconditionError,
    SpectralTripleModel,
    _kernel_eigenvectors,
    _like,
    _max_abs,
    _view,
    compress_to_indices,
    hermitian_spectrum,
    op_norm,
    projection_commutator_norm,
)
from .estimates import tunnel_bounds

#: geometric grid 2^0 .. 2^-12, descending
DEFAULT_EPS_GRID: Tuple[float, ...] = tuple(2.0 ** -j for j in range(13))

#: relative tolerance for the off-sector mass check before per-sector solves
SECTOR_LEAK_RTOL = 1e-12


class WindowError(PreconditionError):
    """The requested spectral window exceeds what the truncation resolves."""


def rescale(dec, eps: float) -> HermitianOperator:
    """The rescaled Dirac operator d_h + (1/eps) d_v as a checked Hermitian
    operator.  eps = 1 reproduces the total Dirac exactly."""
    return HermitianOperator(dec.total.hilbert_dim, dec.dirac_at(eps))


def kernel_projection(d_v, tol: float = None, gap: float = None):
    """Spectral projector onto the eigenvalues of d_v inside (-tol, tol).

    tol defaults to 1e-9 * max(1, norm(d_v)).  When a gap is supplied, any
    eigenvalue with tol <= |lambda| < gap raises: an eigenvalue inside the
    forbidden annulus means the kernel cannot be classified reliably.  The
    result has the same dense or block form as the input.
    """
    v, kept = _kernel_eigenvectors(d_v, tol, gap)
    return _like(v, np.stack([k @ k.conj().T for k in kept]))


def projector_rank(p) -> int:
    """Rank of a projector, read off the trace."""
    tr = _view(p).full.trace(axis1=1, axis2=2).sum()
    return int(round(float(tr.real)))


def conditional_expectation(dec, a: AlgebraElement) -> AlgebraElement:
    """Projection onto the base subalgebra (delegates to the model)."""
    return dec.conditional_expectation(a)


def compress_base(dec) -> SpectralTripleModel:
    """The base spectral triple: d_h compressed to ker d_v, together with the
    compressed base algebra.

    Requires the kernel projection to commute with d_h; a violation means the
    split is not compatible and compression would lose spectral content.
    """
    kernel_ix = dec.kernel_indices()
    mask = np.zeros(dec.total.hilbert_dim)
    mask[kernel_ix] = 1.0
    dh = dec.d_h
    leak = projection_commutator_norm(mask, dh)
    if leak > 1e-10 * max(1.0, op_norm(dh)):
        raise PreconditionError(
            f"kernel projection does not commute with the horizontal part "
            f"(defect {leak:.3e}); base compression is not defined")

    d_base = compress_to_indices(dh, kernel_ix)
    basis = tuple(compress_to_indices(b.matrix, kernel_ix)
                  for b in dec.base_basis())

    # identity of the compressed triple, written over the compressed basis
    target = dec.total.identity_coefficients
    coeffs, *_ = np.linalg.lstsq(dec.base_coefficients, target, rcond=None)
    err = np.linalg.norm(dec.base_coefficients @ coeffs - target)
    if err > 1e-9:
        raise PreconditionError("identity is not in the base span")

    label = dec.total.label
    return SpectralTripleModel(
        hilbert_dim=len(kernel_ix),
        algebra_basis=basis,
        dirac=HermitianOperator(len(kernel_ix), d_base),
        label=f"{label}:base" if label else "base",
        identity_coefficients=coeffs,
    )


# ------------------------------------------------------------------ sweeps

@dataclass(frozen=True)
class EpsSweepResult:
    """Spectra of the rescaled family over a descending eps grid.

    sector_tracks maps (sector label, track index) to the per-eps eigenvalue
    array; tracks within one sector are ordered ascending at each grid point.
    hausdorff_curve holds the windowed distance to the base spectrum
    (math.inf when exactly one window is empty), bound_curve the analytic
    collapse bound at each eps.
    """

    model_label: str
    eps_grid: Tuple[float, ...]
    spectra: np.ndarray                    # (n_eps, hilbert_dim), rows sorted
    sector_tracks: Dict[Tuple[tuple, int], np.ndarray]
    window: float
    hausdorff_curve: Tuple[float, ...]
    bound_curve: Tuple[float, ...]
    base_spectrum: np.ndarray
    tracking_method: str                   # "sector-exact" | "heuristic-nearest-neighbor"
    vertical_gap: float
    horizontal_norm: float

    def track(self, label: tuple, j: int) -> np.ndarray:
        return self.sector_tracks[(tuple(label), j)]

    def sector_labels(self) -> list:
        return sorted({lab for lab, _ in self.sector_tracks})


def hausdorff_window(s1, s2, lam: float) -> float:
    """Hausdorff distance between the two spectra clipped to [-lam, lam].

    Both windows empty gives 0; exactly one empty gives math.inf (the
    windows disagree about existence, not location).
    """
    if lam <= 0:
        raise PreconditionError("window must be positive")
    a = np.sort(np.asarray(s1, dtype=float).ravel())
    b = np.sort(np.asarray(s2, dtype=float).ravel())
    a = a[(a >= -lam) & (a <= lam)]
    b = b[(b >= -lam) & (b <= lam)]
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.inf
    return max(_directed_distance(a, b), _directed_distance(b, a))


def _directed_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of the distance to the sorted array b."""
    pos = np.searchsorted(b, a)
    right = b[np.minimum(pos, b.size - 1)]
    left = b[np.maximum(pos - 1, 0)]
    return float(np.max(np.minimum(np.abs(a - right), np.abs(a - left))))


def _sector_codes(dec) -> Optional[np.ndarray]:
    """Integer code per Hilbert index identifying its sector, or None."""
    if dec.sector_labels is None:
        return None
    labels = [tuple(l) for l in dec.sector_labels]
    order = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return np.array([order[lab] for lab in labels], dtype=np.int64)


def _max_off_sector_entry(op, codes: np.ndarray) -> float:
    v = _view(op)
    worst = 0.0
    for ix, blk in zip(v.index_blocks, v.full):
        c = codes[ix]
        if np.all(c == c[0]):
            continue   # block lives inside one sector
        worst = max(worst, _max_abs(blk[c[:, None] != c[None, :]]))
    return worst


def _check_sector_invariance(dec, codes: np.ndarray) -> None:
    """Both Dirac summands must preserve every sector subspace; per-sector
    eigensolves below are exact only under this."""
    for name, op in (("horizontal", dec.d_h), ("vertical", dec.d_v)):
        leak = _max_off_sector_entry(op, codes)
        if leak > SECTOR_LEAK_RTOL * max(1.0, _max_abs(op)):
            raise PreconditionError(
                f"{name} Dirac part couples different sectors "
                f"(entry {leak:.3e}); sector tracking would be wrong")


def _blocks_match_sectors(v, codes: np.ndarray) -> Optional[list]:
    """If every block of the view v sits inside a single sector, return the
    block -> sector code list; otherwise None."""
    out = []
    for ix in v.index_blocks:
        c = codes[ix]
        if not np.all(c == c[0]):
            return None
        out.append(int(c[0]))
    return out


def sweep(dec, eps_grid: Sequence[float] = None, window: float = None) -> EpsSweepResult:
    """Eigenvalues of the rescaled family over a descending eps grid, with
    sector tracks, windowed Hausdorff distances to the compressed base
    spectrum, and the analytic bound curve.

    The window defaults to the model's reliable window; asking for more
    raises WindowError, because eigenvalues beyond it are truncation
    artifacts.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(float(e) for e in eps_grid)
    if not grid:
        raise PreconditionError("eps grid is empty")
    if any(e <= 0 for e in grid):
        raise PreconditionError("eps values must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise PreconditionError("eps grid must be strictly descending")

    if window is None:
        window = dec.reliable_window
        if not math.isfinite(window):
            window = float(op_norm(dec.total.dirac))
    if window <= 0:
        raise PreconditionError("window must be positive")
    if window > dec.reliable_window:
        raise WindowError(
            f"window {window:g} exceeds the reliable window "
            f"{dec.reliable_window:g} of the truncated model")

    base = compress_base(dec)
    base_spec = hermitian_spectrum(base.dirac)
    dim = dec.total.hilbert_dim
    n_eps = len(grid)

    codes = _sector_codes(dec)
    if codes is not None:
        _check_sector_invariance(dec, codes)
        label_of_code = sorted({tuple(l) for l in dec.sector_labels})
        sectors = dec.sector_index_sets()

    spectra = np.empty((n_eps, dim))
    sector_vals: Dict[tuple, list] = {}
    for i, eps in enumerate(grid):
        d_eps = dec.dirac_at(eps)
        if codes is None:
            spectra[i] = hermitian_spectrum(d_eps)
            continue
        view = _view(d_eps)
        block_codes = _blocks_match_sectors(view, codes)
        per_sector = {}
        if block_codes is not None:
            vals = np.linalg.eigvalsh(view.full)
            for b, c in enumerate(block_codes):
                per_sector.setdefault(label_of_code[c], []).append(vals[b])
        else:
            for lab, ix in sectors.items():
                sub = compress_to_indices(d_eps, ix)
                per_sector[lab] = [np.linalg.eigvalsh(sub)]
        row = []
        for lab in label_of_code:
            v = np.sort(np.concatenate(per_sector[lab]))
            sector_vals.setdefault(lab, []).append(v)
            row.append(v)
        spectra[i] = np.sort(np.concatenate(row))

    if codes is not None:
        tracks = {}
        for lab, per_eps in sector_vals.items():
            arr = np.stack(per_eps)           # (n_eps, sector_dim)
            for j in range(arr.shape[1]):
                tracks[(lab, j)] = arr[:, j]
        method = "sector-exact"
    else:
        tracks = _nearest_neighbor_tracks(spectra)
        method = "heuristic-nearest-neighbor"

    hcurve = tuple(hausdorff_window(spectra[i], base_spec, window)
                   for i in range(n_eps))
    cmvt = dec.group_dim * dec.group_diameter
    bcurve = tuple(
        tunnel_bounds(e, dec.vertical_gap, cmvt, dec.comparison_constant).m_eps
        for e in grid)

    return EpsSweepResult(
        model_label=dec.total.label,
        eps_grid=grid,
        spectra=spectra,
        sector_tracks=tracks,
        window=float(window),
        hausdorff_curve=hcurve,
        bound_curve=bcurve,
        base_spectrum=base_spec,
        tracking_method=method,
        vertical_gap=float(dec.vertical_gap),
        horizontal_norm=float(op_norm(dec.d_h)),
    )


def _nearest_neighbor_tracks(spectra: np.ndarray) -> Dict[Tuple[tuple, int], np.ndarray]:
    """Chain eigenvalues between consecutive grid points by nearest unused
    value.  Without invariant sectors, identities can swap at crossings;
    callers see tracking_method == "heuristic-nearest-neighbor"."""
    n_eps, dim = spectra.shape
    paths = np.empty((n_eps, dim))
    paths[0] = spectra[0]
    for i in range(1, n_eps):
        available = list(spectra[i])
        for j in range(dim):
            k = int(np.argmin([abs(v - paths[i - 1, j]) for v in available]))
            paths[i, j] = available.pop(k)
    return {((), j): paths[:, j] for j in range(dim)}


# -------------------------------------------------------- restriction defect

def unitary_restriction_check(dec, eps: float, t: float) -> float:
    """Defect norm  | exp(i t D_eps) p  -  exp(i t p d_h p) p |.

    Both exponentials are computed through Hermitian eigendecompositions, so
    each side is unitary to solver accuracy; a defect above roundoff means
    the kernel subspace fails to reduce the evolution.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    kernel_ix = dec.kernel_indices()
    dim = dec.total.hilbert_dim

    # evolution applied to the kernel columns, over the blocks they meet
    v = _view(dec.dirac_at(eps))
    lhs = np.zeros((dim, len(kernel_ix)), dtype=complex)
    pos = np.full(dim, -1, dtype=np.int64)
    pos[kernel_ix] = np.arange(len(kernel_ix))
    for g, blk in zip(v.index_blocks, v.full):
        p = pos[g]
        local = np.flatnonzero(p >= 0)
        if local.size:
            vals, vecs = np.linalg.eigh(blk)
            u = (vecs * np.exp(1j * t * vals)) @ vecs.conj().T
            lhs[np.ix_(g, p[local])] = u[:, local]

    # compressed evolution, embedded back on the kernel rows
    b_mat = compress_to_indices(dec.d_h, kernel_ix)
    vals, vecs = np.linalg.eigh(b_mat)
    rhs = np.zeros_like(lhs)
    rhs[kernel_ix] = (vecs * np.exp(1j * t * vals)) @ vecs.conj().T

    return float(np.linalg.norm(lhs - rhs, ord=2))


# ------------------------------------------------------- convergence report

@dataclass(frozen=True)
class ZeroSectorTrack:
    """Convergence data for one kernel-sector track."""
    index: int
    limit_estimate: float        # value at the smallest eps
    cauchy_width: float          # spread over the last three grid points
    nearest_base_eigenvalue: float
    distance_to_base: float


@dataclass(frozen=True)
class SectorGrowth:
    """Escape data for one nonzero sector: the scaled product eps*|lambda|
    and the margin over the gap/eps - |d_h| lower bound, both at their
    tightest grid point."""
    label: tuple
    min_abs_final: float
    scaled_product_final: float
    left_window: bool
    growth_margin_min: float


@dataclass(frozen=True)
class TrackConvergenceReport:
    zero_tracks: Tuple[ZeroSectorTrack, ...]
    nonzero_sectors: Tuple[SectorGrowth, ...]
    all_converged: bool
    tracking_method: str
    tolerance: float


def track_convergence_report(sw: EpsSweepResult, base_spectrum=None,
                             tol: float = 1e-9) -> TrackConvergenceReport:
    """Convergence summary of a finished sweep: kernel-sector tracks are
    tested for Cauchy behavior over the last three grid points and matched
    to the base spectrum; every other sector is tested for escape at the
    gap/eps rate."""
    base = sw.base_spectrum if base_spectrum is None else \
        np.sort(np.asarray(base_spectrum, dtype=float))
    if base.size == 0:
        raise PreconditionError("base spectrum is empty")

    labels = sw.sector_labels()
    zero_label = next(
        (lab for lab in labels if lab and all(x == 0 for x in lab)), None)
    if zero_label is None and labels == [()]:
        zero_label = ()   # heuristic sweep: all tracks treated as candidates

    zero_rows = []
    growth: Dict[tuple, list] = {}
    for (lab, j), values in sorted(sw.sector_tracks.items()):
        if lab == zero_label:
            tail = values[-3:]
            nearest = base[np.argmin(np.abs(base - values[-1]))]
            zero_rows.append(ZeroSectorTrack(
                index=j,
                limit_estimate=float(values[-1]),
                cauchy_width=float(np.max(tail) - np.min(tail)),
                nearest_base_eigenvalue=float(nearest),
                distance_to_base=float(abs(values[-1] - nearest)),
            ))
        else:
            growth.setdefault(lab, []).append(values)

    eps = np.asarray(sw.eps_grid)
    lower = sw.vertical_gap / eps - sw.horizontal_norm
    rows = []
    for lab, tr in sorted(growth.items()):
        arr = np.abs(np.stack(tr))            # (sector_dim, n_eps)
        min_abs = arr.min(axis=0)
        rows.append(SectorGrowth(
            label=lab,
            min_abs_final=float(min_abs[-1]),
            scaled_product_final=float(eps[-1] * min_abs[-1]),
            left_window=bool(min_abs[-1] > sw.window),
            growth_margin_min=float(np.min(min_abs - lower)),
        ))

    converged = all(r.cauchy_width <= tol for r in zero_rows)
    return TrackConvergenceReport(
        zero_tracks=tuple(zero_rows),
        nonzero_sectors=tuple(rows),
        all_converged=converged,
        tracking_method=sw.tracking_method,
        tolerance=tol,
    )
