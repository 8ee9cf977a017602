"""Quantitative bounds behind the collapse analysis.

Closed-form bump and tunnel constants, the kernel-projection Fourier estimate,
the Clifford comparison inequality, conditional-expectation Lipschitz checks,
and a six-part hypothesis audit for decomposed models.  Everything numeric is
checked against stored model constants; nothing here refits constants from
data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad

from .core import (
    AlgebraElement,
    PreconditionError,
    SpectralTripleModel,
    _apply,
    _dense,
    _kernel_eigenvectors,
    _sum,
    commutator,
    compress_to_indices,
    hermitian_coefficient_basis,
    op_norm,
    operator_dim,
    projection_commutator_norm,
)

__all__ = [
    "BumpFunction",
    "TunnelBounds",
    "FourierCheck",
    "ComparisonCheck",
    "ExpectationReport",
    "HypothesisVerdict",
    "AuditReport",
    "bump_function",
    "tunnel_bounds",
    "fourier_projection_check",
    "comparison_check",
    "expectation_lipschitz_check",
    "hypothesis_audit",
    "sample_self_adjoint",
]

DEFAULT_AUDIT_SEED = 0xC0FFEE


# --------------------------------------------------------------- bump windows

@dataclass(frozen=True)
class BumpFunction:
    """Cosine-squared window f(t) = cos^2(pi*eps*t / (2*delta)) on
    |t| < delta/eps, zero outside.

    f(0) = 1, f vanishes at the support boundary, and |f'| <= 2*eps/delta
    (the sharp analytic bound is pi*eps/(2*delta), already below that).  The
    derivative's L2 norm has the closed form (pi/2)*sqrt(eps/delta), which is
    what the projection estimates consume.
    """

    delta: float
    eps: float
    support_radius: float
    derivative_bound: float
    l2_deriv_norm: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < self.support_radius
        phase = (np.pi * self.eps / (2.0 * self.delta)) * np.where(inside, t, 0.0)
        return np.where(inside, np.cos(phase) ** 2, 0.0)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < self.support_radius
        w = np.pi * self.eps / self.delta
        return np.where(inside, -(w / 2.0) * np.sin(w * np.where(inside, t, 0.0)), 0.0)

    def l2_deriv_norm_quadrature(self) -> float:
        """Numerical cross-check of the closed form (adaptive quadrature)."""
        r = self.support_radius
        val, _ = quad(lambda t: float(self.derivative(t)) ** 2, -r, r, limit=400)
        return math.sqrt(val)


def bump_function(delta: float, eps: float) -> BumpFunction:
    """Window with unit value at 0, support (-delta/eps, delta/eps) and the
    analytic derivative norm; rejects nonpositive parameters."""
    if not (delta > 0 and eps > 0):
        raise PreconditionError("bump parameters must be positive")
    # integral of f'(t)^2 over the support is pi^2*eps/(4*delta)
    l2 = (math.pi / 2.0) * math.sqrt(eps / delta)
    b = BumpFunction(
        delta=float(delta),
        eps=float(eps),
        support_radius=delta / eps,
        derivative_bound=2.0 * eps / delta,
        l2_deriv_norm=l2,
    )
    if not b.l2_deriv_norm <= 2.0 * math.sqrt(2.0 * eps / delta) + 1e-15:
        raise AssertionError(f"bump derivative norm {b.l2_deriv_norm!r} exceeds its bound")
    return b


# ------------------------------------------------------------ tunnel constants

@dataclass(frozen=True)
class TunnelBounds:
    """Extent and dispersion constants for one rescaling step.

    alpha = 4*sqrt(2*eps/delta); k_eps = max(k*m*eps, alpha);
    m_eps = alpha + k_eps; extent_bound = k*m*eps.  All exact closed forms.
    """

    eps: float
    delta: float
    k: float
    m: float
    alpha: float
    k_eps: float
    m_eps: float
    extent_bound: float


def tunnel_bounds(eps: float, delta: float, k: float, m: float) -> TunnelBounds:
    if not (eps > 0 and delta > 0 and k > 0 and m > 0):
        raise PreconditionError("tunnel bound parameters must be positive")
    alpha = 4.0 * math.sqrt(2.0 * eps / delta)
    extent = k * m * eps
    k_eps = max(extent, alpha)
    return TunnelBounds(
        eps=float(eps), delta=float(delta), k=float(k), m=float(m),
        alpha=alpha, k_eps=k_eps, m_eps=alpha + k_eps, extent_bound=extent,
    )


# --------------------------------------------------------- projection estimate

class FourierCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def fourier_projection_check(d_v, delta: float, eps: float,
                             xi: np.ndarray) -> FourierCheck:
    """Check  |xi - p xi| <= 4*sqrt(2*eps/delta) * (|xi| + |(1/eps) d_v xi|)
    for the kernel projection p of d_v.  Requires the gap (-delta, delta)
    around 0 to be clean."""
    if not (delta > 0 and eps > 0):
        raise PreconditionError("delta and eps must be positive")
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (operator_dim(d_v),):
        raise PreconditionError("vector length does not match d_v")
    v, kept = _kernel_eigenvectors(d_v, gap=delta)
    pxi = np.empty_like(xi)
    for ix, k in zip(v.index_blocks, kept):
        pxi[ix] = k @ (k.conj().T @ xi[ix])
    lhs = float(np.linalg.norm(xi - pxi))
    rhs = 4.0 * math.sqrt(2.0 * eps / delta) * float(
        np.linalg.norm(xi) + np.linalg.norm(_apply(d_v, xi)) / eps)
    return FourierCheck(lhs, rhs, lhs <= rhs + 1e-10)


# ----------------------------------------------------- direction comparison

class ComparisonCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def comparison_check(cliff, components: Sequence, a, F: Iterable[int],
                     validate: bool = True) -> ComparisonCheck:
    """Check  |[sum_{j in F} D_j g_j, a]| <= sqrt(|F|) * |[D, a]|  where
    D = sum over all j of D_j g_j and g_j are the Clifford generators.

    The inequality needs the g_j to commute with the algebra element and with
    every coefficient operator D_j; with validate=True both are verified
    (the D_j themselves need not commute with a).
    """
    subset = sorted(set(F))
    gammas = [np.asarray(g, dtype=complex) for g in cliff.gammas]
    if not subset:
        raise PreconditionError("subset F is empty")
    if len(components) > len(gammas):
        raise PreconditionError("more components than Clifford generators")
    if any(j < 0 or j >= len(components) for j in subset):
        raise PreconditionError("subset index out of range")

    amat = _dense(a.matrix if isinstance(a, AlgebraElement) else a)
    comps = [_dense(c) for c in components]
    dim = amat.shape[0]
    if any(c.shape[0] != dim for c in comps):
        raise PreconditionError("component dimension mismatch")

    if validate:
        scale = 1.0 + max(op_norm(amat), max(op_norm(c) for c in comps))
        for g in gammas[:len(comps)]:
            if g.shape[0] != dim:
                raise PreconditionError("gamma dimension mismatch")
            if op_norm(commutator(g, amat)) > 1e-10 * scale:
                raise PreconditionError("gamma does not commute with the element")
            for c in comps:
                if op_norm(commutator(g, c)) > 1e-10 * scale:
                    raise PreconditionError("gamma does not commute with a component")

    total = sum(c @ g for c, g in zip(comps, gammas))
    partial = sum(comps[j] @ gammas[j] for j in subset)
    lhs = op_norm(commutator(partial, amat))
    rhs = math.sqrt(len(subset)) * op_norm(commutator(total, amat))
    return ComparisonCheck(lhs, rhs, lhs <= rhs + 1e-10)


# ------------------------------------------------- expectation Lipschitz check

@dataclass(frozen=True)
class ExpectationReport:
    """Margins for the three conditional-expectation bounds on one element:
    (i) |a - E(a)| <= c_mvt * |[d_v, a]|, (ii) |[d_h, E(a)]| <= |[d_h, a]|,
    (iii) compressing [d_h, E(a)] to the vertical kernel preserves the norm."""

    deviation: float          # |a - E(a)|
    vertical_lip: float       # |[d_v, a]|
    mvt_constant: float       # group_dim * group_diameter (or quantum diameter)
    deviation_margin: float   # deviation - mvt_constant * vertical_lip
    horizontal_lip: float     # |[d_h, a]|
    expected_horizontal_lip: float   # |[d_h, E(a)]|
    horizontal_margin: float  # expected_horizontal_lip - horizontal_lip
    compressed_norm: float    # |p [d_h, E(a)] p|
    compression_defect: float  # |compressed_norm - expected_horizontal_lip|

    @property
    def passed(self) -> bool:
        return (self.deviation_margin <= 1e-9
                and self.horizontal_margin <= 1e-9
                and self.compression_defect <= 1e-9)


def expectation_lipschitz_check(dec, a: AlgebraElement) -> ExpectationReport:
    """Evaluate the three expectation bounds for one algebra element of a
    decomposed model.  Failures are reported in the margins, never raised."""
    return _expectation_report(dec, a)


def _expectation_report(dec, a: AlgebraElement, vertical: float = None,
                        h_a: float = None, ch=None) -> ExpectationReport:
    """Shared implementation; callers that already hold the horizontal
    commutator (ch) and the norms pass them in so the audit never recomputes
    a 2n^3 product.  E(a) == a coefficient-wise short-circuits the deviation
    and reuses ch for the compressed-norm comparison."""
    ea = dec.conditional_expectation(a)
    fixed = np.array_equal(ea.coefficients, a.coefficients)
    if fixed:
        deviation = 0.0
    else:
        deviation = op_norm(_sum(a.matrix, ea.matrix, -1.0))
    if vertical is None:
        vertical = op_norm(commutator(dec.d_v, a.matrix))
    if ch is None and (h_a is None or fixed):
        ch = commutator(dec.d_h, a.matrix)
    if h_a is None:
        h_a = op_norm(ch)
    cmvt = dec.group_dim * dec.group_diameter
    if fixed:
        ch_e, h_e = ch, h_a
    else:
        ch_e = commutator(dec.d_h, ea.matrix)
        h_e = op_norm(ch_e)
    compressed = op_norm(compress_to_indices(ch_e, dec.kernel_indices()))
    return ExpectationReport(
        deviation=deviation,
        vertical_lip=vertical,
        mvt_constant=cmvt,
        deviation_margin=deviation - cmvt * vertical,
        horizontal_lip=h_a,
        expected_horizontal_lip=h_e,
        horizontal_margin=h_e - h_a,
        compressed_norm=compressed,
        compression_defect=abs(compressed - h_e),
    )


# ------------------------------------------------------------ hypothesis audit

@dataclass(frozen=True)
class HypothesisVerdict:
    name: str
    passed: bool
    worst_margin: float
    witness: str


@dataclass(frozen=True)
class AuditReport:
    model_label: str
    eps_list: tuple
    samples: int
    seed: int
    verdicts: tuple  # of HypothesisVerdict, in hypothesis order 1..6

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing(self) -> list:
        return [v.name for v in self.verdicts if not v.passed]


def sample_self_adjoint(model: SpectralTripleModel, rng: np.random.Generator,
                        herm_basis: np.ndarray = None) -> AlgebraElement:
    """Random self-adjoint element: Gaussian coefficients over a real basis of
    the Hermitian part of the span."""
    hb = hermitian_coefficient_basis(model) if herm_basis is None else herm_basis
    if hb.shape[1] == 0:
        raise PreconditionError("algebra span has no self-adjoint part")
    x = rng.standard_normal(hb.shape[1])
    return model.element(hb @ x)


def _audit_sample_margins(dec, eps_list, rng, herm_basis, exact_vertical=False):
    """Worst margins for hypotheses (1), (2) and (6) on one random element.

    exact_vertical means every algebra basis element was shown to commute
    with d_v exactly, so by linearity [d_v, a] = 0 for every sampled a and
    the rescaled commutator equals the horizontal one at all eps."""
    a = sample_self_adjoint(dec.total, rng, herm_basis)
    ch = commutator(dec.d_h, a.matrix)
    h_norm = op_norm(ch)
    m1 = m2 = -math.inf
    if exact_vertical:
        v_norm = 0.0
        for eps in eps_list:
            m1 = max(m1, 0.0)
            m2 = max(m2, -dec.comparison_constant * eps * h_norm)
    else:
        cv = commutator(dec.d_v, a.matrix)
        v_norm = op_norm(cv)
        for eps in eps_list:
            e_norm = op_norm(_sum(ch, cv, eps))
            m1 = max(m1, h_norm - e_norm)
            m2 = max(m2, v_norm - dec.comparison_constant * eps * e_norm)
    rep = _expectation_report(dec, a, vertical=v_norm, h_a=h_norm, ch=ch)
    m6 = max(rep.deviation_margin, rep.horizontal_margin, rep.compression_defect)
    return m1, m2, m6


def hypothesis_audit(dec, eps_list: Sequence[float] = (1.0, 0.5, 0.25),
                     samples: int = 200,
                     seed: int = DEFAULT_AUDIT_SEED) -> AuditReport:
    """Audit the six structural hypotheses behind the collapse bounds on a
    decomposed model.

    (1) horizontal commutators are dominated by the rescaled Dirac;
    (2) vertical commutators obey the stored comparison constant;
    (3) the vertical Dirac commutes with the base algebra;
    (4) the kernel projection commutes with base elements and with d_h;
    (5) the compressed base triple is metric (seminorm kernel = scalars);
    (6) the conditional expectation satisfies its three Lipschitz bounds.

    Failures are content of the returned report, never exceptions.
    """
    if samples < 1:
        raise PreconditionError("sample count must be >= 1")
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list):
        raise PreconditionError("eps values must be positive")

    herm_basis = hermitian_coefficient_basis(dec.total)
    children = np.random.SeedSequence(seed).spawn(samples)

    # One pass over the basis: if every generator commutes with d_v exactly
    # (bitwise zero, as in the lattice block models), linearity settles the
    # vertical commutator of every sample and the per-sample cost drops to
    # the horizontal part.
    exact_vertical = all(
        op_norm(commutator(dec.d_v, b)) == 0.0
        for b in dec.total.algebra_basis)

    margins = [_audit_sample_margins(dec, eps_list, np.random.default_rng(child),
                                     herm_basis, exact_vertical)
               for child in children]

    worst1 = max(m[0] for m in margins)
    worst2 = max(m[1] for m in margins)
    worst6 = max(m[2] for m in margins)
    wit1 = f"sample {int(np.argmax([m[0] for m in margins]))}"
    wit2 = f"sample {int(np.argmax([m[1] for m in margins]))}"
    wit6 = f"sample {int(np.argmax([m[2] for m in margins]))}"

    # (3): vertical Dirac vs base algebra
    base_elements = dec.base_basis()
    worst3, wit3 = 0.0, "none"
    for i, b in enumerate(base_elements):
        n = op_norm(commutator(dec.d_v, b.matrix))
        if n > worst3:
            worst3, wit3 = n, f"base element {i}"

    # (4): projection vs base elements and vs d_h, computed entrywise so the
    # dense rank-|kernel| projector never materializes
    kernel_ix = dec.kernel_indices()
    mask = np.zeros(dec.total.hilbert_dim)
    mask[kernel_ix] = 1.0
    worst4, wit4 = 0.0, "none"
    for i, b in enumerate(base_elements):
        n = projection_commutator_norm(mask, b.matrix)
        if n > worst4:
            worst4, wit4 = n, f"[p, base element {i}]"
    n = projection_commutator_norm(mask, dec.d_h)
    if n > worst4:
        worst4, wit4 = n, "[p, d_h]"

    # (5): seminorm of the compressed base vanishes only on scalars
    nullity, gap5 = _compressed_metric_nullity(dec, kernel_ix)
    ok5 = nullity == 1

    verdicts = (
        HypothesisVerdict("hypothesis_1_horizontal_domination",
                          worst1 <= 1e-9, worst1, wit1),
        HypothesisVerdict("hypothesis_2_vertical_comparison",
                          worst2 <= 1e-9, worst2, wit2),
        HypothesisVerdict("hypothesis_3_vertical_commutes_with_base",
                          worst3 <= 1e-10, worst3, wit3),
        HypothesisVerdict("hypothesis_4_projection_compatibility",
                          worst4 <= 1e-10, worst4, wit4),
        HypothesisVerdict("hypothesis_5_base_metric",
                          ok5, float(nullity - 1),
                          f"seminorm kernel dimension {nullity}, spectral gap {gap5:.3e}"),
        HypothesisVerdict("hypothesis_6_expectation_bounds",
                          worst6 <= 1e-9, worst6, wit6),
    )
    return AuditReport(model_label=dec.total.label, eps_list=eps_list,
                       samples=samples, seed=seed, verdicts=verdicts)


def _compressed_metric_nullity(dec, kernel_ix: np.ndarray):
    """Dimension of the kernel of  b -> [p d_h p, p b p]  over the base span,
    together with the singular-value gap certifying it.  Metric means the
    kernel is exactly the scalars (dimension one)."""
    d_base = compress_to_indices(dec.d_h, kernel_ix)
    cols = []
    for b in dec.base_basis():
        bc = compress_to_indices(b.matrix, kernel_ix)
        cols.append(commutator(d_base, bc).ravel())
    lmap = np.stack(cols, axis=1)
    s = np.linalg.svd(lmap, compute_uv=False)
    scale = max(float(s[0]) if s.size else 0.0, 1.0)
    nullity = int(np.sum(s <= 1e-9 * scale)) + max(0, lmap.shape[1] - s.size)
    gap = float(s[-nullity - 1]) if nullity < s.size else 0.0
    return nullity, gap
