"""State-space metrics: transport distances, ascent certificates, diameters.

Three ways to a distance live here, with strictly separated trust levels.
Weighted-graph models with edge-pair Diracs reduce to optimal transport over
the shortest-path metric and are exact.  A brute-force oracle covers any
model whose gauge-reduced parameter space has at most four real dimensions.
Everything else gets projected-ascent lower bounds with feasible
certificates, never presented as exact.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, minimize

from .core import (
    AlgebraElement,
    PreconditionError,
    SpectralTripleModel,
    _dense,
    hermitian_coefficient_basis,
    lip_seminorm,
    op_norm,
)

STATE_TRACE_TOL = 1e-12
CERTIFICATE_SLACK = 1e-9

#: parameter cap for the brute-force oracle, after gauge reduction
ORACLE_MAX_PARAMS = 4


# ------------------------------------------------------------------- states

@dataclass(frozen=True)
class StateFunctional:
    """A state on the model algebra, carried by a density matrix: a positive
    semidefinite Hermitian matrix of unit trace on the Hilbert space."""

    density: np.ndarray
    label: str = ""

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise PreconditionError("density must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(rho))) if rho.size else 0.0)
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * scale:
            raise PreconditionError("density must be Hermitian")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise PreconditionError(f"density trace {tr!r} is not 1")
        if float(np.min(np.linalg.eigvalsh(rho))) < -1e-12:
            raise PreconditionError("density has a negative eigenvalue")
        rho.flags.writeable = False
        object.__setattr__(self, "density", rho)

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def expectation(self, a) -> complex:
        """trace(rho a); real whenever a is self-adjoint."""
        mat = _dense(a.matrix) if isinstance(a, AlgebraElement) else _dense(a)
        if mat.shape[0] != self.dim:
            raise PreconditionError("element dimension does not match state")
        return complex(np.trace(self.density @ mat))


def pure_state(dim: int, index: int, label: str = "") -> StateFunctional:
    """Coordinate rank-one state e_i e_i*."""
    if not (0 <= index < dim):
        raise PreconditionError("state index out of range")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return StateFunctional(rho, label or f"e{index}")


def vertex_state(model: SpectralTripleModel, vertex: int,
                 label: str = "") -> StateFunctional:
    """The pure state of a graph model sitting at one vertex.  On the
    edge-doubled Hilbert space a vertex occupies several slots; any convex
    weighting of them induces the same functional on the vertex algebra,
    so the uniform one is used."""
    structure = model.structure
    if structure is None or not hasattr(structure, "vertex_slots"):
        raise PreconditionError("model carries no graph structure")
    if not 0 <= vertex < len(structure.vertex_slots):
        raise PreconditionError(
            f"vertex {vertex} out of range for {len(structure.vertex_slots)} vertices")
    slots = structure.vertex_slots[vertex]
    rho = np.zeros((model.hilbert_dim,) * 2, dtype=complex)
    for s in slots:
        rho[s, s] = 1.0 / len(slots)
    return StateFunctional(rho, label or f"vertex{vertex}")


def random_pure_state(dim: int, rng: np.random.Generator,
                      label: str = "") -> StateFunctional:
    """Haar-random rank-one density."""
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    return StateFunctional(np.outer(x, x.conj()), label)


# -------------------------------------------------------------- shared math

def _realify(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


class _HermitianSpan:
    """Realized self-adjoint directions of the algebra span, with their
    Dirac commutators precomputed; shared ground for solver and oracle."""

    def __init__(self, model: SpectralTripleModel):
        self.model = model
        self.coeff_basis = hermitian_coefficient_basis(model)
        self.n_params = self.coeff_basis.shape[1]
        dirac = _dense(model.dirac)
        self.elements = []
        self.commutators = []
        for k in range(self.n_params):
            mat = _dense(model.element(self.coeff_basis[:, k]).matrix)
            self.elements.append(mat)
            self.commutators.append(dirac @ mat - mat @ dirac)

    def realize(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self.elements[0])
        for xi, m in zip(x, self.elements):
            out += xi * m
        return out

    def commutator_of(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self.commutators[0])
        for xi, c in zip(x, self.commutators):
            out += xi * c
        return out

    def element(self, x: np.ndarray) -> AlgebraElement:
        return self.model.element(self.coeff_basis @ x)

    def objective_vector(self, delta: np.ndarray) -> np.ndarray:
        return np.array([float(np.trace(delta @ m).real) for m in self.elements])

    def reduced_directions(self) -> np.ndarray:
        """Orthonormal real basis of the span modulo the identity line;
        columns are parameter vectors."""
        ident = np.asarray(self.model.identity_coefficients, dtype=complex)
        cols = [self.coeff_basis[:, k] for k in range(self.n_params)]
        iv = _realify(ident.reshape(1, -1))
        nrm2 = float(iv @ iv)
        reals = []
        for c in cols:
            cv = _realify(c.reshape(1, -1))
            if nrm2 > 0:
                cv = cv - (float(iv @ cv) / nrm2) * iv
            reals.append(cv)
        stack = np.stack(reals, axis=1)          # (2 n_basis, n_params)
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        keep = s > 1e-10 * (s[0] if s.size else 1.0)
        # rows of vt[keep] express reduced directions over the parameters
        return vt[keep].T                        # (n_params, n_reduced)


@dataclass(frozen=True)
class DistanceResult:
    """A distance value with its provenance.

    method "exact-shortest-path" means optimal transport over the graph
    metric (exact up to LP tolerance); "ascent-lower-bound" means the value
    is only certified from below by the accompanying feasible certificate.
    """

    value: float
    certificate: Optional[AlgebraElement]
    method: str
    converged: bool
    iterations: int = 0

    def as_pair(self) -> Tuple[float, Optional[AlgebraElement]]:
        return self.value, self.certificate


def _check_certificate(model: SpectralTripleModel, cert: AlgebraElement) -> None:
    lip = lip_seminorm(model, cert)
    if not lip <= 1.0 + CERTIFICATE_SLACK:
        raise AssertionError(f"certificate violates the seminorm bound: {lip!r}")


# ------------------------------------------------- exact transport distance

def _vertex_marginal(structure, rho: np.ndarray) -> np.ndarray:
    p = np.array([sum(float(rho[s, s].real) for s in slots)
                  for slots in structure.vertex_slots])
    if abs(p.sum() - 1.0) > 1e-9:
        raise PreconditionError(
            "state mass off the vertex subspace; not a state of the vertex algebra")
    return np.clip(p, 0.0, None)


def _transport_distance(ground: np.ndarray, p: np.ndarray, q: np.ndarray):
    """W1 between vertex distributions: LP over couplings, then a
    1-Lipschitz potential recovered from the duals by c-transform."""
    n = ground.shape[0]
    if not np.all(np.isfinite(ground)):
        return math.inf, None
    c = ground.ravel()
    rows = []
    rhs = []
    for i in range(n):
        r = np.zeros((n, n))
        r[i, :] = 1.0
        rows.append(r.ravel())
        rhs.append(p[i])
    for j in range(n - 1):       # last column constraint is redundant
        r = np.zeros((n, n))
        r[:, j] = 1.0
        rows.append(r.ravel())
        rhs.append(q[j])
    res = linprog(c, A_eq=np.stack(rows), b_eq=np.array(rhs),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise PreconditionError(f"transport solver failed: {res.message}")
    duals = np.asarray(res.eqlin.marginals)
    best = None
    for sign in (1.0, -1.0):
        v = np.zeros(n)
        v[:n - 1] = sign * duals[n:]
        f = np.min(ground - v[None, :], axis=1)
        certified = float(f @ (p - q))
        if best is None or certified > best[0]:
            best = (certified, f)
    certified, f = best
    if abs(certified - res.fun) > 1e-7 * max(1.0, abs(res.fun)):
        # duals unusable; the primal value stands but without a certificate
        return float(res.fun), None
    return certified, f


def connes_distance(model: SpectralTripleModel, phi: StateFunctional,
                    psi: StateFunctional, iterations: int = 2000,
                    seed: int = 0, starts: int = 4,
                    step_scale: float = 0.5) -> DistanceResult:
    """Distance between two states in the metric induced by the Dirac
    operator: the supremum of phi(a) - psi(a) over self-adjoint a with
    commutator norm at most one.

    Edge-pair graph models are solved exactly by optimal transport over the
    shortest-path metric.  Everything else runs seeded projected-subgradient
    ascent on the scale-invariant ratio and returns a certified lower bound;
    the certificate always satisfies the constraint, so the value is safe
    even when the ascent has not found the optimum.
    """
    if phi.dim != model.hilbert_dim or psi.dim != model.hilbert_dim:
        raise PreconditionError("state dimension does not match the model")

    structure = model.structure
    if structure is not None and getattr(structure, "kind", None) == "edge_pair":
        ground = structure.path_lengths()
        p = _vertex_marginal(structure, phi.density)
        q = _vertex_marginal(structure, psi.density)
        value, potential = _transport_distance(ground, p, q)
        cert = None
        if potential is not None:
            shift = potential - potential.mean()
            cert = model.element(shift.astype(complex))
            _check_certificate(model, cert)
        return DistanceResult(float(value), cert, "exact-shortest-path", True)

    return _ascent_distance(model, phi, psi, iterations, seed, starts, step_scale)


def _ascent_distance(model, phi, psi, iterations, seed, starts, step_scale):
    span = _HermitianSpan(model)
    delta = phi.density - psi.density
    g = span.objective_vector(delta)
    zero = model.element(np.zeros(len(model.algebra_basis), dtype=complex))
    if np.linalg.norm(g) <= 1e-14:
        return DistanceResult(0.0, zero, "ascent-lower-bound", True, 0)

    comm_stack = np.stack(span.commutators)
    scale_ref = max(op_norm(c) for c in span.commutators)

    def ratio_and_grad(x):
        cmat = np.tensordot(x, comm_stack, axes=1)
        h = 1j * cmat                      # commutator is anti-Hermitian
        vals, vecs = np.linalg.eigh(h)
        top = int(np.argmax(np.abs(vals)))
        lam = vals[top]
        lip = abs(lam)
        if lip <= 1e-13 * scale_ref * np.linalg.norm(x):
            return None                    # degenerate direction
        w = vecs[:, top]
        dlip = np.array([
            math.copysign(1.0, lam) * float((w.conj() @ (1j * ck) @ w).real)
            for ck in comm_stack])
        obj = float(g @ x)
        return obj / lip, (g - (obj / lip) * dlip) / lip

    rng = np.random.default_rng(seed)
    per_start = max(1, iterations // max(1, starts))
    best_value, best_x, converged = 0.0, None, False
    for s in range(starts):
        x = g.copy() if s == 0 else rng.standard_normal(len(g))
        x /= np.linalg.norm(x)
        local_best, local_x = -math.inf, None
        quarter_mark = -math.inf
        for t in range(1, per_start + 1):
            out = ratio_and_grad(x)
            if out is None:
                if abs(float(g @ x)) > 1e-12:
                    # nonzero displacement at zero cost: distance unbounded
                    return DistanceResult(math.inf, None,
                                          "ascent-lower-bound", True, t)
                break
            value, grad = out
            if value > local_best:
                local_best, local_x = value, x.copy()
            if t == (3 * per_start) // 4:
                quarter_mark = local_best
            gn = np.linalg.norm(grad)
            if gn <= 1e-15:
                break
            x = x + (step_scale / math.sqrt(t)) * grad / gn
            x /= np.linalg.norm(x)
        if local_x is not None and local_best > best_value:
            best_value, best_x = local_best, local_x
            converged = (local_best - quarter_mark) <= 1e-10
    if best_x is None:
        return DistanceResult(0.0, zero, "ascent-lower-bound", True, iterations)

    cmat = span.commutator_of(best_x)
    lip = op_norm(cmat)
    cert = span.element(best_x / lip)
    _check_certificate(model, cert)
    value = float(phi.expectation(cert).real - psi.expectation(cert).real)
    return DistanceResult(value, cert, "ascent-lower-bound", converged, iterations)


# ------------------------------------------------------- brute-force oracle

@dataclass(frozen=True)
class OracleResult:
    value: float
    accuracy: float
    evaluations: int


def distance_bruteforce_oracle(model: SpectralTripleModel, phi: StateFunctional,
                               psi: StateFunctional, resolution: int = 48,
                               seed: int = 7) -> OracleResult:
    """Independent low-dimensional check of the state distance.

    Scans directions of the gauge-reduced self-adjoint span (identity
    removed; at most four real parameters), evaluating the scale-invariant
    ratio objective/seminorm from first principles, then polishes the best
    candidates with a derivative-free local search.  The reported accuracy
    is the scatter of the polished top candidates plus solver tolerance.
    """
    if phi.dim != model.hilbert_dim or psi.dim != model.hilbert_dim:
        raise PreconditionError("state dimension does not match the model")
    if resolution < 1:
        raise PreconditionError("resolution must be positive")
    span = _HermitianSpan(model)
    directions = span.reduced_directions()
    n_red = directions.shape[1]
    if n_red > ORACLE_MAX_PARAMS:
        raise PreconditionError(
            f"dimension too large for brute force: {n_red} free parameters "
            f"after gauge fixing (cap {ORACLE_MAX_PARAMS})")
    delta = phi.density - psi.density
    if n_red == 0:
        return OracleResult(0.0, 0.0, 0)

    count = 0

    def ratio(y: np.ndarray) -> float:
        nonlocal count
        count += 1
        x = directions @ y
        a = span.realize(x)
        num = float(np.trace(delta @ a).real)
        den = op_norm(span.commutator_of(x))
        if den <= 1e-14 * max(1.0, float(np.linalg.norm(x))):
            return math.inf if num > 1e-12 else 0.0
        return num / den

    if n_red == 1:
        v = max(ratio(np.array([1.0])), ratio(np.array([-1.0])))
        return OracleResult(v, 1e-12 if math.isfinite(v) else 0.0, count)

    rng = np.random.default_rng(seed)
    if n_red == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 4 * resolution, endpoint=False)
        cands = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    else:
        draws = rng.standard_normal((resolution * resolution, n_red))
        cands = [d / np.linalg.norm(d) for d in draws]
    scored = sorted(cands, key=ratio, reverse=True)[:3]
    polished = []
    for y0 in scored:
        res = minimize(lambda y: -ratio(y), y0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        polished.append(-res.fun)
    value = max(polished)
    if math.isinf(value):
        return OracleResult(math.inf, 0.0, count)
    accuracy = max(1e-8, value - min(polished)) if len(polished) > 1 else 1e-8
    return OracleResult(float(value), float(accuracy), count)


# ----------------------------------------------------------- quantum diameter

@dataclass(frozen=True)
class DiameterReport:
    """Largest observed state distance, with how it was obtained.
    value is math.inf when the seminorm is degenerate off the scalars
    (the state space then has infinite extent)."""

    value: float
    pair: object
    method: str
    degenerate: bool = False


def _seminorm_nullity(span: _HermitianSpan) -> int:
    cols = [_realify(c) for c in span.commutators]
    stack = np.stack(cols, axis=1)
    s = np.linalg.svd(stack, compute_uv=False)
    top = s[0] if s.size and s[0] > 0 else 1.0
    return int(np.sum(s <= 1e-9 * top)) + max(0, stack.shape[1] - s.size)


def quantum_diameter(model: SpectralTripleModel, samples: int = 12,
                     seed: int = 0, iterations: int = 400,
                     resolution: int = 32) -> DiameterReport:
    """Diameter of the state space in the Dirac metric.

    Distances are convex in each state argument, so the diameter is attained
    at pure states.  Graph models enumerate vertex states (exact transport
    for edge-pair Diracs, oracle or ascent otherwise); models without graph
    structure are sampled with Haar-random rank-one states and the result is
    a lower bound.
    """
    span = _HermitianSpan(model)
    if span.n_params and _seminorm_nullity(span) > 1:
        return DiameterReport(math.inf, None, "degenerate", True)
    if span.reduced_directions().shape[1] == 0:
        return DiameterReport(0.0, None, "trivial", False)

    structure = model.structure
    if structure is not None and hasattr(structure, "vertex_slots"):
        n = structure.n_vertices
        if getattr(structure, "kind", None) == "edge_pair":
            lengths = structure.path_lengths()
            if not np.all(np.isfinite(lengths)):
                return DiameterReport(math.inf, None, "vertex-enumeration", True)
            i, j = np.unravel_index(np.argmax(lengths), lengths.shape)
            return DiameterReport(float(lengths[i, j]), (int(i), int(j)),
                                  "vertex-enumeration", False)
        use_oracle = span.reduced_directions().shape[1] <= ORACLE_MAX_PARAMS
        best, pair = 0.0, (0, 0)
        for i in range(n):
            for j in range(i + 1, n):
                si = vertex_state(model, i)
                sj = vertex_state(model, j)
                if use_oracle:
                    d = distance_bruteforce_oracle(
                        model, si, sj, resolution=resolution).value
                else:
                    d = connes_distance(model, si, sj,
                                        iterations=iterations).value
                if d > best:
                    best, pair = d, (i, j)
        method = "vertex-oracle" if use_oracle else "vertex-ascent"
        return DiameterReport(float(best), pair, method, False)

    rng = np.random.default_rng(seed)
    best, pair = 0.0, None
    for s in range(samples):
        a = random_pure_state(model.hilbert_dim, rng, f"sample{s}a")
        b = random_pure_state(model.hilbert_dim, rng, f"sample{s}b")
        d = connes_distance(model, a, b, iterations=iterations,
                            seed=seed + s).value
        if d > best:
            best, pair = d, (a, b)
    return DiameterReport(float(best), pair, "sampled-ascent", False)


# ------------------------------------------------ product distance inequality

@dataclass(frozen=True)
class ProductDistanceRow:
    lhs: float
    rhs_even: float
    rhs_vertical: float
    violation: float
    methods: Tuple[str, str, str]


@dataclass(frozen=True)
class ProductDistanceReport:
    rows: Tuple[ProductDistanceRow, ...]
    max_violation: float
    samples: int
    seed: int


def product_state_distance_check(even: SpectralTripleModel,
                                 vertical: SpectralTripleModel,
                                 samples: int = 5, seed: int = 0,
                                 iterations: int = 800) -> ProductDistanceReport:
    """Check that product-state distances on the graded product never exceed
    the sum of the factor distances.

    For product states the distance over the product algebra is controlled
    by the factors; this runs the solvers on sampled quadruples and reports
    the worst (lhs - rhs).  Factor distances use the oracle where its
    parameter budget allows, so the right-hand side is not itself a loose
    lower bound.
    """
    from .builders import build_product_triple
    s_mat = _dense(vertical.dirac)
    dec = build_product_triple(even, s_mat)
    product = dec.total
    svals, w = np.linalg.eigh(s_mat)       # product leg lives in this basis

    def factor_distance(model, a, b):
        span_dim = _HermitianSpan(model).reduced_directions().shape[1]
        if span_dim <= ORACLE_MAX_PARAMS:
            return distance_bruteforce_oracle(model, a, b).value, "oracle"
        r = connes_distance(model, a, b, iterations=4 * iterations)
        return r.value, r.method

    rng = np.random.default_rng(seed)
    rows = []
    for s in range(samples):
        phi = random_pure_state(even.hilbert_dim, rng)
        mu = random_pure_state(even.hilbert_dim, rng)
        if s == 0:
            psi = nu = random_pure_state(vertical.hilbert_dim, rng)
        else:
            psi = random_pure_state(vertical.hilbert_dim, rng)
            nu = random_pure_state(vertical.hilbert_dim, rng)
        rot_psi = w.conj().T @ psi.density @ w
        rot_nu = w.conj().T @ nu.density @ w
        lhs_phi = StateFunctional(np.kron(phi.density, rot_psi))
        lhs_mu = StateFunctional(np.kron(mu.density, rot_nu))
        lhs = connes_distance(product, lhs_phi, lhs_mu,
                              iterations=iterations, seed=seed + s)
        rhs_e, method_e = factor_distance(even, phi, mu)
        if psi is nu:
            rhs_v, method_v = 0.0, "identical"
        else:
            rhs_v, method_v = factor_distance(vertical, psi, nu)
        violation = lhs.value - (rhs_e + rhs_v)
        rows.append(ProductDistanceRow(
            lhs=lhs.value, rhs_even=rhs_e, rhs_vertical=rhs_v,
            violation=violation, methods=(lhs.method, method_e, method_v)))
    worst = max((r.violation for r in rows), default=0.0)
    return ProductDistanceReport(tuple(rows), max(0.0, worst), samples, seed)
