"""State-space metrics: transport distances, ascent certificates, diameters.

Three ways to a distance live here, with strictly separated trust levels.
Weighted-graph models with edge-pair Diracs reduce to optimal transport over
the shortest-path metric and are exact.  A brute-force oracle covers any
model whose gauge-reduced parameter space has at most four real dimensions.
Everything else gets projected-ascent lower bounds with feasible
certificates, never presented as exact.

The oracle scans directions of that space and polishes the best three by
Nelder-Mead, run step for step as scipy runs it but with every simplex in
lockstep: each phase scores all its new points in one stacked call.  A
vertex-oracle diameter scans once for all its vertex pairs, since only the
objective depends on the pair, and polishes every pair's starts in one
lockstep.

The ascent's seeded starts are independent once their start vectors are
drawn, so a large model runs them on ``core``'s thread pool, one start per
task, when BLAS is pinned to one thread (see ``core``); each start makes
the same LAPACK calls as on one core, and the results are combined in start
order, so every bit is kept.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import core
from .core import (
    DENSE_LIMIT,
    AlgebraElement,
    _NORMAL_DETECT_RTOL,
    PreconditionError,
    SpectralTripleModel,
    _adjoint_blocks,
    _dense,
    hermitian_coefficient_basis,
    lip_seminorm,
    op_norm,
)

STATE_TRACE_TOL = 1e-12
CERTIFICATE_SLACK = 1e-9

#: parameter cap for the brute-force oracle, after gauge reduction, and the
#: seed of its scan
ORACLE_MAX_PARAMS = 4
ORACLE_SEED = 7

#: seeded restarts of the projected ascent, its step size at t = 1, and its
#: iterations by default
ASCENT_STARTS = 4
ASCENT_STEP_SCALE = 0.5
ASCENT_ITERATIONS = 2000


def check_dense_limit(model: SpectralTripleModel) -> None:
    """The distance solvers work on dense states and dense commutators;
    refuse a model whose Hilbert dimension exceeds DENSE_LIMIT."""
    if model.hilbert_dim > DENSE_LIMIT:
        raise PreconditionError(
            f"Hilbert dimension {model.hilbert_dim} exceeds the dense limit "
            f"{DENSE_LIMIT} of the state-distance solvers")


# ------------------------------------------------------------------- states

@dataclass(frozen=True)
class StateFunctional:
    """A state on the model algebra, carried by a density matrix: a positive
    semidefinite Hermitian matrix of unit trace on the Hilbert space."""

    density: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=complex)
        # every comparison below is False on NaN, and inf turns to NaN there
        if not np.isfinite(rho).all():
            raise PreconditionError("density entries must be finite")
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


def pure_state(dim: int, index: int) -> StateFunctional:
    """Coordinate rank-one state e_i e_i*."""
    if not (0 <= index < dim):
        raise PreconditionError("state index out of range")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return StateFunctional(rho)


def vertex_state(model: SpectralTripleModel, vertex: int) -> StateFunctional:
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
    return StateFunctional(rho)


def random_pure_state(dim: int, rng: np.random.Generator) -> StateFunctional:
    """Haar-random rank-one density."""
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    return StateFunctional(np.outer(x, x.conj()))


# -------------------------------------------------------------- shared math

def _realify(mat: np.ndarray) -> np.ndarray:
    return np.concatenate([mat.real.ravel(), mat.imag.ravel()])


class _HermitianSpan:
    """Realized self-adjoint directions of the algebra span, with their
    Dirac commutators precomputed; shared ground for solver and oracle.
    ``stack[0, k]`` is element k and ``stack[1, k]`` its commutator;
    ``elements`` and ``commutators`` are the two halves."""

    def __init__(self, model: SpectralTripleModel):
        self.model = model
        self.coeff_basis = hermitian_coefficient_basis(model)
        self.n_params = self.coeff_basis.shape[1]
        dirac = _dense(model.dirac)
        elements = [_dense(model.element(self.coeff_basis[:, k]).matrix)
                    for k in range(self.n_params)]
        self.stack = np.stack([elements, [dirac @ m - m @ dirac for m in elements]])
        self.elements, self.commutators = self.stack
        # when every [D, b_k] is anti-Hermitian to the last bit, so is every
        # real combination summed entrywise, and op_norm's detector passes it
        self.exactly_anti = not np.any(self.commutators
                                       + _adjoint_blocks(self.commutators))

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


def _coupling_constraints(n: int) -> sparse.csc_array:
    """The equality rows of the transport LP over n x n couplings raveled
    row-major: n row sums, then the first n - 1 column sums (the last one is
    implied).  In CSC form, the form linprog hands HiGHS."""
    k = np.arange(n * n, dtype=np.int32)
    i, j = np.divmod(k, n)
    keep = j < n - 1
    rows = np.concatenate([i, n + j[keep]])
    cols = np.concatenate([k, k[keep]])
    return sparse.csc_array((np.ones(len(rows)), (rows, cols)),
                            shape=(2 * n - 1, n * n))


def _transport_distance(ground: np.ndarray, p: np.ndarray, q: np.ndarray):
    """W1 between vertex distributions: LP over couplings, then a
    1-Lipschitz potential recovered from the duals by c-transform."""
    n = ground.shape[0]
    if not np.all(np.isfinite(ground)):
        return math.inf, None
    res = linprog(ground.ravel(), A_eq=_coupling_constraints(n),
                  b_eq=np.concatenate([p, q[:n - 1]]),
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
                    psi: StateFunctional, iterations: int = ASCENT_ITERATIONS,
                    seed: int = 0) -> DistanceResult:
    """Distance between two states in the metric induced by the Dirac
    operator: the supremum of phi(a) - psi(a) over self-adjoint a with
    commutator norm at most one.

    Edge-pair graph models are solved exactly by optimal transport over the
    shortest-path metric.  Everything else runs seeded projected-subgradient
    ascent on the scale-invariant ratio and returns a certified lower bound;
    the certificate always satisfies the constraint, so the value is safe
    even when the ascent has not found the optimum.
    """
    if iterations < 1:
        raise PreconditionError("iteration count must be >= 1")
    check_dense_limit(model)
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

    return _ascent_distance(model, phi, psi, iterations, seed)


def _ascent_distance(model, phi, psi, iterations, seed):
    span = _HermitianSpan(model)
    delta = phi.density - psi.density
    g = span.objective_vector(delta)
    zero = model.element(np.zeros(len(model.algebra_basis), dtype=complex))
    if np.linalg.norm(g) <= 1e-14:
        return DistanceResult(0.0, zero, "ascent-lower-bound", True, 0)

    comm_stack = span.commutators
    scale_ref = max(op_norm(c) for c in span.commutators)
    n = comm_stack.shape[-1]
    # x.reshape(1, -1).dot(flat) is the product np.tensordot(x, comm_stack, 1)
    # forms, so cmat keeps every bit
    flat = comm_stack.reshape(len(comm_stack), -1)
    i_stack = 1j * comm_stack

    def ratio_and_grad(x):
        cmat = x.reshape(1, -1).dot(flat).reshape(n, n)
        vals, vecs = np.linalg.eigh(1j * cmat)  # commutator is anti-Hermitian
        top = int(np.argmax(np.abs(vals)))
        lam = vals[top]
        lip = abs(lam)
        # np.linalg.norm of a real vector is sqrt(x.dot(x)), rounded the same
        if lip <= 1e-13 * scale_ref * math.sqrt(x.dot(x)):
            return None                    # degenerate direction
        w = vecs[:, top]
        wc = w.conj()
        sign = math.copysign(1.0, lam)
        dlip = np.array([sign * float((wc @ ick @ w).real) for ick in i_stack])
        obj = float(g @ x)
        return obj / lip, (g - (obj / lip) * dlip) / lip

    per_start = max(1, iterations // ASCENT_STARTS)

    def run_start(x):
        """One start's ascent from x: (best ratio, its direction, best ratio
        at the three-quarter mark, None), or (.., .., .., t) when step t found
        a nonzero displacement at zero cost."""
        x = x / math.sqrt(x.dot(x))
        local_best, local_x = -math.inf, None
        quarter_mark = -math.inf
        for t in range(1, per_start + 1):
            out = ratio_and_grad(x)
            if out is None:
                if abs(float(g @ x)) > 1e-12:
                    return local_best, local_x, quarter_mark, t
                break
            value, grad = out
            if value > local_best:
                local_best, local_x = value, x.copy()
            if t == (3 * per_start) // 4:
                quarter_mark = local_best
            gn = math.sqrt(grad.dot(grad))
            if gn <= 1e-15:
                break
            x = x + (ASCENT_STEP_SCALE / math.sqrt(t)) * grad / gn
            x /= math.sqrt(x.dot(x))
        return local_best, local_x, quarter_mark, None

    # the starts differ only in their seeds: draw them all up front, in the
    # order one start after another would, then run them one per core when
    # their eigensolves outweigh the threads' contention for the interpreter
    rng = np.random.default_rng(seed)
    starts = [g] + [rng.standard_normal(len(g)) for _ in range(ASCENT_STARTS - 1)]
    if core._CORES > 1 and per_start * n ** 3 >= core._SPLIT_WORK:
        runs = core._on_cores(run_start, starts)
    else:
        runs = map(run_start, starts)
    best_value, best_x, converged = 0.0, None, False
    for local_best, local_x, quarter_mark, unbounded_at in runs:
        if unbounded_at is not None:
            # nonzero displacement at zero cost: distance unbounded
            return DistanceResult(math.inf, None, "ascent-lower-bound", True,
                                  unbounded_at)
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


#: bytes of n x n work matrices one oracle chunk may hold: per candidate,
#: two terms per span direction plus about eight working copies.  1 MiB
#: batches a few hundred candidates of a small model, enough to amortize
#: numpy's per-call cost, and keeps a c4 load's peak memory at the
#: one-candidate evaluator's
_ORACLE_CHUNK_BYTES = 1 << 20


def _commutator_norms(stack: np.ndarray, exactly_anti: bool) -> np.ndarray:
    """op_norm of each matrix of a stack, computed as op_norm computes it:
    0 for an all-zero matrix, one stacked eigvalsh(1j K) over the matrices
    op_norm's detector calls anti-Hermitian, op_norm itself for the rest.
    A nonzero matrix cannot pass both of the detector's tests, so its
    anti-Hermitian test alone picks the eigvalsh path; a stack known to be
    exactly anti-Hermitian passes that test whatever its scale."""
    live = stack.any(axis=(1, 2))
    solve = live
    if not exactly_anti:
        scale = np.maximum.reduce(np.abs(stack), axis=(1, 2))
        defect = np.maximum.reduce(np.abs(stack + _adjoint_blocks(stack)), axis=(1, 2))
        solve = live & (defect <= _NORMAL_DETECT_RTOL * scale)
    if solve.all():
        return np.maximum.reduce(np.abs(np.linalg.eigvalsh(1j * stack)), axis=1)
    norms = np.zeros(len(stack))
    if solve.any():
        ev = np.linalg.eigvalsh(1j * stack[solve])
        norms[solve] = np.maximum.reduce(np.abs(ev), axis=1)
    for i in np.flatnonzero(live & ~solve):
        norms[i] = op_norm(stack[i])
    return norms


def _chunks(span: _HermitianSpan, directions: np.ndarray, ys: np.ndarray,
            per_row_delta: bool = False):
    """The parameter rows ys in chunks of bounded memory: for each chunk, its
    slice of ys and, at each row's x = directions @ y, |x| and the seminorm
    of [D, a] next to acc, which stacks a = sum x_k b_k as acc[:, 0] and
    [D, a] as acc[:, 1].  A chunk that carries one delta per row holds one
    more n x n matrix per row."""
    n = span.stack.shape[-1]
    per_row = (2 * span.n_params + 8 + per_row_delta) * 16 * n * n
    step = max(1, _ORACLE_CHUNK_BYTES // per_row)
    for i in range(0, len(ys), step):
        xs = np.array([directions @ y for y in ys[i:i + step]])
        # np.linalg.norm of a real vector is sqrt(x.dot(x)), rounded the same
        x_norms = np.array([math.sqrt(x.dot(x)) for x in xs])
        # a = sum x_k b_k and [D, a] = sum x_k [D, b_k] side by side, summed
        # from zero in ascending k, so every entry rounds as commutator_of's
        terms = xs[:, None, :, None, None] * span.stack
        acc = np.zeros(terms.shape[:2] + terms.shape[3:], dtype=complex)
        for k in range(span.n_params):
            acc += terms[:, :, k]
        den = _commutator_norms(acc[:, 1], span.exactly_anti)
        yield slice(i, i + step), x_norms, acc, den


def _quotients(delta: np.ndarray, x_norms: np.ndarray, acc: np.ndarray,
               den: np.ndarray) -> np.ndarray:
    """trace(delta @ a) / seminorm for each row of a chunk, with +inf where
    the seminorm vanishes under a positive objective and 0 where both do."""
    num = (delta @ acc[:, 0]).trace(axis1=1, axis2=2).real
    degenerate = den <= 1e-14 * np.maximum(1.0, x_norms)
    out = np.divide(num, den, out=np.zeros_like(num), where=~degenerate)
    out[degenerate & (num > 1e-12)] = math.inf
    return out


def _ratios(span: _HermitianSpan, directions: np.ndarray, delta: np.ndarray,
            ys: np.ndarray) -> np.ndarray:
    """objective / seminorm of each parameter row y, at x = directions @ y;
    +inf where the seminorm vanishes under a positive objective, 0 where
    both do.  delta is one phi - psi for every row, or a stack of one per
    row; both broadcast through the same delta @ a."""
    per_row = delta.ndim == 3
    out = np.empty(len(ys))
    for rows, x_norms, acc, den in _chunks(span, directions, ys, per_row):
        out[rows] = _quotients(delta[rows] if per_row else delta, x_norms, acc, den)
    return out


def _scan_ratios(span: _HermitianSpan, directions: np.ndarray,
                 deltas: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """_ratios of every row against every phi - psi of deltas, shape
    (len(deltas), len(ys)): each row's element, commutator and seminorm are
    computed once, only the objective once per delta."""
    out = np.empty((len(deltas), len(ys)))
    for rows, x_norms, acc, den in _chunks(span, directions, ys):
        for p, delta in enumerate(deltas):
            out[p, rows] = _quotients(delta, x_norms, acc, den)
    return out


def _scan_directions(n_red: int, resolution: int, seed: int) -> np.ndarray:
    """The oracle's scan, one unit parameter row each: 4 * resolution
    equally spaced angles when n_red is 2, else resolution**2 seeded
    Gaussian draws."""
    rng = np.random.default_rng(seed)
    if n_red == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 4 * resolution, endpoint=False)
        return np.array([[math.cos(a), math.sin(a)] for a in angles])
    draws = rng.standard_normal((resolution * resolution, n_red))
    return np.array([d / math.sqrt(d.dot(d)) for d in draws])


#: Nelder-Mead as scipy.optimize.minimize(method="Nelder-Mead") runs it with
#: options {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000}: reflection,
#: expansion, contraction and shrink factors, initial simplex steps, stopping
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL, _NM_FATOL, _NM_MAXITER = 1e-10, 1e-12, 4000


def _nm_sort(sim: np.ndarray, fsim: np.ndarray):
    """Each simplex's vertices by ascending value.  np.argsort's default
    kind, as scipy's, need not keep ties in order; row by row along the last
    axis it orders each row as it orders that row alone."""
    ind = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)


def _nelder_mead(f, x0: np.ndarray):
    """Minimize from each row of x0 by Nelder-Mead, step for step as scipy
    does, with every simplex in lockstep: all live simplices reflect, then
    expand or contract, then shrink, and each phase scores its new points
    in one call f(owners, points), owners[i] naming the start of points[i].
    Returns each start's (fun, x, nfev) as scipy's result would carry them."""
    n_starts, n = x0.shape
    sim = np.empty((n_starts, n + 1, n))
    sim[:, 0] = x0
    for k in range(n):
        y = x0.copy()
        nonzero = y[:, k] != 0
        y[nonzero, k] = (1 + _NM_NONZDELT) * y[nonzero, k]
        y[~nonzero, k] = _NM_ZDELT
        sim[:, k + 1] = y
    live = np.arange(n_starts)
    fsim = f(np.repeat(live, n + 1), sim.reshape(-1, n)).reshape(n_starts, n + 1)
    nfev = np.full(n_starts, n + 1)
    # scipy sorts twice before its first step; an unstable sort may swap
    # ties the second time too
    sim, fsim = _nm_sort(*_nm_sort(sim, fsim))
    for _ in range(1, _NM_MAXITER):
        s, fs = sim[live], fsim[live]
        # -inf - -inf is NaN, which scipy's test reads as not converged
        with np.errstate(invalid="ignore"):
            done = ((np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= _NM_XATOL)
                    & (np.max(np.abs(fs[:, :1] - fs[:, 1:]), axis=1) <= _NM_FATOL))
        if done.any():
            live, s, fs = live[~done], s[~done], fs[~done]
            if not len(live):
                break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = f(live, xr)
        nfev[live] += 1
        expand = fxr < fs[:, 0]
        contract = ~expand & ~(fxr < fs[:, -2])
        outside = contract & (fxr < fs[:, -1])
        # expansion, outside or inside contraction: a second point each
        two = np.flatnonzero(expand | contract)
        xb, w = xbar[two], worst[two]
        second = np.where(
            expand[two, None], (1 + _NM_RHO * _NM_CHI) * xb - _NM_RHO * _NM_CHI * w,
            np.where(outside[two, None], (1 + _NM_PSI * _NM_RHO) * xb - _NM_PSI * _NM_RHO * w,
                     (1 - _NM_PSI) * xb + _NM_PSI * w))
        f2 = f(live[two], second)
        nfev[live[two]] += 1
        taken = np.where(expand[two], f2 < fxr[two],
                         np.where(outside[two], f2 <= fxr[two], f2 < fs[two, -1]))
        xr[two[taken]], fxr[two[taken]] = second[taken], f2[taken]
        shrink = np.zeros(len(live), dtype=bool)
        shrink[two[~taken & ~expand[two]]] = True
        s[~shrink, -1], fs[~shrink, -1] = xr[~shrink], fxr[~shrink]
        if shrink.any():
            sh = s[shrink]
            sh[:, 1:] = sh[:, :1] + _NM_SIGMA * (sh[:, 1:] - sh[:, :1])
            s[shrink] = sh
            fs[shrink, 1:] = f(np.repeat(live[shrink], n),
                               sh[:, 1:].reshape(-1, n)).reshape(-1, n)
            nfev[live[shrink]] += n
        sim[live], fsim[live] = _nm_sort(s, fs)
    return np.min(fsim, axis=1), sim[:, 0], nfev


def _oracles(span: _HermitianSpan, directions: np.ndarray, deltas: np.ndarray,
             resolution: int, seed: int) -> list:
    """The brute-force oracle for each phi - psi in deltas on one model.
    The scan directions are drawn once and each one's seminorm solved once
    for all deltas; then every delta's best three scan directions are
    polished by Nelder-Mead, all in one lockstep."""
    n_red = directions.shape[1]
    if n_red == 0:
        return [OracleResult(0.0, 0.0, 0) for _ in deltas]
    if n_red == 1:
        scores = _scan_ratios(span, directions, deltas, np.array([[1.0], [-1.0]]))
        return [OracleResult(v, 1e-12 if math.isfinite(v) else 0.0, 2)
                for v in map(max, scores.tolist())]

    cands = _scan_directions(n_red, resolution, seed)
    # Python's sort is stable under reverse=True: ties keep scan order
    tops = [sorted(range(len(cands)), key=row.__getitem__, reverse=True)[:3]
            for row in _scan_ratios(span, directions, deltas, cands).tolist()]
    owner = np.repeat(np.arange(len(deltas)), [len(t) for t in tops])

    def objective(starts, ys):
        delta = deltas[0] if len(deltas) == 1 else deltas[owner[starts]]
        return -_ratios(span, directions, delta, ys)

    fun, _, nfev = _nelder_mead(objective, cands[np.concatenate(tops)])
    results = []
    for p in range(len(deltas)):
        mine = owner == p
        polished = (-fun[mine]).tolist()
        count = len(cands) + int(nfev[mine].sum())
        value = max(polished)
        if math.isinf(value):
            results.append(OracleResult(math.inf, 0.0, count))
            continue
        accuracy = max(1e-8, value - min(polished)) if len(polished) > 1 else 1e-8
        results.append(OracleResult(float(value), float(accuracy), count))
    return results


def distance_bruteforce_oracle(model: SpectralTripleModel, phi: StateFunctional,
                               psi: StateFunctional,
                               seed: int = ORACLE_SEED) -> OracleResult:
    """Independent low-dimensional check of the state distance.

    Scans directions of the gauge-reduced self-adjoint span (identity
    removed; at most four real parameters) at resolution 48, evaluating the
    scale-invariant ratio objective/seminorm from first principles, then
    polishes the best three candidates with Nelder-Mead, run step for step as
    ``scipy.optimize.minimize(method="Nelder-Mead")`` runs it (xatol 1e-10,
    fatol 1e-12, 4000 iterations) but with the three simplices in lockstep.
    The reported accuracy is the scatter of the polished candidates plus
    solver tolerance; ``evaluations`` counts every ratio evaluated.
    """
    check_dense_limit(model)
    if phi.dim != model.hilbert_dim or psi.dim != model.hilbert_dim:
        raise PreconditionError("state dimension does not match the model")
    span = _HermitianSpan(model)
    directions = span.reduced_directions()
    n_red = directions.shape[1]
    if n_red > ORACLE_MAX_PARAMS:
        raise PreconditionError(
            f"dimension too large for brute force: {n_red} free parameters "
            f"after gauge fixing (cap {ORACLE_MAX_PARAMS})")
    return _oracles(span, directions, (phi.density - psi.density)[None],
                    48, seed)[0]


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
                     seed: int = 0) -> DiameterReport:
    """Diameter of the state space in the Dirac metric.

    Distances are convex in each state argument, so the diameter is attained
    at pure states.  A seminorm that vanishes off the scalars, as on each
    component's indicator of a disconnected graph, gives math.inf with
    method "degenerate".  Graph models enumerate vertex states: exact
    transport for edge-pair Diracs, else the oracle (scan resolution 32) or,
    beyond its parameter cap, the 400-step ascent.  Models without graph
    structure are sampled with `samples` pairs of Haar-random rank-one
    states drawn from `seed`, and the result is a lower bound.
    """
    check_dense_limit(model)
    span = _HermitianSpan(model)
    if span.n_params and _seminorm_nullity(span) > 1:
        return DiameterReport(math.inf, None, "degenerate", True)
    directions = span.reduced_directions()
    if directions.shape[1] == 0:
        return DiameterReport(0.0, None, "trivial", False)

    structure = model.structure
    if structure is not None and hasattr(structure, "vertex_slots"):
        n = structure.n_vertices
        if getattr(structure, "kind", None) == "edge_pair":
            # all finite: a disconnected graph returned "degenerate" above
            lengths = structure.path_lengths()
            i, j = np.unravel_index(np.argmax(lengths), lengths.shape)
            return DiameterReport(float(lengths[i, j]), (int(i), int(j)),
                                  "vertex-enumeration", False)
        use_oracle = directions.shape[1] <= ORACLE_MAX_PARAMS
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        states = [vertex_state(model, v) for v in range(n)]
        if use_oracle:
            deltas = np.array([states[i].density - states[j].density
                               for i, j in pairs])
            values = [r.value for r in _oracles(span, directions, deltas,
                                                32, ORACLE_SEED)]
        else:
            values = [connes_distance(model, states[i], states[j],
                                      iterations=400).value
                      for i, j in pairs]
        best, pair = 0.0, (0, 0)
        for d, ij in zip(values, pairs):
            if d > best:
                best, pair = d, ij
        method = "vertex-oracle" if use_oracle else "vertex-ascent"
        return DiameterReport(float(best), pair, method, False)

    if samples < 1:
        raise PreconditionError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    best, pair = 0.0, None
    for s in range(samples):
        a = random_pure_state(model.hilbert_dim, rng)
        b = random_pure_state(model.hilbert_dim, rng)
        d = connes_distance(model, a, b, iterations=400,
                            seed=seed + s).value
        if d > best:
            best, pair = d, (a, b)
    return DiameterReport(float(best), pair, "sampled-ascent", False)
