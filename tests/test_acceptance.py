"""Acceptance gate: twelve end-to-end criteria at their stated tolerances.

Each test wraps its checks in the `criterion` recorder so the run ends with
one pass/fail line per criterion.  Expected values are closed forms or
independently recomputed quantities, never copied from library output.
"""
from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from collapselab.builders import (
    CliffordSet,
    _mode_box,
    build_circle_bundle_blocks,
    build_cycle_adjacency_model,
    build_torus_triple,
    build_two_point_model,
    make_clifford,
)
from collapselab.collapse import (
    DEFAULT_EPS_GRID,
    kernel_projection,
    projector_rank,
    sweep,
    track_convergence_report,
    unitary_restriction_check,
)
from collapselab.core import (
    BlockDiagonalOperator,
    _raw,
    hermitian_coefficient_basis,
    op_norm,
)
from collapselab.estimates import (
    DEFAULT_AUDIT_SEED,
    bump_function,
    comparison_check,
    fourier_projection_check,
    hypothesis_audit,
    sample_self_adjoint,
    tunnel_bounds,
)
from collapselab.cli_io import load_model, main
from collapselab.qmetric import (
    connes_distance,
    distance_bruteforce_oracle,
    quantum_diameter,
    vertex_state,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

DECOMPOSED_FIXTURES = (
    "circle_bundle",
    "torus_g1f1",
    "torus4_flat",
    "torus4_twisted",
    "crossed_d1",
    "crossed_d2",
    "product_spin",
    "point_collapse_c4",
)

# Small enough for one projection-estimate call per sampled vector.
SMALL_FIXTURES = tuple(n for n in DECOMPOSED_FIXTURES
                       if n not in ("torus4_flat", "torus4_twisted"))


@pytest.fixture(scope="module")
def loaded():
    """Lazy shared cache of the shipped model files."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load_model(MODELS / f"{name}.json")
        return cache[name]

    return get


@pytest.fixture(scope="module")
def audits_1000(loaded):
    """Lazy shared cache of 1000-sample hypothesis audits."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = hypothesis_audit(
                loaded(name).decomposition, samples=1000,
                seed=DEFAULT_AUDIT_SEED)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def circle_sweep(loaded):
    return sweep(loaded("circle_bundle").decomposition)


def _dense_of(op) -> np.ndarray:
    r = _raw(op)
    return r.to_dense() if isinstance(r, BlockDiagonalOperator) else r


# ---------------------------------------------------------------- criteria


def test_criterion_01_block_family_law(criterion):
    with criterion(1, "circle-bundle block eigenvalues follow the closed law"):
        t0 = time.perf_counter()
        family = build_circle_bundle_blocks(
            [1.0, -1.0, 2.0, -2.0, 3.0, -3.0], 1.0, -3, 3)
        ell = family.fiber_length_scale
        for eps in DEFAULT_EPS_GRID:
            for j, k in family.pairs():
                mu = family.base_eigenvalues[j]
                r = math.hypot(mu, k / (ell * eps))
                got = np.linalg.eigvalsh(family.block_at(j, k, eps))
                expected = np.array([-r, r])
                err = np.max(np.abs(got - expected)
                             / np.maximum(np.abs(expected), 1.0))
                assert err <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_zero_sector_tracks(criterion, circle_sweep):
    with criterion(2, "momentum-zero tracks stay constant at the base values"):
        sw = circle_sweep
        assert sw.tracking_method == "sector-exact"
        finals = []
        n_zero = 0
        for (label, j), values in sw.sector_tracks.items():
            if label != (0,):
                continue
            n_zero += 1
            assert np.max(values) - np.min(values) <= 1e-10
            finals.append(values[-1])
        assert n_zero == 12
        expected = np.sort(np.array(
            [s * mu for mu in (1.0, 2.0, 3.0) for s in (-1.0, 1.0)] * 2))
        assert np.max(np.abs(np.sort(finals) - expected)) <= 1e-10
        assert np.max(np.abs(np.sort(finals)
                             - np.sort(sw.base_spectrum))) <= 1e-10


def test_criterion_03_rescaled_momentum_limit(criterion, circle_sweep):
    with criterion(3, "rescaled nonzero-momentum eigenvalues reach their "
                      "labels"):
        sw = circle_sweep
        eps_final = sw.eps_grid[-1]
        assert eps_final == 2.0 ** -12
        ell = 1.0
        n_checked = 0
        for (label, _j), values in sw.sector_tracks.items():
            (k,) = label
            if k == 0:
                continue
            n_checked += 1
            assert abs(ell * eps_final * abs(values[-1]) - abs(k)) <= 1e-6
        assert n_checked == 72


def test_criterion_04_four_torus_collapse(criterion):
    with criterion(4, "4-torus spectra collapse onto the base inside the "
                      "window"):
        t0 = time.perf_counter()
        flat = load_model(MODELS / "torus4_flat.json")
        twisted = load_model(MODELS / "torus4_twisted.json")
        sweeps = []
        for lm in (flat, twisted):
            sw = sweep(lm.decomposition, window=2.0)
            sweeps.append(sw)
            assert all(h <= 1e-9 for h in sw.hausdorff_curve)
            rep = track_convergence_report(sw)
            assert rep.all_converged
            assert rep.nonzero_sectors
            assert all(s.left_window for s in rep.nonzero_sectors)
            # Escape threshold recomputed from the sweep's own constants:
            # gap/eps - |d_h| > window  once  eps < gap/(window + |d_h|).
            threshold = sw.vertical_gap / (2.0 + sw.horizontal_norm)
            small = np.array([e < threshold for e in sw.eps_grid])
            assert small.any()
            for (label, _j), values in sw.sector_tracks.items():
                if all(x == 0 for x in label):
                    continue
                assert np.min(np.abs(values[small])) > 2.0
        diff = np.max(np.abs(sweeps[0].spectra - sweeps[1].spectra))
        assert diff <= 1e-9
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_point_collapse(criterion, loaded, audits_1000):
    with criterion(5, "point collapse keeps exactly the kernel inside the "
                      "unit window"):
        dec = loaded("point_collapse_c4").decomposition
        assert projector_rank(kernel_projection(dec.d_v)) == 2
        for eps in DEFAULT_EPS_GRID:
            vals = np.linalg.eigvalsh(_dense_of(dec.dirac_at(eps)))
            inside = vals[np.abs(vals) <= 1.0]
            assert inside.shape[0] == 2
            assert np.max(np.abs(inside)) <= 1e-10 * max(1.0, 1.0 / eps)
        assert audits_1000("point_collapse_c4").all_passed
        diam = quantum_diameter(build_cycle_adjacency_model(4, 1.0))
        assert math.isfinite(diam.value)
        assert abs(dec.group_diameter - diam.value) <= 1e-12
        assert abs(diam.value - 1.0) <= 1e-8


def test_criterion_06_hypothesis_audits(criterion, loaded, audits_1000):
    with criterion(6, "shipped models pass the six-hypothesis audit; the "
                      "adversarial model fails only the third"):
        for name in DECOMPOSED_FIXTURES:
            rep = audits_1000(name)
            assert rep.samples == 1000
            assert rep.all_passed, (name, rep.failing())
        adv = hypothesis_audit(
            loaded("crossed_adversarial").decomposition,
            samples=1000, seed=DEFAULT_AUDIT_SEED)
        assert not adv.all_passed
        assert adv.failing() == ["hypothesis_3_vertical_commutes_with_base"]


def _kernel_block_bases(d_v, delta):
    """Per-block kernel data of a block-diagonal vertical operator, with the
    same tolerance contract as the public projection check."""
    r = _raw(d_v)
    assert isinstance(r, BlockDiagonalOperator)
    tol = 1e-9 * max(1.0, op_norm(r))
    assert tol < delta
    out = []
    full = r.full_blocks()
    for b in range(r.n_blocks):
        vals, vecs = np.linalg.eigh(full[b])
        assert not np.any((np.abs(vals) >= tol) & (np.abs(vals) < delta))
        out.append((r.index_blocks[b], full[b], vecs[:, np.abs(vals) < tol]))
    return out


def _bulk_fourier_margins(bases, delta, eps_arr, xi):
    """lhs/rhs of the projection estimate for a matrix of column vectors."""
    pxi = np.empty_like(xi)
    dxi = np.empty_like(xi)
    for ix, block, basis in bases:
        seg = xi[ix]
        pxi[ix] = basis @ (basis.conj().T @ seg)
        dxi[ix] = block @ seg
    lhs = np.linalg.norm(xi - pxi, axis=0)
    rhs = 4.0 * np.sqrt(2.0 * eps_arr / delta) * (
        np.linalg.norm(xi, axis=0) + np.linalg.norm(dxi, axis=0) / eps_arr)
    return lhs, rhs


def test_criterion_07_projection_estimate(criterion, loaded):
    with criterion(7, "kernel-projection estimate holds on 1000 vectors per "
                      "model, derivative norm matches quadrature"):
        for m, name in enumerate(SMALL_FIXTURES):
            dec = loaded(name).decomposition
            delta = dec.vertical_gap
            dim = dec.total.hilbert_dim
            rng = np.random.default_rng([0xF0, m])
            for _ in range(1000):
                xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                eps = delta * 2.0 ** rng.uniform(-12.0, 0.0)
                chk = fourier_projection_check(dec.d_v, delta, eps, xi)
                assert chk.passed
                assert chk.lhs <= chk.rhs

        # The large model is checked in bulk (one eigendecomposition per
        # block), then cross-validated against the public check on a few
        # of the very same vectors.
        dec = loaded("torus4_flat").decomposition
        delta = dec.vertical_gap
        dim = dec.total.hilbert_dim
        bases = _kernel_block_bases(dec.d_v, delta)
        rng = np.random.default_rng([0xF0, 99])
        first_batch = None
        remaining = 1000
        while remaining:
            n = min(125, remaining)
            remaining -= n
            xi = rng.standard_normal((dim, n)) + \
                1j * rng.standard_normal((dim, n))
            eps_arr = delta * 2.0 ** rng.uniform(-12.0, 0.0, size=n)
            lhs, rhs = _bulk_fourier_margins(bases, delta, eps_arr, xi)
            assert np.all(lhs <= rhs)
            if first_batch is None:
                first_batch = (xi, eps_arr, lhs, rhs)
        xi, eps_arr, lhs, rhs = first_batch
        for i in range(5):
            chk = fourier_projection_check(dec.d_v, delta, eps_arr[i],
                                           xi[:, i])
            assert abs(chk.lhs - lhs[i]) <= 1e-9 * (1.0 + lhs[i])
            assert abs(chk.rhs - rhs[i]) <= 1e-9 * (1.0 + rhs[i])

        for delta, eps in ((1.0, 0.04), (2.0, 0.5), (0.7, 0.3)):
            b = bump_function(delta, eps)
            assert b.l2_deriv_norm == (math.pi / 2.0) * math.sqrt(eps / delta)
            assert abs(b.l2_deriv_norm_quadrature() - b.l2_deriv_norm) <= 1e-8


def test_criterion_08_direction_comparison(criterion, loaded):
    with criterion(8, "partial-direction commutators obey the sqrt(|F|) "
                      "comparison on every subset"):
        cases = (
            (loaded("torus_g1f1").decomposition, 1, 1, 3),
            (build_torus_triple(2, 1, np.zeros((3, 3)), 1), 2, 1, 1),
            (build_torus_triple(1, 2, np.zeros((3, 3)), 1), 1, 2, 1),
        )
        for c, (dec, g_base, g_fiber, cutoff) in enumerate(cases):
            d = g_base + g_fiber
            cliff = make_clifford(d - 1)
            spin = cliff.spin_dim
            fiber_modes = _mode_box(cutoff, g_fiber)
            base_modes = _mode_box(cutoff, g_base)
            modes = np.concatenate(
                [np.tile(base_modes, (len(fiber_modes), 1)),
                 np.repeat(fiber_modes, len(base_modes), axis=0)], axis=1)
            n_lat = len(modes)
            eye_spin = np.eye(spin, dtype=complex)
            eye_lat = np.eye(n_lat, dtype=complex)
            # Default weights 1/(2*pi): coefficient operators are the bare
            # mode coordinates.
            comps = [np.kron(np.diag(modes[:, j].astype(complex)), eye_spin)
                     for j in range(d)]
            lifted = tuple(np.kron(eye_lat, g) for g in cliff.gammas)
            big = CliffordSet(count=cliff.count, spin_dim=n_lat * spin,
                              gammas=lifted)
            recon = sum(cmp @ g for cmp, g in zip(comps, lifted))
            assert np.max(np.abs(recon - _dense_of(dec.total.dirac))) <= 1e-12

            herm = hermitian_coefficient_basis(dec.total)
            subsets = [s for r in range(1, d + 1)
                       for s in itertools.combinations(range(d), r)]
            rng = np.random.default_rng([0xC8, c])
            for i in range(1000):
                a = sample_self_adjoint(dec.total, rng, herm)
                for subset in subsets:
                    chk = comparison_check(big, comps, a, subset,
                                           validate=(i == 0))
                    assert chk.passed
                    assert chk.lhs <= chk.rhs + 1e-10


def test_criterion_09_restricted_evolution(criterion, loaded):
    with criterion(9, "restricted unitary evolution matches the compressed "
                      "generator on the kernel"):
        for m, name in enumerate(DECOMPOSED_FIXTURES):
            dec = loaded(name).decomposition
            rng = np.random.default_rng([0xA9, m])
            for _ in range(100):
                t = rng.uniform(0.1, 3.0)
                eps = 2.0 ** rng.uniform(-8.0, 0.0)
                assert unitary_restriction_check(dec, eps, t) <= 1e-8


def test_criterion_10_distance_oracles(criterion, loaded):
    with criterion(10, "state distances agree with the brute-force oracle "
                       "and the closed forms"):
        for kappa in (0.5, 1.0, 2.0):
            model = build_two_point_model(kappa)
            phi = vertex_state(model, 0)
            psi = vertex_state(model, 1)
            res = connes_distance(model, phi, psi)
            assert res.method == "exact-shortest-path"
            assert abs(res.value - 1.0 / kappa) <= 1e-10
            orc = distance_bruteforce_oracle(model, phi, psi)
            assert abs(res.value - orc.value) <= 1e-6 + orc.accuracy

        path = loaded("path3").model
        expected = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0}
        for (i, j), want in expected.items():
            phi = vertex_state(path, i)
            psi = vertex_state(path, j)
            res = connes_distance(path, phi, psi)
            assert abs(res.value - want) <= 1e-10
            orc = distance_bruteforce_oracle(path, phi, psi)
            assert abs(res.value - orc.value) <= 1e-6 + orc.accuracy


def test_criterion_11_bound_curves(criterion):
    with criterion(11, "collapse bound curves shrink along the grid with "
                       "exact closed forms"):
        rows = [tunnel_bounds(eps, 1.0, 1.0, 1.0) for eps in DEFAULT_EPS_GRID]
        curve = [r.m_eps for r in rows]
        assert all(b < a for a, b in zip(curve, curve[1:]))
        assert curve[-1] < curve[0] / 10.0
        for eps, row in zip(DEFAULT_EPS_GRID, rows):
            alpha = 4.0 * math.sqrt(2.0 * eps / 1.0)
            extent = 1.0 * 1.0 * eps
            k_eps = max(extent, alpha)
            assert row.alpha == alpha
            assert row.extent_bound == extent
            assert row.k_eps == k_eps
            assert row.m_eps == alpha + k_eps


def test_criterion_12_deterministic_artifacts(criterion, tmp_path, capsys):
    with criterion(12, "sweep and audit artifacts are byte-identical per "
                       "seed"):
        model = str(MODELS / "torus_g1f1.json")
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"sweep{run}.csv"
            rc = main(["sweep", "--model", model, "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            summary = out.with_suffix(".summary.json")
            outputs.append((out.read_bytes(), summary.read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

        model = str(MODELS / "crossed_d1.json")
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"audit{run}.json"
            rc = main(["audit", "--model", model, "--samples", "200",
                       "--out", str(out)])
            assert rc == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
