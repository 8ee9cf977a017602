"""The three benchmark workloads: model set-up, seeded job streams, job
execution and the checks of every job against the recorded reference.

A job is one unit of user work (a sweep, an audit, a batch of distances).
Each job returns records keyed by reference keys, which ``check_job``
compares with ``reference/<workload>.json``, and deferred checks of its own
rules (certificates, byte identity, exit codes), which run after the job's
timed region.

Job parameters come from finite menus so that every job the stream can
produce has a recorded reference.  The seed only chooses from the menus and
shuffles each block; the mix of job kinds and sizes per block is fixed, so
throughput does not depend on the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import collapselab.builders as builders
import collapselab.cli_io as cli_io
import collapselab.collapse as collapse
import collapselab.estimates as estimates
import collapselab.qmetric as qmetric

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("lattice-blocks", "dense-audit", "state-distances")


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}{list(self.params)}"


class Context:
    """Models built at set-up, plus per-run state shared by the jobs."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.loaded = {}
        self.models = {}
        self.artifact_digests = {}
        self.comparison = None


# ------------------------------------------------------------------- menus

LATTICE_FIXTURES = ("torus4_flat", "torus4_twisted")
SWEEP_EPS = tuple(2.0 ** -j for j in range(13))       # the CLI default grid
SWEEP_POINTS = 2
RESTRICT_EPS = tuple(2.0 ** -j for j in range(9))     # criterion 9 range
RESTRICT_T = tuple(0.1 + 0.4 * k for k in range(8))   # 0.1 .. 2.9
RESTRICT_PAIRS = 2
LATTICE_AUDIT_SEEDS = range(16)
LATTICE_AUDIT_SAMPLES = (12,)

#: sample counts per dense fixture, chosen so an audit job costs ~0.1 s on
#: a 2-core box (point_collapse_c4 pays its quantum diameter at load instead)
DENSE_AUDIT_SAMPLES = {
    "torus_g1f1": (28, 31),
    "crossed_d1": (220, 260),
    "crossed_d2": (44, 50),
    "crossed_adversarial": (280, 310),
    "circle_bundle": (540, 590),
    "product_spin": (850, 950),
    "point_collapse_c4": (20, 40),
}
#: crossed_adversarial carries a planted vertical defect: its audit must fail
DENSE_EXPECTED_EXIT = {name: 0 for name in DENSE_AUDIT_SAMPLES}
DENSE_EXPECTED_EXIT["crossed_adversarial"] = cli_io.EXIT_AUDIT
DENSE_AUDIT_SEEDS = range(16)
COMPARISON_SEEDS = range(16)
COMPARISON_SAMPLES = 20

ASCENT_SEEDS = {"crossed_d1": range(16), "crossed_d2": range(8),
                "torus_g1f1": range(8)}
GRAPH_KINDS = ("path", "cycle")
#: vertex pairs per transport job, so each job costs roughly 0.1 s whatever
#: the graph size
GRAPH_PAIRS = {21: 40, 41: 20, 61: 10}
GRAPH_WEIGHT_SEEDS = range(2)
#: every graph model in turn, so all of them (and their cached basis
#: stacks) are in use after a few blocks, whatever the seed
GRAPH_ROTATION = tuple(itertools.product(GRAPH_KINDS, GRAPH_PAIRS, GRAPH_WEIGHT_SEEDS))
GRAPH_PAIR_SEEDS = range(4)
C4_PAIRS = tuple(itertools.combinations(range(4), 2))
HEAVY_ASCENTS = ("crossed_d2", "torus_g1f1")

# Float tolerances (atol, rtol) per job kind for comparisons with the
# reference; strings, booleans and integers must match exactly.
TOLERANCES = {
    "sweep": (1e-9, 1e-10),
    "restriction": (1e-9, 0.0),
    "lattice_audit": (1e-9, 1e-9),
    "cli_audit": (1e-9, 1e-9),
    "comparison": (1e-10, 1e-9),
    "ascent": (1e-10, 1e-7),
    "transport": (1e-9, 1e-9),
    "c4_oracle": (1e-6, 0.0),
    "small_oracles": (1e-6, 0.0),
    "diameter": (1e-6, 0.0),
}
RESTRICTION_LIMIT = 1e-8          # criterion 9 contract
SPECTRUM_SAMPLES = 97             # sorted-spectrum positions kept per eps


# ------------------------------------------------------------------ set-up

def _load(ctx: Context, name: str):
    ctx.loaded[name] = cli_io.load_model(str(MODELS / f"{name}.json"))
    return ctx.loaded[name]


def graph_weights(kind: str, n: int, wseed: int) -> list:
    count = n - 1 if kind == "path" else n
    rng = np.random.default_rng([GRAPH_KINDS.index(kind), n, wseed])
    return [float(w) for w in rng.uniform(0.5, 2.0, count)]


def _comparison_setup(dec):
    """Clifford lift and coordinate components of torus_g1f1 (g_base=1,
    g_fiber=1, cutoff=3), built as acceptance criterion 8 builds them."""
    d, cutoff = 2, 3
    cliff = builders.make_clifford(d - 1)
    spin = cliff.spin_dim
    box = np.array(list(itertools.product(range(-cutoff, cutoff + 1), repeat=1)))
    modes = np.concatenate([np.tile(box, (len(box), 1)),
                            np.repeat(box, len(box), axis=0)], axis=1)
    n_lat = len(modes)
    comps = [np.kron(np.diag(modes[:, j].astype(complex)), np.eye(spin, dtype=complex))
             for j in range(d)]
    lifted = tuple(np.kron(np.eye(n_lat, dtype=complex), g) for g in cliff.gammas)
    big = builders.CliffordSet(count=cliff.count, spin_dim=n_lat * spin, gammas=lifted)
    recon = sum(c @ g for c, g in zip(comps, lifted))
    if np.max(np.abs(recon - dec.total.dirac.to_dense())) > 1e-12:
        raise RuntimeError("comparison components do not rebuild the torus_g1f1 Dirac")
    herm = estimates.hermitian_coefficient_basis(dec.total)
    subsets = [s for r in range(1, d + 1) for s in itertools.combinations(range(d), r)]
    return big, comps, herm, subsets


def setup(workload: str, out_dir: Path) -> Context:
    """Build every model the workload uses (what a cold CLI call pays)."""
    ctx = Context(out_dir)
    if workload == "lattice-blocks":
        for name in LATTICE_FIXTURES:
            _load(ctx, name)
    elif workload == "dense-audit":
        for name in DENSE_AUDIT_SAMPLES:
            _load(ctx, name)
        ctx.comparison = _comparison_setup(ctx.loaded["torus_g1f1"].decomposition)
    elif workload == "state-distances":
        for name in ("crossed_d1", "crossed_d2", "torus_g1f1", "two_point", "path3"):
            ctx.models[name] = _load(ctx, name).model
        ctx.models["cycle4"] = builders.build_cycle_adjacency_model(4)
        for kind, n, wseed in itertools.product(GRAPH_KINDS, GRAPH_PAIRS,
                                                GRAPH_WEIGHT_SEEDS):
            build = (builders.build_path_graph_model if kind == "path"
                     else builders.build_cycle_graph_model)
            ctx.models[f"{kind}{n}/{wseed}"] = build(graph_weights(kind, n, wseed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


# ------------------------------------------------------------- job streams

def _lattice_block(rng: random.Random, b: int) -> list:
    jobs = []
    for k in range(31):
        fixture = LATTICE_FIXTURES[k % 2]
        pairs = tuple((rng.randrange(len(RESTRICT_EPS)), rng.randrange(len(RESTRICT_T)))
                      for _ in range(RESTRICT_PAIRS))
        jobs.append(Job("restriction", (fixture, pairs)))
    for k in range(8):
        fixture = LATTICE_FIXTURES[(b + k) % 2]
        picks = sorted(rng.sample(range(len(SWEEP_EPS)), SWEEP_POINTS))
        jobs.append(Job("sweep", (fixture, tuple(picks))))
    jobs.append(Job("lattice_audit", (LATTICE_FIXTURES[b % 2],
                                      rng.choice(LATTICE_AUDIT_SEEDS),
                                      rng.choice(LATTICE_AUDIT_SAMPLES))))
    return jobs


def _dense_block(rng: random.Random, b: int) -> list:
    jobs = []
    for name, sizes in DENSE_AUDIT_SAMPLES.items():
        repeat = 2 if name == "point_collapse_c4" else 1
        for _ in range(repeat):
            jobs.append(Job("cli_audit", (name, rng.choice(DENSE_AUDIT_SEEDS),
                                          rng.choice(sizes))))
    jobs.append(Job("comparison", (rng.choice(COMPARISON_SEEDS),)))
    return jobs


def _distance_block(rng: random.Random, b: int) -> list:
    jobs = [Job("ascent", ("crossed_d1", rng.choice(ASCENT_SEEDS["crossed_d1"])))
            for _ in range(8)]
    for k in range(4):
        kind, n, wseed = GRAPH_ROTATION[(4 * b + k) % len(GRAPH_ROTATION)]
        jobs.append(Job("transport", (kind, n, wseed, rng.choice(GRAPH_PAIR_SEEDS))))
    jobs += [Job("c4_oracle", (rng.randrange(len(C4_PAIRS)),)) for _ in range(2)]
    jobs += [Job("small_oracles", ()) for _ in range(2)]
    jobs += [Job("diameter", ("cycle4",)) for _ in range(3)]
    name = HEAVY_ASCENTS[b % len(HEAVY_ASCENTS)]
    jobs.append(Job("ascent", (name, rng.choice(ASCENT_SEEDS[name]))))
    return jobs


BLOCKS = {"lattice-blocks": _lattice_block, "dense-audit": _dense_block,
          "state-distances": _distance_block}


def job_blocks(workload: str, seed: int):
    """Endless stream of job blocks; block b is shuffled by the seed."""
    rng = random.Random(seed)
    for b in itertools.count():
        block = BLOCKS[workload](rng, b)
        rng.shuffle(block)
        yield block


# ------------------------------------------------------------ job bodies
#
# Each body returns (records, checks): records maps reference keys to plain
# JSON values; checks are callables run after timing, each returning a list
# of violated rules.

def _spectrum_summary(values) -> dict:
    v = np.sort(np.asarray(values, dtype=float))
    pos = np.unique(np.linspace(0, len(v) - 1, SPECTRUM_SAMPLES).round().astype(int))
    return {"size": int(len(v)), "sampled": [float(x) for x in v[pos]],
            "sum": float(v.sum()), "sum_sq": float(v @ v)}


def run_sweep(ctx, fixture, picks):
    dec = ctx.loaded[fixture].decomposition
    grid = tuple(SWEEP_EPS[i] for i in picks)
    res = collapse.sweep(dec, eps_grid=grid)
    records = {f"sweep/{fixture}": {
        "tracking_method": res.tracking_method, "window": float(res.window),
        "vertical_gap": float(res.vertical_gap),
        "horizontal_norm": float(res.horizontal_norm),
        "base_spectrum": _spectrum_summary(res.base_spectrum),
        "tracks": len(res.sector_tracks)}}
    for row, i in enumerate(picks):
        records[f"sweep/{fixture}/{i}"] = {
            "spectrum": _spectrum_summary(res.spectra[row]),
            "hausdorff": float(res.hausdorff_curve[row]),
            "bound": float(res.bound_curve[row])}
    return records, []


def _limit(value, limit, what):
    return lambda: [] if value <= limit else [f"{what} {value!r} above {limit}"]


def run_restriction(ctx, fixture, pairs):
    dec = ctx.loaded[fixture].decomposition
    records, checks = {}, []
    for ei, ti in pairs:
        defect = collapse.unitary_restriction_check(dec, RESTRICT_EPS[ei], RESTRICT_T[ti])
        records[f"restriction/{fixture}/{ei}/{ti}"] = {"defect": float(defect)}
        checks.append(_limit(defect, RESTRICTION_LIMIT, "restriction defect"))
    return records, checks


def _audit_record(report) -> dict:
    return {"all_passed": bool(report.all_passed), "samples": int(report.samples),
            "verdicts": [[v.name, bool(v.passed), float(v.worst_margin), v.witness]
                         for v in report.verdicts]}


def run_lattice_audit(ctx, fixture, seed, samples):
    dec = ctx.loaded[fixture].decomposition
    report = estimates.hypothesis_audit(dec, samples=samples, seed=seed)
    return {f"lattice_audit/{fixture}/{seed}/{samples}": _audit_record(report)}, []


def run_cli_audit(ctx, fixture, seed, samples):
    key = f"cli_audit/{fixture}/{seed}/{samples}"
    out = ctx.out_dir / f"{fixture}-{seed}-{samples}.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli_io.main(["audit", "--model", str(MODELS / f"{fixture}.json"),
                          "--seed", str(seed), "--samples", str(samples),
                          "--out", str(out)])
    artifact = out.read_bytes()
    out.unlink()

    def same_exit_and_bytes():
        errors = []
        if rc != DENSE_EXPECTED_EXIT[fixture]:
            errors.append(f"exit code {rc}, expected {DENSE_EXPECTED_EXIT[fixture]}: "
                          f"{stderr.getvalue().strip()}")
        digest = hashlib.sha256(artifact + b"\0" + stdout.getvalue().encode()).hexdigest()
        if ctx.artifact_digests.setdefault(key, digest) != digest:
            errors.append("artifact or stdout differs from an earlier run of the "
                          "same model and seed")
        return errors

    return ({key: {"exit_code": int(rc), "artifact": json.loads(artifact)}},
            [same_exit_and_bytes])


def run_comparison(ctx, seed):
    big, comps, herm, subsets = ctx.comparison
    model = ctx.loaded["torus_g1f1"].decomposition.total
    rng = np.random.default_rng([0xC8, seed])
    lhs, rhs, passed = [], [], []
    for i in range(COMPARISON_SAMPLES):
        a = estimates.sample_self_adjoint(model, rng, herm)
        for subset in subsets:
            chk = estimates.comparison_check(big, comps, a, subset, validate=(i == 0))
            lhs.append(float(chk.lhs))
            rhs.append(float(chk.rhs))
            passed.append(bool(chk.passed))

    def all_pass():
        return [f"comparison check {k} failed" for k, (ok, l, r)
                in enumerate(zip(passed, lhs, rhs)) if not (ok and l <= r + 1e-10)]

    return {f"comparison/{seed}": {"lhs": lhs, "rhs": rhs}}, [all_pass]


def _dense(op) -> np.ndarray:
    return op.to_dense() if hasattr(op, "to_dense") else np.asarray(op)


def certificate_check(model, phi, psi, res):
    return lambda: certificate_violations(model, phi, psi, res)


def certificate_violations(model, phi, psi, res) -> list:
    """Independent check of a distance certificate: its Lipschitz seminorm,
    taken as the largest singular value of [D, a], is at most
    1 + CERTIFICATE_SLACK, and phi(a) - psi(a) reproduces the value."""
    if res.certificate is None:
        return []
    a = _dense(res.certificate.matrix)
    d = _dense(model.dirac)
    lip = float(np.linalg.norm(d @ a - a @ d, 2))
    gap = float(np.trace((phi.density - psi.density) @ a).real)
    out = []
    if not lip <= 1.0 + qmetric.CERTIFICATE_SLACK:
        out.append(f"certificate seminorm {lip!r} exceeds 1 + slack")
    if not abs(gap - res.value) <= 1e-9 * max(1.0, abs(res.value)):
        out.append(f"certificate gap {gap!r} does not reproduce value {res.value!r}")
    return out


def _distance_record(res) -> dict:
    return {"value": float(res.value), "method": res.method,
            "converged": bool(res.converged), "iterations": int(res.iterations)}


def random_states(model, sseed: int):
    rng = np.random.default_rng([0x5D, sseed])
    return (qmetric.random_pure_state(model.hilbert_dim, rng),
            qmetric.random_pure_state(model.hilbert_dim, rng))


def run_ascent(ctx, fixture, sseed):
    model = ctx.models[fixture]
    phi, psi = random_states(model, sseed)
    res = qmetric.connes_distance(model, phi, psi, iterations=2000)
    return ({f"ascent/{fixture}/{sseed}": _distance_record(res)},
            [certificate_check(model, phi, psi, res)])


def graph_pairs(n: int, pseed: int) -> list:
    rng = np.random.default_rng([n, pseed])
    all_pairs = list(itertools.combinations(range(n), 2))
    idx = rng.choice(len(all_pairs), size=GRAPH_PAIRS[n], replace=False)
    return [all_pairs[int(i)] for i in idx]


def run_transport(ctx, kind, n, wseed, pseed):
    model = ctx.models[f"{kind}{n}/{wseed}"]
    values, methods, checks = [], [], []
    for i, j in graph_pairs(n, pseed):
        phi, psi = qmetric.vertex_state(model, i), qmetric.vertex_state(model, j)
        res = qmetric.connes_distance(model, phi, psi)
        values.append(float(res.value))
        methods.append(res.method)
        checks.append(certificate_check(model, phi, psi, res))
    return ({f"transport/{kind}{n}/{wseed}/{pseed}": {"values": values,
                                                      "methods": methods}},
            checks)


def run_c4_oracle(ctx, pair):
    model = ctx.models["cycle4"]
    i, j = C4_PAIRS[pair]
    res = qmetric.distance_bruteforce_oracle(model, qmetric.vertex_state(model, i),
                                             qmetric.vertex_state(model, j))
    return {f"c4_oracle/{pair}": {"value": float(res.value),
                                  "accuracy": float(res.accuracy)}}, []


def run_small_oracles(ctx):
    """Oracle against exact transport on every vertex pair of two_point and
    path3, plus both quantum diameters (acceptance criterion 10)."""
    records, checks = {}, []
    for name in ("two_point", "path3"):
        model = ctx.models[name]
        for i, j in itertools.combinations(range(model.structure.n_vertices), 2):
            phi, psi = qmetric.vertex_state(model, i), qmetric.vertex_state(model, j)
            orc = qmetric.distance_bruteforce_oracle(model, phi, psi)
            exact = qmetric.connes_distance(model, phi, psi)
            checks.append(_limit(abs(exact.value - orc.value), 1e-6 + orc.accuracy,
                                 f"{name} {i}-{j}: oracle against exact transport, gap"))
            checks.append(certificate_check(model, phi, psi, exact))
            records[f"small_oracles/{name}/{i}/{j}"] = {
                "oracle": float(orc.value), "exact": float(exact.value),
                "method": exact.method}
        diam = qmetric.quantum_diameter(model)
        records[f"small_oracles/{name}/diameter"] = {
            "value": float(diam.value), "method": diam.method,
            "degenerate": bool(diam.degenerate)}
    return records, checks


def run_diameter(ctx, name):
    diam = qmetric.quantum_diameter(ctx.models[name])
    return {f"diameter/{name}": {"value": float(diam.value), "method": diam.method,
                                 "degenerate": bool(diam.degenerate)}}, []


RUNNERS = {
    "sweep": run_sweep, "restriction": run_restriction,
    "lattice_audit": run_lattice_audit, "cli_audit": run_cli_audit,
    "comparison": run_comparison, "ascent": run_ascent,
    "transport": run_transport, "c4_oracle": run_c4_oracle,
    "small_oracles": run_small_oracles, "diameter": run_diameter,
}


def run_job(ctx: Context, job: Job):
    return RUNNERS[job.kind](ctx, *job.params)


# --------------------------------------------------------------- checking

def compare(got, want, tol, path: str = "") -> list:
    """Differences between a record and its reference; floats within
    atol + rtol * |want|, everything else exactly."""
    atol, rtol = tol
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [e for k in want for e in compare(got[k], want[k], tol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in compare(g, w, tol, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if math.isinf(want) or math.isnan(want):
            same = got == want or (math.isnan(want) and math.isnan(got))
        else:
            same = abs(got - want) <= atol + rtol * abs(want)
        return [] if same else [f"{path}: {got!r} vs reference {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} vs reference {want!r}"]
    return []


def check_job(job: Job, records: dict, reference: dict) -> list:
    errors = []
    tol = TOLERANCES[job.kind]
    for key, record in records.items():
        want = reference.get(key)
        if want is None:
            errors.append(f"{key}: no reference recorded")
            continue
        if job.kind == "c4_oracle":
            tol = (TOLERANCES[job.kind][0] + want["accuracy"], 0.0)
        errors += [f"{key}{e}" for e in compare(record, want, tol)]
    return errors


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as handle:
        return json.load(handle)["records"]


def reference_keys(workload: str):
    """Every job whose records together cover the workload's menus."""
    if workload == "lattice-blocks":
        for fixture in LATTICE_FIXTURES:
            yield Job("sweep", (fixture, tuple(range(len(SWEEP_EPS)))))
            for ei in range(len(RESTRICT_EPS)):
                yield Job("restriction", (fixture, tuple(
                    (ei, ti) for ti in range(len(RESTRICT_T)))))
            for seed in LATTICE_AUDIT_SEEDS:
                for samples in LATTICE_AUDIT_SAMPLES:
                    yield Job("lattice_audit", (fixture, seed, samples))
    elif workload == "dense-audit":
        for fixture, sizes in DENSE_AUDIT_SAMPLES.items():
            for seed in DENSE_AUDIT_SEEDS:
                for samples in sizes:
                    yield Job("cli_audit", (fixture, seed, samples))
        for seed in COMPARISON_SEEDS:
            yield Job("comparison", (seed,))
    elif workload == "state-distances":
        for fixture, seeds in ASCENT_SEEDS.items():
            for sseed in seeds:
                yield Job("ascent", (fixture, sseed))
        for kind, n, wseed, pseed in itertools.product(
                GRAPH_KINDS, GRAPH_PAIRS, GRAPH_WEIGHT_SEEDS, GRAPH_PAIR_SEEDS):
            yield Job("transport", (kind, n, wseed, pseed))
        for pair in range(len(C4_PAIRS)):
            yield Job("c4_oracle", (pair,))
        yield Job("small_oracles", ())
        yield Job("diameter", ("cycle4",))
