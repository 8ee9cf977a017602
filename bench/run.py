#!/usr/bin/env python3
"""collapselab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: lattice-blocks, dense-audit,
state-distances (see bench/README.md for what each exercises and why).

One process, one client, closed loop: each job starts when the previous one
has finished.  Every job is checked against bench/reference/<workload>.json.

--trace 0 measures the end-to-end metrics: set-up time of a cold process
(median of five fresh processes), jobs per second over --seconds of job
time, median and 90th-percentile job latency, and peak resident memory.

--trace 1 wraps the public functions of every layer (bench/tracing.py) and
runs a fixed number of jobs, so that work counts repeat exactly for a seed;
it reports per-layer metrics and the tracing overhead (traced against
untraced wall time of the same jobs).

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Each result,
with the machine record, is also written to bench/out/.
"""
import os

# BLAS pools read these when numpy loads, so they are set before any import
# that pulls numpy in.  COLLAPSE_LAB_THREADS stays unset: the audit pool runs
# at its default worker count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("COLLAPSE_LAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
#: job blocks in the traced run per 10 s of --seconds (at least one)
TRACE_BLOCKS_PER_10S = 1
PROBE_TIMEOUT_S = 120


def require_checkout() -> None:
    """Fail before printing any result when the program is not there."""
    missing = [p for p in ("src/collapselab/__init__.py", "models/torus4_flat.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"bench: not a collapselab checkout, missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import collapselab
    if Path(collapselab.__file__).resolve().parent != ROOT / "src" / "collapselab":
        raise SystemExit(f"bench: imported collapselab from {collapselab.__file__}")


# ------------------------------------------------------------------ set-up

def probe_setup(workload: str, import_only: bool) -> list:
    """Run bench/setup_probe.py in fresh processes, one after another."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    if import_only:
        cmd.append("--import-only")
    rows = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return rows


# --------------------------------------------------------------- jobs

class Runner:
    """Runs and checks jobs; counts attempts and failures."""

    def __init__(self, ctx, reference):
        import workloads
        self.workloads = workloads
        self.ctx = ctx
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latencies = {}

    def run(self, job, tracer=None, job_id=None):
        """Run one job; return its wall time in seconds (checks untimed)."""
        self.attempted += 1
        if tracer is not None:
            tracer.job = job_id
            tracer.active = True
        start = time.perf_counter()
        try:
            records, checks = self.workloads.run_job(self.ctx, job)
        except Exception:  # a failed job is counted, the run goes on
            records, checks = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.latencies.setdefault(job.kind, []).append(elapsed)
        if records is None:
            self._fail(job, [checks])
            return elapsed
        errors = [e for check in checks for e in check()]
        errors += self.workloads.check_job(job, records, self.reference)
        if errors:
            self._fail(job, errors)
        return elapsed

    def _fail(self, job, errors):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"job": job.label, "errors": errors[:5]})
            print(f"bench: job {job.label} failed: {errors[0]}", file=sys.stderr)

    def warm_up(self, first_block):
        """One job of each kind, so lazy imports and first-call costs are
        paid before timing."""
        seen = set()
        for job in first_block:
            if job.kind not in seen:
                seen.add(job.kind)
                self.run(job)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, workloads) -> tuple:
    probes = probe_setup(args.workload, import_only=False)
    ctx = workloads.setup(args.workload, args.job_dir)
    runner = Runner(ctx, workloads.load_reference(args.workload))
    blocks = workloads.job_blocks(args.workload, args.seed)
    first = next(blocks)
    runner.warm_up(first)

    latencies = []

    def jobs():
        yield from first
        for block in blocks:
            yield from block

    busy = 0.0
    for job in jobs():
        if busy >= args.seconds:
            break
        elapsed = runner.run(job)
        latencies.append(elapsed)
        busy += elapsed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "jobs_per_s": (len(latencies) / busy, "jobs/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    beyond = sum(1 for x in latencies if 1e3 * x > metrics["job_p90_ms"][0])
    detail = {"jobs_timed": len(latencies), "jobs_beyond_p90": beyond,
              "setup_probes": probes, "busy_s": busy}
    if beyond < 10:
        print(f"bench: only {beyond} jobs beyond p90; lengthen --seconds",
              file=sys.stderr)
    return runner, metrics, detail


def traced(args, workloads) -> tuple:
    import tracing
    probes = probe_setup(args.workload, import_only=True)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job, tracer.active = "setup", True
    try:
        ctx = workloads.setup(args.workload, args.job_dir)
    finally:
        tracer.active = False
        tracer.uninstall()
    runner = Runner(ctx, workloads.load_reference(args.workload))
    n_blocks = max(1, TRACE_BLOCKS_PER_10S * args.seconds // 10)
    blocks = workloads.job_blocks(args.workload, args.seed)
    jobs = [job for _, block in zip(range(n_blocks), blocks) for job in block]
    runner.warm_up(jobs)

    untraced_s = sum(runner.run(job) for job in jobs)
    tracer.install()
    try:
        traced_s = sum(runner.run(job, tracer, i) for i, job in enumerate(jobs))
    finally:
        tracer.active = False
        tracer.uninstall()

    metrics = tracing.layer_metrics(tracer)
    metrics["cli_io.import_ms"] = (
        1e3 * statistics.median(p["import_s"] for p in probes), "ms")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.jobs"] = (len(jobs), "count")
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(trace_path)
    detail = {"untraced_s": untraced_s, "traced_s": traced_s,
              "trace_file": str(trace_path.relative_to(ROOT))}
    return runner, metrics, detail


# ---------------------------------------------------------------- record

def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "collapselab").glob("*.py")) + \
            sorted((ROOT / "models").glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(args) -> dict:
    import numpy
    import scipy
    from collapselab._runtime import worker_count
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_keys = sorted(THREAD_ENV) + ["COLLAPSE_LAB_THREADS"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in env_keys},
        "audit_workers": worker_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    args.job_dir = OUT / f"jobs-{os.getpid()}"
    args.job_dir.mkdir()
    try:
        measure = traced if args.trace else end_to_end
        runner, metrics, detail = measure(args, workloads)
    finally:
        shutil.rmtree(args.job_dir, ignore_errors=True)

    record = machine_record(args)
    fail_frac = runner.failed / runner.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")
    print("machine " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as handle:
        by_kind = {kind: {"jobs": len(v), "median_ms": 1e3 * statistics.median(v),
                          "max_ms": 1e3 * max(v)}
                   for kind, v in sorted(runner.latencies.items())}
        json.dump({"result": result, "fail_frac": fail_frac, "machine": record,
                   "detail": detail, "latency_by_kind": by_kind,
                   "failures": runner.failures}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
