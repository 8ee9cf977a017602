#!/usr/bin/env python3
"""Self-test of the benchmark, every workload at its smallest size.

    python3 bench/selftest.py

Checks three things and exits non-zero on the first that fails:
  1. metric names and units match BENCHMARK.json (end-to-end with --trace 0,
     per-layer with --trace 1), and a clean run reports no failed job;
  2. a planted defect in the program (op_norm off by one part in a
     thousand) makes jobs fail, so fail_frac rises;
  3. the work counts of the traced run repeat exactly across two runs.
"""
import json
import subprocess
import sys
import tempfile

import run  # pins the BLAS thread environment before numpy loads

SEED = 7


class SelfTestError(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=False)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(workload, result, declared):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{workload}: metrics {sorted(set(got) ^ set(want))} or their "
                        "units differ from BENCHMARK.json")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: clean run reports {result['failed']} failed jobs")


def planted_defect_fails(workload) -> None:
    """Scale op_norm wherever collapselab binds it; some job must fail."""
    import collapselab.core as core
    import workloads
    original = core.op_norm

    def wrong(a):
        return 1.001 * original(a)

    bound = [(mod, key) for name, mod in sorted(sys.modules.items())
             if name.startswith("collapselab") and mod is not None
             for key, value in vars(mod).items() if value is original]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ctx = workloads.setup(workload, run.Path(tmp))
        first_block = next(workloads.job_blocks(workload, SEED))
        clean = run.Runner(ctx, workloads.load_reference(workload))
        clean.warm_up(first_block)
        planted = run.Runner(ctx, workloads.load_reference(workload))
        for mod, key in bound:
            setattr(mod, key, wrong)
        try:
            planted.warm_up(first_block)
        finally:
            for mod, key in bound:
                setattr(mod, key, original)
    expect(clean.failed == 0, f"{workload}: clean jobs failed: {clean.failures}")
    expect(planted.failed > 0, f"{workload}: planted op_norm defect went unnoticed")
    print(f"  planted defect: {planted.failed} of {planted.attempted} jobs failed")


def main() -> int:
    run.require_checkout()
    run.OUT.mkdir(exist_ok=True)
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            print(f"{name}:")
            check_names(name, bench_run(name, 0), spec["end_to_end"])
            first = bench_run(name, 1)
            check_names(name, first, spec["per_layer"])
            second = bench_run(name, 1)
            counts = {k: v["value"] for k, v in first["metrics"].items()
                      if v["unit"] in ("count", "flop")}
            again = {k: second["metrics"][k]["value"] for k in counts}
            expect(counts == again, f"{name}: work counts differ between runs: "
                   f"{ {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]} }")
            print(f"  names and units match; {len(counts)} work counts repeat")
            planted_defect_fails(name)
    except SelfTestError as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
