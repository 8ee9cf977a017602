"""Interleaved A/B benchmark: a parent revision against the working tree.

    python3 tools/ab_bench.py PARENT_REV --workload W --pairs N
        [--seconds S] [--first-seed K] [--out FILE]

Extracts PARENT_REV with ``git archive`` into a temporary directory, then
runs ``bench/run.py --workload W --seed s --seconds S --trace 0`` N times in
each checkout, one pair at a time: pair i uses seed K + i, and which side
runs first alternates from pair to pair, so a drift of the machine lands on
both sides alike.  The runs go one after another, never side by side.

For every end-to-end metric of BENCHMARK.json it prints each pair's ratio
(change / parent), both sides' median and quartiles, and how many pairs the
change won (ties count for neither side).  A gain is claimable when the
change wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range.  --out also writes every run, the
summary and both sides' machine records as JSON.

The temporary directory is removed, and a run cut short (an interrupt, a
timeout) has its whole process group killed, so nothing is left running.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a run longer than this many times --seconds (plus set-up) is killed
TIMEOUT_FACTOR = 10
TIMEOUT_SLACK_S = 600


def extract(rev: str, dest: Path) -> None:
    """The tree of rev, as committed, under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One --trace 0 run in checkout: the result JSON, its machine record,
    and the exit status."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"seed": seed, "exit": proc.returncode, "result": result,
            "machine": machine, "stderr_tail": err.strip().splitlines()[-5:]}


def quartiles(values: list) -> list:
    """[q1, median, q3], linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent, change, ratios, wins = [], [], [], 0
        for pair in pairs:
            p = pair["parent"]["result"]["metrics"][name]["value"]
            c = pair["change"]["result"]["metrics"][name]["value"]
            parent.append(p)
            change.append(c)
            ratios.append(c / p if p else float("nan"))
            wins += (c < p) if lower else (c > p)
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        claimable = wins >= 0.9 * len(pairs) and abs(cq[1] - pq[1]) > iqr and (
            cq[1] < pq[1] if lower else cq[1] > pq[1])
        summary[name] = {"unit": spec["unit"], "better": spec["better"],
                         "parent_runs": parent, "change_runs": change,
                         "ratios": ratios, "parent_q1_median_q3": pq,
                         "change_q1_median_q3": cq, "parent_interquartile_range": iqr,
                         "change_better_in_pairs": f"{wins}/{len(pairs)}",
                         "claimable": claimable}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the full record as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix="ab-bench-"))
    try:
        extract(args.parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], args.workload, seed, seconds)
            pairs.append(pair)
            bad = [s for s in order if pair[s]["exit"] != 0 or pair[s]["result"] is None]
            if bad:
                for s in bad:
                    print(f"pair {i + 1} {s}: exit {pair[s]['exit']}: "
                          + " | ".join(pair[s]["stderr_tail"]), file=sys.stderr)
                return 1
            cells = []
            for spec in metrics:
                p = pair["parent"]["result"]["metrics"][spec["name"]]["value"]
                c = pair["change"]["result"]["metrics"][spec["name"]]["value"]
                cells.append(f"{spec['name']} {p:.4g}->{c:.4g} ({c / p:.3f})" if p
                             else f"{spec['name']} {p:.4g}->{c:.4g}")
            failed = {s: pair[s]["result"]["failed"] for s in order}
            print(f"pair {i + 1} seed {seed} {order[0]} first: " + ", ".join(cells)
                  + f"; failed jobs {failed}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(pairs, metrics)
    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent} vs working tree")
    for name, s in summary.items():
        pq, cq = s["parent_q1_median_q3"], s["change_q1_median_q3"]
        print(f"{name:12s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {s['unit']}  "
              f"change better in {s['change_better_in_pairs']}"
              + ("  (claimable gain)" if s["claimable"] else ""))
    correct = all(pair[side]["result"]["correct"] for pair in pairs
                  for side in ("parent", "change"))
    print(f"all runs correct: {correct}")
    if args.out:
        record = {"workload": args.workload, "parent": args.parent, "seconds": seconds,
                  "pairs": pairs, "summary": summary, "all_correct": correct}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
