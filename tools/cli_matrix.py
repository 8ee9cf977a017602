"""CLI output matrix: every command on every shipped model, written to a tree.

Runs each ``collapselab`` command below on every ``models/*.json`` as a
fresh process, with BLAS pinned to one thread, and writes what each run
leaves behind into OUTDIR/<model>/:

    build              build.json
    spectrum --eps     spectrum.csv          (--eps 1 on graph models, else 0.5)
    sweep              sweep.csv, sweep.summary.json
    audit --samples 50 audit.json
    report --samples 20 report.json
    distance           distance.csv          (vertex:0,vertex:1 on graph models,
                                              pure:0,pure:1 on the rest)
    distance --oracle  distance_oracle.csv   (the same states; models whose span
                                              is too large for the oracle exit 3)

plus ``<command>.stdout``, ``<command>.stderr`` and ``<command>.exit`` for
each run.  A run that fails (the torus4 distances exit 3) still records its
stderr and exit code.  OUTDIR and the checkout root are replaced by
placeholders in stdout and stderr, so two runs over different checkouts
compare with a plain ``diff -r``:

    python3 tools/cli_matrix.py /tmp/matrix-a
    diff -r /tmp/matrix-a /tmp/matrix-b          # empty: byte-identical

The runs go one at a time; the whole matrix takes a few minutes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
GRAPH_BUILDERS = ("graph", "cycle_adjacency")


def commands(model: Path, outdir: Path) -> list:
    """(name, argv after the subcommand) for every run on one model."""
    graph = json.loads(model.read_text())["builder"] in GRAPH_BUILDERS
    states = "vertex:0,vertex:1" if graph else "pure:0,pure:1"
    return [
        ("build", ["build", "--out", str(outdir / "build.json")]),
        ("spectrum", ["spectrum", "--eps", "1" if graph else "0.5",
                      "--out", str(outdir / "spectrum.csv")]),
        ("sweep", ["sweep", "--out", str(outdir / "sweep.csv")]),
        ("audit", ["audit", "--samples", "50",
                   "--out", str(outdir / "audit.json")]),
        ("report", ["report", "--samples", "20",
                    "--out", str(outdir / "report.json")]),
        ("distance", ["distance", "--states", states,
                      "--out", str(outdir / "distance.csv")]),
        ("distance_oracle", ["distance", "--oracle", "--states", states,
                             "--out", str(outdir / "distance_oracle.csv")]),
    ]


def run_matrix(outdir: Path) -> int:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("COLLAPSE_LAB_THREADS", None)
    placeholders = ((str(outdir), "<OUTDIR>"), (str(ROOT), "<ROOT>"))
    runs = 0
    for model in sorted((ROOT / "models").glob("*.json")):
        target = outdir / model.stem
        target.mkdir(parents=True, exist_ok=True)
        for name, argv in commands(model, target):
            proc = subprocess.run(
                [sys.executable, "-m", "collapselab.cli_io", argv[0],
                 "--model", str(model)] + argv[1:],
                env=env, capture_output=True, text=True)
            for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                for old, new in placeholders:
                    text = text.replace(old, new)
                (target / f"{name}.{stream}").write_text(text)
            (target / f"{name}.exit").write_text(f"{proc.returncode}\n")
            print(f"{model.stem} {name}: exit {proc.returncode}", flush=True)
            runs += 1
    print(f"{runs} runs written to {outdir}")
    return 0


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_matrix.py OUTDIR", file=sys.stderr)
        return 2
    return run_matrix(Path(argv[0]).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
