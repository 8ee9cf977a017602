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
                                              two states from STATES on the rest)
    distance --oracle  distance_oracle.csv   (the same states; models whose span
                                              is too large for the oracle exit 3)

plus ``<command>.stdout``, ``<command>.stderr`` and ``<command>.exit`` for
each run.  A run that fails (the torus4 distances exit 3) still records its
stderr and exit code.  OUTDIR and the checkout root are replaced by
placeholders in stdout and stderr, so two runs over different checkouts
compare with a plain ``diff -r``:

    python3 tools/cli_matrix.py /tmp/matrix-a
    diff -r /tmp/matrix-a /tmp/matrix-b          # empty: byte-identical

The states of each ``distance`` run differ on the model's algebra, so the
run reaches the ascent and the oracle's polish.  After the runs the tool
checks that every distance it wrote is nonzero, except on fixtures whose
algebra is the scalars, and exits 1 if one is not.

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
#: two states per non-graph fixture that differ on its algebra; pure:0 and
#: pure:1 agree on the whole algebra of the crossed, product and torus
#: fixtures.  torus_g1f1's algebra is 1 and four shifts, on which every
#: basis state reads 0, so its second state is the equal superposition of
#: basis vectors 0 and 2 (SUPERPOSED), written next to the run's outputs.
STATES = {
    "crossed_adversarial": "pure:0,pure:2",
    "crossed_d1": "pure:0,pure:2",
    "crossed_d2": "pure:0,pure:4",
    "product_spin": "pure:0,pure:4",
    "torus_g1f1": "pure:0,density:superposed.json",
}
SUPERPOSED = {"torus_g1f1": (98, (0, 2))}
#: fixtures whose algebra is the scalars: every state distance there is 0
SCALAR_ALGEBRA = ("circle_bundle",)


def commands(model: Path, outdir: Path) -> list:
    """(name, argv after the subcommand) for every run on one model."""
    graph = json.loads(model.read_text())["builder"] in GRAPH_BUILDERS
    states = "vertex:0,vertex:1" if graph else STATES.get(model.stem, "pure:0,pure:1")
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


def write_superposed(target: Path, dim: int, basis: tuple) -> None:
    """The density of the equal superposition of the given basis vectors,
    as a JSON matrix; every entry is exact in binary."""
    rows = [[0.0] * dim for _ in range(dim)]
    for i in basis:
        for j in basis:
            rows[i][j] = 1.0 / len(basis)
    (target / "superposed.json").write_text(json.dumps(rows))


def zero_distances(outdir: Path) -> list:
    """'<model>/<file>' for every distance value 0 among the runs that
    exited 0, fixtures with a scalar algebra left out."""
    zeros = []
    for target in sorted(p for p in outdir.iterdir() if p.is_dir()):
        if target.name in SCALAR_ALGEBRA:
            continue
        for name in ("distance", "distance_oracle"):
            if (target / f"{name}.exit").read_text() != "0\n":
                continue
            rows = (target / f"{name}.csv").read_text().splitlines()[1:]
            if any(float(row.split(",")[2]) == 0.0 for row in rows):
                zeros.append(f"{target.name}/{name}.csv")
    return zeros


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
        if model.stem in SUPERPOSED:
            write_superposed(target, *SUPERPOSED[model.stem])
        for name, argv in commands(model, target):
            # in target, so a density file is named without OUTDIR
            proc = subprocess.run(
                [sys.executable, "-m", "collapselab.cli_io", argv[0],
                 "--model", str(model)] + argv[1:],
                env=env, capture_output=True, text=True, cwd=target)
            for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                for old, new in placeholders:
                    text = text.replace(old, new)
                (target / f"{name}.{stream}").write_text(text)
            (target / f"{name}.exit").write_text(f"{proc.returncode}\n")
            print(f"{model.stem} {name}: exit {proc.returncode}", flush=True)
            runs += 1
    print(f"{runs} runs written to {outdir}")
    zeros = zero_distances(outdir)
    if zeros:
        print("distance 0, so no solver ran: " + ", ".join(zeros), file=sys.stderr)
        return 1
    return 0


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_matrix.py OUTDIR", file=sys.stderr)
        return 2
    return run_matrix(Path(argv[0]).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
