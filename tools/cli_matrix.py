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

A last-bit change shows in ``diff -r`` only as bytes.  The compare mode
reports it as numbers instead, per file that differs between two trees:

    python3 tools/cli_matrix.py --compare /tmp/matrix-a /tmp/matrix-b

It prints, for a CSV table or JSON document that differs only in numbers,
the largest absolute and relative change of any cell or number and the
column or key where each occurs (relative to the value in the first tree),
"bytes differ" for any other difference, and the files found in one tree
only.  It exits 0 when the trees are byte-identical, else 1.
"""
from __future__ import annotations

import json
import math
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_changes(a, b, key: str, changes: list) -> bool:
    """Append (key, old, new) for every number that differs between two
    JSON values; False when they differ in anything but numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _json_changes(a[k], b[k], f"{key}.{k}" if key else k, changes)
            for k in sorted(a))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _json_changes(x, y, f"{key}[{i}]", changes)
            for i, (x, y) in enumerate(zip(a, b)))
    if _is_number(a) and _is_number(b):
        _add_change(key, float(a), float(b), changes)
        return True
    return type(a) is type(b) and a == b       # true is not 1


def _csv_changes(a: str, b: str, changes: list) -> bool:
    """Append (column, old, new) for every cell that differs between two
    CSV tables; False when they differ in anything but numeric cells."""
    rows_a = [row.split(",") for row in a.splitlines()]
    rows_b = [row.split(",") for row in b.splitlines()]
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return False
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(header) or len(row_b) != len(header):
            return False
        for column, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            try:
                _add_change(column, float(x), float(y), changes)
            except ValueError:
                return False
    return True


def _add_change(where: str, old: float, new: float, changes: list) -> None:
    """Record a number that changed value; a new spelling of the same
    value (or NaN for NaN) is no numeric change."""
    if old != new and not (math.isnan(old) and math.isnan(new)):
        changes.append((where, old, new))


def numeric_changes(path: Path, a: bytes, b: bytes):
    """(where, old, new) for each number that differs between two versions
    of one artifact, or None when they differ otherwise or are neither CSV
    nor JSON."""
    changes = []
    try:
        text_a, text_b = a.decode(), b.decode()
        if path.suffix == ".csv":
            same_shape = _csv_changes(text_a, text_b, changes)
        elif path.suffix == ".json":
            same_shape = _json_changes(json.loads(text_a), json.loads(text_b), "", changes)
        else:
            return None
    except ValueError:       # not UTF-8, or not JSON
        return None
    return changes if same_shape and changes else None   # no change: spelling


def _largest(changes: list, measure) -> str:
    where, old, new = max(changes, key=lambda c: measure(c[1], c[2]))
    return f"{measure(old, new):.3g} at {where}"


def _abs_change(old: float, new: float) -> float:
    d = abs(new - old)
    return math.inf if math.isnan(d) else d


def _rel_change(old: float, new: float) -> float:
    d = _abs_change(old, new)
    r = d / abs(old) if old else math.inf
    return math.inf if math.isnan(r) else r


def compare_trees(a: Path, b: Path) -> int:
    """Print every difference between two matrix trees; 0 when there is none."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        old, new = (a / rel).read_bytes(), (b / rel).read_bytes()
        if old == new:
            continue
        changes = numeric_changes(rel, old, new)
        if changes is None:
            lines.append(f"{rel}: bytes differ")
        else:
            lines.append(f"{rel}: {len(changes)} changed, largest absolute change "
                         f"{_largest(changes, _abs_change)}, largest relative change "
                         f"{_largest(changes, _rel_change)}")
    for line in lines:
        print(line)
    if not lines:
        print(f"no change: {len(files_a)} files byte-identical")
    return 1 if lines else 0


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        trees = [Path(arg) for arg in argv[1:]]
        missing = [str(t) for t in trees if not t.is_dir()]
        if missing:
            print(f"not a directory: {', '.join(missing)}", file=sys.stderr)
            return 2
        return compare_trees(*trees)
    if len(argv) != 1:
        print("usage: python3 tools/cli_matrix.py OUTDIR\n"
              "       python3 tools/cli_matrix.py --compare TREE_A TREE_B",
              file=sys.stderr)
        return 2
    return run_matrix(Path(argv[0]).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
