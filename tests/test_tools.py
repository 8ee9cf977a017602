"""Tests of the repository tools that run without starting a CLI process."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _cli_matrix():
    spec = importlib.util.spec_from_file_location("cli_matrix", TOOLS / "cli_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, eigenvalue: float, margin: float) -> Path:
    """A two-model matrix tree: a sweep table, an audit document, an exit
    file and a stdout file."""
    for model in ("m1", "m2"):
        target = root / model
        target.mkdir(parents=True)
        (target / "sweep.csv").write_text(
            "eps,sector,track_index,eigenvalue\n"
            f"1,0,0,{format(eigenvalue, '.17g')}\n0.5,0,0,-inf\n")
        (target / "audit.json").write_text(json.dumps(
            {"samples": 50, "verdicts": [{"name": "h1", "worst_margin": margin}]},
            indent=2, sort_keys=True) + "\n")
        (target / "audit.exit").write_text("0\n")
        (target / "audit.stdout").write_text("h1: pass\n")
    return root


def test_cli_matrix_compare(tmp_path, capsys):
    cli_matrix = _cli_matrix()
    value = -2.2360679774997898
    a = _tree(tmp_path / "a", value, 0.25)
    assert cli_matrix.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "no change: 8 files byte-identical\n"

    # one eigenvalue moved by one ulp, one margin by 1e-3, new stdout text,
    # a missing exit file and a file the first tree lacks
    bumped = float(np.nextafter(value, 0.0))
    b = _tree(tmp_path / "b", value, 0.25)
    (b / "m1" / "sweep.csv").write_text(
        (a / "m1" / "sweep.csv").read_text().replace(
            format(value, ".17g"), format(bumped, ".17g")))
    (b / "m2" / "audit.json").write_text(
        (a / "m2" / "audit.json").read_text().replace("0.25", "0.251"))
    (b / "m2" / "audit.stdout").write_text("h1: FAIL\n")
    (b / "m2" / "audit.exit").unlink()
    (b / "m2" / "extra.csv").write_text("x\n")
    assert cli_matrix.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"only in {a}: m2/audit.exit", f"only in {b}: m2/extra.csv"]
    sweep, audit, stdout = lines[2:]
    assert sweep.startswith("m1/sweep.csv: 1 changed")
    assert f"largest absolute change {abs(value - bumped):.3g} at eigenvalue" in sweep
    assert f"largest relative change {abs(value - bumped) / abs(value):.3g} at eigenvalue" \
        in sweep
    assert audit.startswith("m2/audit.json: 1 changed")
    assert "at verdicts[0].worst_margin" in audit and "0.001 at" in audit
    assert stdout == "m2/audit.stdout: bytes differ"


def test_cli_matrix_numeric_changes_need_equal_shapes():
    cli_matrix = _cli_matrix()
    csv = Path("t.csv")
    # a renamed column, a word cell and an extra row are not numeric changes
    assert cli_matrix.numeric_changes(csv, b"a,b\n1,2\n", b"a,c\n1,3\n") is None
    assert cli_matrix.numeric_changes(csv, b"a,m\n1,ascent\n", b"a,m\n1,exact\n") is None
    assert cli_matrix.numeric_changes(csv, b"a\n1\n", b"a\n1\n2\n") is None
    # a new spelling of the same value is no numeric change
    assert cli_matrix.numeric_changes(csv, b"a\n1\n", b"a\n1.0\n") is None
    doc = Path("d.json")
    assert cli_matrix.numeric_changes(doc, b'{"a": [1, "x"]}', b'{"a": [2, "x"]}') \
        == [("a[0]", 1.0, 2.0)]
    assert cli_matrix.numeric_changes(doc, b'{"a": 1}', b'{"b": 1}') is None
    assert cli_matrix.numeric_changes(doc, b'{"a": true}', b'{"a": 1}') is None
    assert cli_matrix.numeric_changes(doc, b"{", b"{}") is None
    assert cli_matrix.numeric_changes(Path("x.stdout"), b"1\n", b"2\n") is None
