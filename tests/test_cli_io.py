"""CLI contract tests: schema handling, exit codes, file formats, and
seeded determinism of emitted artifacts."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from collapselab.cli_io import (
    EXIT_AUDIT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_WINDOW,
    ModelSpecFile,
    SchemaError,
    _fmt,
    _jsonable,
    _write_text,
    load_model,
    main,
    parse_eps_grid,
    parse_model_spec,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def _fixture(name: str) -> str:
    return str(MODELS / f"{name}.json")


# ------------------------------------------------------------ spec documents

def test_spec_round_trip():
    spec = ModelSpecFile(1, "graph",
                         {"edges": [[0, 1, 2.0], [1, 2, [0.0, 1.5]]]}, 42)
    assert parse_model_spec(spec.emit()) == spec


def test_spec_round_trip_all_fixtures():
    for path in sorted(MODELS.glob("*.json")):
        text = path.read_text()
        spec = parse_model_spec(text)
        assert parse_model_spec(spec.emit()) == spec


@pytest.mark.parametrize("text, fragment", [
    ("{not json", "JSON"),
    ("[1, 2]", "object"),
    ('{"schema_version": 1, "builder": "torus", "params": {}}', "missing"),
    ('{"schema_version": 1, "builder": "torus", "params": {}, "seed": 1, '
     '"extra": 0}', "unknown fields"),
    ('{"schema_version": 2, "builder": "torus", "params": {}, "seed": 1}',
     "schema_version"),
    ('{"schema_version": 1, "builder": "warp", "params": {}, "seed": 1}',
     "unknown builder"),
    ('{"schema_version": 1, "builder": "torus", "params": [], "seed": 1}',
     "params"),
    ('{"schema_version": 1, "builder": "torus", "params": {}, "seed": "x"}',
     "seed"),
])
def test_spec_rejections(text, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_model_spec(text)


def test_eps_grid_flag():
    assert parse_eps_grid(None) is None
    assert parse_eps_grid("1") == (1.0,)
    assert parse_eps_grid("1,0.5,0.25") == (1.0, 0.5, 0.25)
    grid = parse_eps_grid("geometric:1:0.5:3")
    assert grid == (1.0, 0.5, 0.25)
    with pytest.raises(SchemaError):
        parse_eps_grid("geometric:1:0.5")
    with pytest.raises(SchemaError):
        parse_eps_grid("geometric:1:0.5:0")
    with pytest.raises(SchemaError):
        parse_eps_grid("abc")
    with pytest.raises(SchemaError):
        parse_eps_grid(",")


def test_value_rendering():
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(0.1) == "0.10000000000000001"
    doc = _jsonable({"a": math.inf, "b": (np.float64(1.5), np.int64(2)),
                     "c": complex(1, -2), "d": np.arange(2.0)})
    assert doc == {"a": "inf", "b": [1.5, 2], "c": [1.0, -2.0],
                   "d": [0.0, 1.0]}
    # sentinel strings survive a JSON round trip
    assert json.loads(json.dumps(doc))["a"] == "inf"


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    _write_text(str(target), "first\n")
    _write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [target]   # no temp litter


# ------------------------------------------------------------- model loading

def test_load_fixture_dimensions():
    shapes = {
        "circle_bundle": 84,
        "torus_g1f1": 98,
        "crossed_d1": 20,
        "product_spin": 8,
        "point_collapse_c4": 4,
        "two_point": 2,
    }
    for name, dim in shapes.items():
        loaded = load_model(_fixture(name))
        assert loaded.model.hilbert_dim == dim, name
        assert len(loaded.sha256) == 64


def test_minimal_torus_spec(tmp_path):
    # one fiber direction, cutoff 1: 3 modes x spin dim 2
    spec = ModelSpecFile(1, "torus", {
        "g_base": 0, "g_fiber": 1, "theta": [[0.0]], "cutoff": 1}, 0)
    path = tmp_path / "minimal.json"
    path.write_text(spec.emit())
    loaded = load_model(str(path))
    assert loaded.model.hilbert_dim == 6
    assert loaded.decomposition is not None


def test_graph_models_load_plain():
    loaded = load_model(_fixture("path3"))
    assert loaded.decomposition is None
    assert loaded.model.structure.n_vertices == 3


# ----------------------------------------------------------------- commands

def test_build_reports_hash_and_shape(tmp_path):
    out = tmp_path / "build.json"
    rc = main(["build", "--model", _fixture("crossed_d1"),
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["hilbert_dim"] == 20
    assert doc["decomposed"] is True
    assert doc["metadata"]["tool_version"]
    import hashlib
    digest = hashlib.sha256(Path(_fixture("crossed_d1")).read_bytes()).hexdigest()
    assert doc["metadata"]["model_sha256"] == digest


def test_seed_override_recorded(tmp_path):
    out = tmp_path / "build.json"
    main(["build", "--model", _fixture("crossed_d1"), "--seed", "99",
          "--out", str(out)])
    assert json.loads(out.read_text())["metadata"]["seed"] == 99


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--model", _fixture("circle_bundle"),
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,sector,track_index,eigenvalue"
    # 13 default grid points, one row per (eps, track)
    assert len(lines) == 1 + 13 * 84
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert len(summary["hausdorff_curve"]) == 13
    assert len(summary["bound_curve"]) == 13
    assert summary["tracking_method"] == "sector-exact"
    assert summary["tolerance_context"]["infinite_sentinel"] == "inf"


def test_sweep_single_eps(tmp_path):
    out = tmp_path / "one.csv"
    rc = main(["sweep", "--model", _fixture("circle_bundle"),
               "--eps-grid", "1", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 84
    assert all(line.split(",")[0] == "1" for line in lines[1:])


def test_sweep_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        rc = main(["sweep", "--model", _fixture("torus_g1f1"),
                   "--out", str(target)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == \
        (tmp_path / "b.summary.json").read_bytes()


def test_audit_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        rc = main(["audit", "--model", _fixture("crossed_d1"),
                   "--samples", "50", "--out", str(target)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_audit_failure_names_hypothesis(tmp_path):
    out = tmp_path / "bad.json"
    rc = main(["audit", "--model", _fixture("crossed_adversarial"),
               "--samples", "50", "--out", str(out)])
    assert rc == EXIT_AUDIT
    doc = json.loads(out.read_text())
    failing = [v["name"] for v in doc["verdicts"] if not v["passed"]]
    assert failing == ["hypothesis_3_vertical_commutes_with_base"]
    assert doc["all_passed"] is False


def test_distance_method_tags(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["distance", "--model", _fixture("two_point"),
               "--states", "vertex:0,vertex:1", "--out", str(out)])
    assert rc == EXIT_OK
    header, row = out.read_text().splitlines()
    assert header == "phi,psi,value,method,converged,tolerance"
    cells = row.split(",")
    assert float(cells[2]) == pytest.approx(0.5, abs=1e-10)
    assert cells[3] == "exact-shortest-path"

    rc = main(["distance", "--model", _fixture("two_point"),
               "--states", "vertex:0,vertex:1", "--oracle", "--out", str(out)])
    assert rc == EXIT_OK
    row = out.read_text().splitlines()[1]
    assert row.split(",")[3] == "oracle"

    rc = main(["distance", "--model", _fixture("product_spin"),
               "--states", "pure:0,pure:7", "--out", str(out)])
    assert rc == EXIT_OK
    row = out.read_text().splitlines()[1]
    assert row.split(",")[3] == "ascent-lower-bound"
    # every emitted row carries a method tag
    assert row.split(",")[3] != ""


def test_distance_density_file(tmp_path):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    out = tmp_path / "d.csv"
    rc = main(["distance", "--model", _fixture("two_point"),
               "--states", f"density:{rho},vertex:1", "--out", str(out)])
    assert rc == EXIT_OK
    value = float(out.read_text().splitlines()[1].split(",")[2])
    assert value == pytest.approx(0.5, abs=1e-9)


def test_spectrum_rescales_point_collapse(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["spectrum", "--model", _fixture("point_collapse_c4"),
               "--eps", "0.5", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = sorted(float(line.split(",")[1]) for line in lines[1:])
    assert values[0] == pytest.approx(-4.0, abs=1e-12)
    assert values[-1] == pytest.approx(4.0, abs=1e-12)
    assert abs(values[1]) < 1e-9 and abs(values[2]) < 1e-9


def test_report_bundles_sweep_and_audit(tmp_path):
    out = tmp_path / "bundle.json"
    rc = main(["report", "--model", _fixture("crossed_d1"),
               "--samples", "50", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["audit"]["all_passed"] is True
    assert len(doc["sweep"]["hausdorff_curve"]) == 13
    # plain models report a spectrum section instead
    out2 = tmp_path / "plain.json"
    rc = main(["report", "--model", _fixture("two_point"), "--out", str(out2)])
    assert rc == EXIT_OK
    assert "spectrum" in json.loads(out2.read_text())


# --------------------------------------------------------------- exit codes

def test_exit_code_contract(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text('{"schema_version": 2, "builder": "torus", '
                          '"params": {}, "seed": 0}')
    assert main(["build", "--model", str(bad_schema)]) == EXIT_PARSE

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"schema_version": 1, "builder": "warp", '
                       '"params": {}, "seed": 0}')
    assert main(["build", "--model", str(unknown)]) == EXIT_PARSE

    negative = tmp_path / "neg.json"
    negative.write_text(ModelSpecFile(1, "torus", {
        "g_base": 1, "g_fiber": 1, "theta": [[0.0, 0.0], [0.0, 0.0]],
        "cutoff": -2}, 0).emit())
    assert main(["build", "--model", str(negative)]) == EXIT_PRECONDITION

    # sweep on a model with no decomposition
    assert main(["sweep", "--model", _fixture("two_point")]) \
        == EXIT_PRECONDITION

    # window wider than the truncation supports
    assert main(["sweep", "--model", _fixture("circle_bundle"),
                 "--window", "99"]) == EXIT_WINDOW

    # audit precondition and failure codes
    assert main(["audit", "--model", _fixture("crossed_d1"),
                 "--samples", "0"]) == EXIT_PRECONDITION

    # oracle on an oversized span
    assert main(["distance", "--model", _fixture("crossed_d1"),
                 "--states", "pure:0,pure:5", "--oracle"]) \
        == EXIT_PRECONDITION

    # malformed state tokens
    assert main(["distance", "--model", _fixture("two_point"),
                 "--states", "vertex:0"]) == EXIT_PARSE
    assert main(["distance", "--model", _fixture("two_point"),
                 "--states", "spin:0,vertex:1"]) == EXIT_PARSE

    # eps rescaling needs a decomposition
    assert main(["spectrum", "--model", _fixture("two_point"),
                 "--eps", "0.5"]) == EXIT_PRECONDITION

    missing = tmp_path / "absent.json"
    assert main(["build", "--model", str(missing)]) == EXIT_PARSE


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--model", "{two_point}", "--eps", "abc"], EXIT_PARSE),
    (["build", "--model", "{word_g_base}"], EXIT_PARSE),
    (["distance", "--model", "{two_point}", "--states", "vertex:0,vertex:7"],
     EXIT_PRECONDITION),
    (["build", "--model", "{two_point}", "--out", "{tmp}/absent/x.json"], EXIT_PARSE),
    (["distance", "--model", "{two_point}", "--states", "density:{tmp}/absent.json,vertex:1"],
     EXIT_PARSE),
], ids=["eps-not-a-number", "g_base-not-a-number", "vertex-out-of-range",
        "out-dir-missing", "density-file-missing"])
def test_malformed_input_exit_codes(argv, code, tmp_path, capsys):
    word = tmp_path / "word.json"
    word.write_text(ModelSpecFile(1, "torus", {
        "g_base": "one", "g_fiber": 1, "theta": [[0.0, 0.0], [0.0, 0.0]],
        "cutoff": 1}, 0).emit())
    argv = [a.format(two_point=_fixture("two_point"), word_g_base=word, tmp=tmp_path)
            for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:     # argparse rejects a malformed flag value
        rc = exc.code
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err
