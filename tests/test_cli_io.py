"""CLI contract tests: schema handling, exit codes, file formats, and
seeded determinism of emitted artifacts."""
from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from collapselab.cli_io import (
    BUILDERS,
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


def test_out_onto_a_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["build", "--model", _fixture("two_point"),
                 "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [out] and not any(out.iterdir())


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


#: malformed model files, written per test as {tmp}/<name>.json
MALFORMED_SPECS = {
    "word_g_base": ("torus", {"g_base": "one", "g_fiber": 1,
                              "theta": [[0.0, 0.0], [0.0, 0.0]], "cutoff": 1}),
    "negative_endpoint": ("graph", {"edges": [[-1, 0, 1.0], [0, 1, 1.0]]}),
    "inner_params_list": ("point_collapse", {
        "model": {"builder": "graph", "params": ["edges"]}, "state": {"vertex": 0}}),
    "fractional_k_min": ("circle_bundle", {
        "base_eigenvalues": [1.0], "fiber_length_scale": 1.0, "k_min": -1.5, "k_max": 1}),
    "boolean_weight": ("cycle_adjacency", {"n": 4, "weight": True}),
    "negative_seed": ("graph", {"edges": [[0, 1, 2.0]]}, -5),
    "boolean_endpoints": ("graph", {"edges": [[True, False, 1.0]]}),
    "boolean_edge_weight": ("graph", {"edges": [[0, 1, True]]}),
    "boolean_matrix_entry": ("torus", {"g_base": 1, "g_fiber": 1,
                                       "theta": [[0.0, [False, 0.0]], [0.0, 0.0]],
                                       "cutoff": 1}),
    # integers too large for a float: 341 digits
    "huge_edge_weight": ("graph", {"edges": [[0, 1, 10 ** 340]]}),
    "huge_matrix_entry": ("torus", {"g_base": 1, "g_fiber": 1,
                                    "theta": [[0.0, [1, 10 ** 340]], [0.0, 0.0]],
                                    "cutoff": 1}),
}


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--model", "{two_point}", "--eps", "abc"], EXIT_PARSE),
    (["build", "--model", "{tmp}/word_g_base.json"], EXIT_PARSE),
    (["distance", "--model", "{two_point}", "--states", "vertex:0,vertex:7"],
     EXIT_PRECONDITION),
    (["build", "--model", "{two_point}", "--out", "{tmp}/absent/x.json"], EXIT_PARSE),
    (["distance", "--model", "{two_point}", "--states", "density:{tmp}/absent.json,vertex:1"],
     EXIT_PARSE),
    (["build", "--model", "{tmp}/negative_endpoint.json"], EXIT_PRECONDITION),
    (["build", "--model", "{tmp}/inner_params_list.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/fractional_k_min.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/boolean_weight.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/negative_seed.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/boolean_endpoints.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/boolean_edge_weight.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/boolean_matrix_entry.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/not_utf8.json"], EXIT_PARSE),
    (["audit", "--model", "{circle_bundle}", "--seed", "-5"], EXIT_PARSE),
    (["distance", "--model", "{path3}", "--states", "vertex:0,vertex:2", "--oracle",
      "--seed", "-5"], EXIT_PARSE),
    (["build", "--model", "{tmp}/huge_edge_weight.json"], EXIT_PARSE),
    (["build", "--model", "{tmp}/huge_matrix_entry.json"], EXIT_PARSE),
], ids=["eps-not-a-number", "g_base-not-a-number", "vertex-out-of-range",
        "out-dir-missing", "density-file-missing", "negative-edge-endpoint",
        "inner-params-not-an-object", "int-given-a-fraction", "float-given-a-boolean",
        "negative-seed-in-file", "boolean-edge-endpoints", "boolean-edge-weight",
        "boolean-matrix-entry", "model-file-not-utf8", "negative-seed-flag-audit",
        "negative-seed-flag-oracle", "edge-weight-too-large-for-a-float",
        "matrix-entry-too-large-for-a-float"])
def test_malformed_input_exit_codes(argv, code, tmp_path, capsys):
    for name, (builder, params, *seed) in MALFORMED_SPECS.items():
        spec = ModelSpecFile(1, builder, params, seed[0] if seed else 0)
        (tmp_path / f"{name}.json").write_text(spec.emit())
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe\x00")
    argv = [a.format(two_point=_fixture("two_point"), circle_bundle=_fixture("circle_bundle"),
                     path3=_fixture("path3"), tmp=tmp_path) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:     # argparse rejects a malformed flag value
        rc = exc.code
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field, literal, message", [
    ("schema_version", "true", "schema_version True unsupported"),
    ("schema_version", "1.0", "schema_version 1.0 unsupported"),
    ("seed", "1" * 5000, "not valid JSON"),
], ids=["schema-version-true", "schema-version-float", "seed-past-the-digit-limit"])
def test_strict_integer_fields(field, literal, message, tmp_path, capsys):
    # True == 1 and 1.0 == 1 in Python, but neither is the integer 1; an
    # integer literal past Python's 4300-digit limit is no JSON number it reads
    doc = {"schema_version": "1", "builder": '"graph"',
           "params": '{"edges": [[0, 1, 1.0]]}', "seed": "0", field: literal}
    path = tmp_path / "spec.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
    assert main(["build", "--model", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--model", "{circle_bundle}", "--window", "nan"], "window must be positive"),
    (["sweep", "--model", "{circle_bundle}", "--eps-grid", "nan"],
     "eps values must be positive"),
    (["spectrum", "--model", "{circle_bundle}", "--eps", "nan"], "eps must be positive"),
    (["distance", "--model", "{crossed_d1}", "--states", "pure:0,pure:3",
      "--iterations", "0"], "iteration count must be >= 1"),
    (["distance", "--model", "{crossed_d1}", "--states", "pure:0,pure:3",
      "--iterations", "-5"], "iteration count must be >= 1"),
], ids=["nan-window", "nan-eps-grid", "nan-eps", "zero-iterations", "negative-iterations"])
def test_precondition_messages(argv, message, capsys):
    argv = [a.format(circle_bundle=_fixture("circle_bundle"),
                     crossed_d1=_fixture("crossed_d1")) for a in argv]
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
@pytest.mark.parametrize("oracle", [["--oracle"], []], ids=["oracle", "ascent"])
def test_non_finite_density_exit_codes(entry, oracle, tmp_path, capsys):
    rows = [[0] * 4 for _ in range(4)]
    density = tmp_path / "density.json"
    density.write_text(json.dumps(rows).replace("0", entry, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy warning on the way
        rc = main(["distance", "--model", _fixture("point_collapse_c4"),
                   "--states", f"density:{density},pure:0"] + oracle)
    assert rc == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert "density entries must be finite" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_report_exit_code_on_failed_audit(tmp_path):
    out = tmp_path / "bundle.json"
    rc = main(["report", "--model", _fixture("crossed_adversarial"),
               "--samples", "20", "--out", str(out)])
    assert rc == EXIT_AUDIT
    doc = json.loads(out.read_text())
    assert doc["audit"]["all_passed"] is False
    assert "sweep" in doc


def _point_collapse_spec(path, state):
    fixture = json.loads(Path(_fixture("point_collapse_c4")).read_text())
    fixture["params"]["state"] = state
    path.write_text(json.dumps(fixture))
    return str(path)


def test_point_collapse_state_forms(tmp_path):
    # vertex 0 as a pure index and as a density: one state, one model
    density = np.zeros((4, 4)).tolist()
    density[0][0] = 1.0
    pure, dens = (load_model(_point_collapse_spec(tmp_path / f"{name}.json", state))
                  for name, state in (("pure", {"pure_index": 0}),
                                      ("density", {"density": density})))
    assert pure.decomposition.total.hilbert_dim == 4
    assert np.allclose(pure.decomposition.expectation_matrix,
                       dens.decomposition.expectation_matrix, atol=1e-12)


@pytest.mark.parametrize("state", [
    {"pure_index": "zero"},
    {"density": [[1.0, 0.0], [0.0]]},
    {"density": "identity"},
    {"spin": 0},
    {"vertex": 0, "density": [[1.0]]},
    {"vertex": 0, "spin": 1},
], ids=["pure-index-word", "density-ragged", "density-not-rows", "no-known-key",
        "two-kinds", "extra-key"])
def test_point_collapse_malformed_state(state, tmp_path, capsys):
    path = _point_collapse_spec(tmp_path / "bad.json", state)
    assert main(["build", "--model", path]) == EXIT_PARSE
    assert "Traceback" not in capsys.readouterr().err


# ------------------------------------------------ declared builder keys only

#: small fixtures that, with point_collapse_c4's nested spec, name every builder
SMALL_FIXTURES = ("torus_g1f1", "circle_bundle", "product_spin", "crossed_d1",
                  "point_collapse_c4", "path3")


def _small_params() -> dict:
    """The params of one small spec per builder, nested specs included."""
    specs = {}
    for name in SMALL_FIXTURES:
        doc = json.loads(Path(_fixture(name)).read_text())
        specs.setdefault(doc["builder"], doc["params"])
        inner = doc["params"].get("model")
        if isinstance(inner, dict):
            specs.setdefault(inner["builder"], inner["params"])
    return specs


def test_small_fixtures_name_every_builder():
    assert _small_params().keys() == BUILDERS.keys()


def _run_spec(tmp_path, capsys, builder, params, command="build"):
    """main's exit code, stdout and stderr on a model file of builder and
    params; stderr must carry no traceback."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"schema_version": 1, "builder": builder,
                                "params": params, "seed": 0}))
    rc = main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, captured.out, captured.err


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_undeclared_builder_key_is_rejected(builder, tmp_path, capsys):
    # a misspelled optional key once built the model without it
    params = dict(_small_params()[builder], wieght=2.0)
    assert _run_spec(tmp_path, capsys, builder, params)[0] == EXIT_PARSE


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builder_function_is_looked_up_when_called(builder, tmp_path, capsys,
                                                   monkeypatch):
    # a wrapper patched over the module's function (as the benchmark's
    # tracer patches it) must see every build of its builder
    import collapselab.cli_io as cli_io
    name = BUILDERS[builder][0]
    original, calls = getattr(cli_io, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_io, name, spy)
    assert _run_spec(tmp_path, capsys, builder, _small_params()[builder])[0] == EXIT_OK
    assert calls == [name]


@pytest.mark.parametrize("builder, key", [
    (builder, key) for builder, (_, required, _) in sorted(BUILDERS.items())
    for key in required])
def test_null_required_key_is_missing(builder, key, tmp_path, capsys):
    params = dict(_small_params()[builder], **{key: None})
    rc, _, err = _run_spec(tmp_path, capsys, builder, params)
    assert rc == EXIT_PARSE and f"missing key '{key}'" in err


@pytest.mark.parametrize("builder, key", [
    (builder, key) for builder, (_, _, optional) in sorted(BUILDERS.items())
    for key in optional])
def test_null_optional_key_means_absent(builder, key, tmp_path, capsys):
    absent = {k: v for k, v in _small_params()[builder].items() if k != key}
    outputs = []
    for params in (absent, dict(absent, **{key: None})):
        for command in ("build", "spectrum"):
            rc, out, _ = _run_spec(tmp_path, capsys, builder, params, command)
            assert rc == EXIT_OK
            doc = json.loads(out) if command == "build" else out
            if command == "build":
                del doc["metadata"]["model_sha256"]      # the files differ
            outputs.append(doc)
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("edit", [
    lambda model: model.update(extra=1),
    lambda model: model["params"].update(wieght=2.0),
], ids=["spec-extra-key", "params-extra-key"])
def test_point_collapse_nested_spec_undeclared_keys(edit, tmp_path, capsys):
    params = json.loads(Path(_fixture("point_collapse_c4")).read_text())["params"]
    edit(params["model"])
    assert _run_spec(tmp_path, capsys, "point_collapse", params)[0] == EXIT_PARSE


@pytest.mark.parametrize("edit", [
    lambda even: even.update(extra=1),
    lambda even: even.update(dirac=None),
    lambda even: even.pop("basis"),
], ids=["extra-key", "null-dirac", "no-basis"])
def test_inline_triple_declared_keys(edit, tmp_path, capsys):
    params = json.loads(Path(_fixture("product_spin")).read_text())["params"]
    edit(params["even"])
    assert _run_spec(tmp_path, capsys, "product", params)[0] == EXIT_PARSE


def test_inline_triple_null_optional_keys_mean_absent(tmp_path, capsys):
    params = json.loads(Path(_fixture("product_spin")).read_text())["params"]
    absent = dict(params, even={k: v for k, v in params["even"].items()
                                if k in ("dirac", "basis")})
    null = dict(params, even=dict(absent["even"], grading=None, label=None))
    assert (_run_spec(tmp_path, capsys, "product", absent, "spectrum")
            == _run_spec(tmp_path, capsys, "product", null, "spectrum"))


def test_report_help_documents_shared_options(capsys):
    helps = {}
    for command in ("sweep", "audit", "report"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps[command] = " ".join(capsys.readouterr().out.split())
    for text in ('comma list or "geometric:start:ratio:count"',
                 "windowed comparison half-width"):
        assert text in helps["sweep"] and text in helps["report"]
    assert "random self-adjoint elements" in helps["audit"]
    assert "random self-adjoint elements" in helps["report"]


# ------------------------------------------------- valid inputs, end to end

def _spectrum_values(argv, tmp_path):
    out = tmp_path / "s.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    return [float(line.split(",")[1]) for line in lines[1:]]


def test_complex_matrix_entries(tmp_path):
    # product_spin with the even Dirac sigma_y written as [re, im] entries;
    # the spectrum is +-sqrt(1 + s^2) over the C4 eigenvalues s = -2, 0, 0, 2
    doc = json.loads(Path(_fixture("product_spin")).read_text())
    doc["params"]["even"]["dirac"] = [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]]
    path = tmp_path / "product_sy.json"
    path.write_text(json.dumps(doc))
    values = _spectrum_values(["spectrum", "--model", str(path)], tmp_path)
    r5 = math.sqrt(5.0)
    assert np.allclose(values, [-r5, -r5, -1, -1, 1, 1, r5, r5], atol=1e-12)
    d_h = load_model(str(path)).decomposition.d_h     # sigma_y (x) identity(4)
    assert np.array_equal(d_h[::4, ::4], np.array([[0, -1j], [1j, 0]]))


def test_crossed_product_phases(tmp_path):
    # an antisymmetric twist changes the algebra, not the Dirac
    doc = json.loads(Path(_fixture("crossed_d2")).read_text())
    doc["params"]["phases"] = [[0.0, 0.5], [-0.5, 0.0]]
    path = tmp_path / "crossed_d2_twisted.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "build.json"
    assert main(["build", "--model", str(path), "--out", str(out)]) == EXIT_OK
    plain = tmp_path / "plain.json"
    assert main(["build", "--model", _fixture("crossed_d2"), "--out", str(plain)]) == EXIT_OK
    twisted, untwisted = json.loads(out.read_text()), json.loads(plain.read_text())
    for key in ("hilbert_dim", "algebra_dim", "sector_count", "vertical_gap"):
        assert twisted[key] == untwisted[key], key
    assert (_spectrum_values(["spectrum", "--model", str(path), "--eps", "0.5"], tmp_path)
            == _spectrum_values(["spectrum", "--model", _fixture("crossed_d2"),
                                 "--eps", "0.5"], tmp_path))
    # basis 2 and 4 are the shifts q = (-1, 0) and (0, -1) times the base
    # identity: they commute untwisted and fail to commute twisted
    shifts = [load_model(p).model.algebra_basis
              for p in (str(path), _fixture("crossed_d2"))]
    twisted_c = shifts[0][2] @ shifts[0][4] - shifts[0][4] @ shifts[0][2]
    plain_c = shifts[1][2] @ shifts[1][4] - shifts[1][4] @ shifts[1][2]
    assert np.max(np.abs(twisted_c)) > 0.5
    assert not np.any(plain_c)


def test_spectrum_of_plain_model(capsys):
    # no --out: the table goes to stdout
    assert main(["spectrum", "--model", _fixture("two_point")]) == EXIT_OK
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "index,eigenvalue"
    assert [float(row.split(",")[1]) for row in rows] == [-2.0, 2.0]


def test_sweep_default_window_of_exact_model(tmp_path):
    # product_spin resolves every eigenvalue (reliable window inf), so the
    # window defaults to the norm of the total Dirac, sqrt(5)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", _fixture("product_spin"), "--out", str(out)]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert summary["window"] == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_distance_refuses_models_beyond_dense_limit(tmp_path, capsys):
    # torus4_flat has dimension 9604: distance must exit 3 before densifying
    rc = main(["distance", "--model", _fixture("torus4_flat"),
               "--states", "pure:0,pure:1", "--out", str(tmp_path / "d.csv")])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "dense limit" in err and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()
