"""Command-line front end: model files, spectra, sweeps, distances, audits.

Model files are JSON documents naming a builder and its parameters; every
command takes one via --model and derives all randomness from a single seed,
so repeated runs write byte-identical output.  Exit codes are part of the
contract: 0 success, 2 parse or schema error, 3 violated precondition,
4 spectral-window violation, 5 failed hypothesis audit.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__
from .core import (
    PreconditionError,
    SpectralTripleModel,
    hermitian_spectrum,
)
from .builders import (
    build_circle_bundle_blocks,
    build_crossed_product_model,
    build_cycle_adjacency_model,
    build_graph_model,
    build_point_collapse,
    build_product_triple,
    build_torus_triple,
)
from .collapse import WindowError, sweep
from .estimates import hypothesis_audit
from .qmetric import (
    StateFunctional,
    check_dense_limit,
    connes_distance,
    distance_bruteforce_oracle,
    pure_state,
    vertex_state,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_WINDOW = 4
EXIT_AUDIT = 5

SCHEMA_VERSION = 1

#: builders reachable from a model file.  graph and cycle_adjacency extend
#: the core set so distance fixtures ship in the same format.
BUILDER_NAMES = (
    "torus", "circle_bundle", "product", "crossed_product",
    "point_collapse", "graph", "cycle_adjacency",
)

HAUSDORFF_PASS_TOL = 1e-9
TRANSPORT_TOL = 1e-9


class SchemaError(ValueError):
    """Model file failed to parse against the schema (exit code 2)."""


# ------------------------------------------------------------ value coding

def _fmt(x: float) -> str:
    """Fixed float rendering; non-finite values become sentinel strings so
    emitted files stay valid JSON/CSV."""
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else _fmt(v)
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    return obj


def _is_int(value) -> bool:
    """A JSON integer: booleans, which Python counts as ints, and integral
    floats such as 1.0 are not.  Seeds, edge endpoints and schema_version
    are read this strictly; builder parameters go through _number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar_from_json(entry) -> complex:
    """A number or [re, im]; booleans, which Python counts as ints, are not,
    and neither is an integer too large for a float."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if all(_is_int(p) or isinstance(p, float) for p in parts):
        try:
            return complex(*parts)
        except OverflowError:
            pass
    raise SchemaError(f"matrix entry must be a number or [re, im]: {entry!r}")


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(
            isinstance(row, list) for row in obj):
        raise SchemaError(f"{name} must be a list of rows")
    width = len(obj[0])
    mat = np.empty((len(obj), width), dtype=complex)
    for i, row in enumerate(obj):
        if len(row) != width:
            raise SchemaError(f"{name} rows have uneven length")
        for j, entry in enumerate(row):
            mat[i, j] = _scalar_from_json(entry)
    return mat


def _write_text(path: str, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  An
    unwritable target, a directory included, is a usage error (exit code 2);
    a failed write leaves no temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise SchemaError(f"cannot write {path}: {exc}") from exc
        raise


def _emit(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _json_text(doc) -> str:
    """An artifact document as sorted, indented JSON with a final newline."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------- model files

@dataclass(frozen=True)
class ModelSpecFile:
    """Parsed model document.  Round-trip stable: parse(emit(x)) == x."""

    schema_version: int
    builder: str
    params: dict
    seed: int

    def emit(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def parse_model_spec(text: str) -> ModelSpecFile:
    """The model document in text, or SchemaError: exactly the four fields,
    schema_version the integer SCHEMA_VERSION, a known builder, params an
    object and a non-negative integer seed."""
    try:
        doc = json.loads(text)
    except ValueError as exc:      # an integer past Python's digit limit too
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    required = {"schema_version", "builder", "params", "seed"}
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    extra = doc.keys() - required
    if extra:
        raise SchemaError(f"unknown fields: {sorted(extra)}")
    version = doc["schema_version"]
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION})")
    return _spec(doc["builder"], doc["params"], doc["seed"], "")


def _spec(builder, params, seed, where: str) -> ModelSpecFile:
    """A spec at SCHEMA_VERSION, checked in this order: the builder is
    known, params is an object, the seed is a run seed.  where names a
    nested spec in the unknown-builder message."""
    if builder not in BUILDER_NAMES:
        raise SchemaError(f"unknown builder {builder!r}{where}")
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    return ModelSpecFile(SCHEMA_VERSION, builder, params, _seed(seed, "seed"))


def _seed(value, name: str) -> int:
    """A run seed: numpy's seeding accepts only non-negative integers."""
    if not _is_int(value) or value < 0:
        raise SchemaError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _param(params: dict, name: str, required: bool = True, default=None):
    if name in params:
        return params[name]
    if required:
        raise SchemaError(f"missing builder parameter {name!r}")
    return default


def _number(value, kind, name: str):
    """kind(value) (int or float); a malformed number, a boolean, or a
    fraction given for an int is a schema error, never truncated."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be {kind.__name__}, got {value!r}") from exc


def _num(params: dict, name: str, kind, required: bool = True, default=None):
    """A numeric builder parameter; an absent optional one gives default."""
    value = _param(params, name, required, default)
    return value if value is None else _number(value, kind, name)


def _floats(params: dict, name: str, required: bool = True):
    """A list-of-floats builder parameter, or None when an optional one is absent."""
    values = _param(params, name, required)
    if values is None:
        return None
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of numbers")
    return [_number(v, float, name) for v in values]


def _inline_triple(obj, name: str) -> SpectralTripleModel:
    """A raw spectral triple given by matrices; used for the even/base
    factor of product and crossed-product files."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    dirac = _matrix_from_json(_param(obj, "dirac"), f"{name}.dirac")
    basis_obj = _param(obj, "basis")
    if not isinstance(basis_obj, list) or not basis_obj:
        raise SchemaError(f"{name}.basis must be a nonempty list")
    basis = tuple(_matrix_from_json(b, f"{name}.basis[{i}]")
                  for i, b in enumerate(basis_obj))
    grading = None
    if obj.get("grading") is not None:
        grading = _matrix_from_json(obj["grading"], f"{name}.grading")
    return SpectralTripleModel(
        hilbert_dim=dirac.shape[0], algebra_basis=basis, dirac=dirac,
        label=str(obj.get("label", name)), grading=grading)


def _edges_from_json(obj) -> list:
    """[i, j, weight] triples: integer endpoints, a number or [re, im] weight."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("edges must be a nonempty list of [i, j, weight]")
    edges = []
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"edge must be [i, j, weight]: {entry!r}")
        i, j, w = entry
        if not (_is_int(i) and _is_int(j)):
            raise SchemaError(f"edge endpoints must be integers: {entry!r}")
        edges.append((i, j, _scalar_from_json(w)))
    return edges


def _state(model: SpectralTripleModel, kind: str, value, name: str) -> StateFunctional:
    """The state of one kind: "vertex" and "pure" take an index, "density"
    the rows of a matrix.  name labels value in error messages."""
    if kind == "vertex":
        return vertex_state(model, _number(value, int, name))
    if kind == "pure":
        return pure_state(model.hilbert_dim, _number(value, int, name))
    return StateFunctional(_matrix_from_json(value, name))


def _state_from_json(model: SpectralTripleModel, obj) -> StateFunctional:
    """A model file's state: {"vertex": i}, {"pure_index": i} or
    {"density": rows}; the first key present, in that order, counts."""
    for kind, key, name in (("vertex", "vertex", "vertex"),
                            ("pure", "pure_index", "pure_index"),
                            ("density", "density", "state.density")):
        if isinstance(obj, dict) and key in obj:
            return _state(model, kind, obj[key], name)
    raise SchemaError("state must carry one of: vertex, pure_index, density")


def _state_from_token(model: SpectralTripleModel, token: str) -> StateFunctional:
    """A --states token: vertex:<i>, pure:<i> or density:<file>, the file
    holding the density's rows as JSON."""
    kind, _, arg = token.partition(":")
    if kind not in ("vertex", "pure", "density") or not arg:
        raise SchemaError(
            f"bad state {token!r}: use vertex:<i>, pure:<i>, or density:<file>")
    if kind == "density":
        try:
            with open(arg, "r") as handle:
                arg = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"cannot read density file {arg!r}: {exc}") from exc
    return _state(model, kind, arg, kind)


def _build_from_spec(spec: ModelSpecFile):
    """Instantiate the named builder, one of BUILDER_NAMES (_spec checks
    it).  Parameter-name errors are schema errors; value errors surface as
    PreconditionError from the builders.  Every builder takes the optional
    label parameter."""
    p = spec.params
    label = str(_param(p, "label", required=False, default=""))
    if spec.builder == "torus":
        return build_torus_triple(
            g_base=_num(p, "g_base", int),
            g_fiber=_num(p, "g_fiber", int),
            theta=_matrix_from_json(_param(p, "theta"), "theta").real,
            cutoff=_num(p, "cutoff", int),
            weights=_floats(p, "weights", required=False),
            monomial_cap=_num(p, "monomial_cap", int, required=False, default=1),
            materialize=str(_param(p, "materialize", required=False,
                                   default="auto")),
            label=label)
    if spec.builder == "circle_bundle":
        family = build_circle_bundle_blocks(
            base_eigenvalues=_floats(p, "base_eigenvalues"),
            fiber_length_scale=_num(p, "fiber_length_scale", float),
            k_min=_num(p, "k_min", int), k_max=_num(p, "k_max", int))
        return family.as_decomposition(label=label)
    if spec.builder == "product":
        even = _inline_triple(_param(p, "even"), "even")
        vertical = _matrix_from_json(_param(p, "vertical"), "vertical")
        return build_product_triple(even, vertical, label=label)
    if spec.builder == "crossed_product":
        base = _inline_triple(_param(p, "base"), "base")
        phases = _param(p, "phases", required=False)
        if phases is not None:
            phases = _matrix_from_json(phases, "phases").real
        return build_crossed_product_model(
            base, _num(p, "d", int), _num(p, "cutoff", int),
            phases=phases,
            vertical_defect=_num(p, "vertical_defect", float,
                                 required=False, default=0.0),
            label=label)
    if spec.builder == "point_collapse":
        inner_obj = _param(p, "model")
        if not isinstance(inner_obj, dict):
            raise SchemaError("point_collapse model must be an object")
        inner = _build_from_spec(_spec(
            str(inner_obj.get("builder", "")), inner_obj.get("params", {}),
            spec.seed, " for point_collapse model"))
        if not isinstance(inner, SpectralTripleModel):
            raise SchemaError("point_collapse model must be a plain triple")
        state = _state_from_json(inner, _param(p, "state"))
        return build_point_collapse(inner, state, label=label)
    if spec.builder == "graph":
        return build_graph_model(
            _edges_from_json(_param(p, "edges")),
            n_vertices=_num(p, "n_vertices", int, required=False),
            label=label)
    if spec.builder == "cycle_adjacency":
        return build_cycle_adjacency_model(
            _num(p, "n", int),
            weight=_num(p, "weight", float, required=False, default=1.0),
            label=label)


@dataclass(frozen=True)
class LoadedModel:
    spec: ModelSpecFile
    path: str
    sha256: str
    decomposition: object          # DecomposedTripleModel or None
    model: SpectralTripleModel


def load_model(path: str) -> LoadedModel:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read model file: {exc}") from exc
    spec = parse_model_spec(text)
    built = _build_from_spec(spec)
    if isinstance(built, SpectralTripleModel):
        dec, model = None, built
    else:
        dec, model = built, built.total
    return LoadedModel(spec=spec, path=path,
                       sha256=hashlib.sha256(data).hexdigest(),
                       decomposition=dec, model=model)


def _metadata(loaded: LoadedModel, seed: int) -> dict:
    return {
        "tool_version": __version__,
        "model_sha256": loaded.sha256,
        "model_label": loaded.model.label,
        "builder": loaded.spec.builder,
        "seed": seed,
    }


def _require_decomposition(loaded: LoadedModel):
    if loaded.decomposition is None:
        raise PreconditionError(
            f"builder {loaded.spec.builder!r} yields no "
            "horizontal/vertical decomposition")
    return loaded.decomposition


# ------------------------------------------------------------ eps grid flag

def parse_eps_grid(text: Optional[str]):
    """Comma-separated values, or geometric:start:ratio:count."""
    if text is None:
        return None
    if text.startswith("geometric:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise SchemaError("geometric grid needs start:ratio:count")
        try:
            start, ratio, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise SchemaError(f"bad geometric grid: {exc}") from exc
        if count < 1:
            raise SchemaError("geometric grid needs a positive count")
        return tuple(start * ratio ** i for i in range(count))
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise SchemaError(f"bad eps grid: {exc}") from exc
    if not values:
        raise SchemaError("empty eps grid")
    return values


# ---------------------------------------------------------------- commands

def cmd_build(args, loaded: LoadedModel, seed: int) -> int:
    """The model's shape and, when decomposed, its gap, window and sectors."""
    dec = loaded.decomposition
    info = {
        "metadata": _metadata(loaded, seed),
        "hilbert_dim": loaded.model.hilbert_dim,
        "algebra_dim": len(loaded.model.algebra_basis),
        "decomposed": dec is not None,
    }
    if dec is not None:
        info["vertical_gap"] = dec.vertical_gap
        info["group_diameter"] = dec.group_diameter
        info["reliable_window"] = dec.reliable_window
        info["sector_count"] = len(dec.sectors()[1])
    _emit(args.out, _json_text(info))
    if args.out is not None:
        print(f"model {loaded.model.label}: dim {loaded.model.hilbert_dim}, "
              f"report {args.out}")
    return EXIT_OK


def cmd_spectrum(args, loaded: LoadedModel, seed: int) -> int:
    """Eigenvalues of d_h + d_v / eps; a model without a decomposition has
    only eps = 1, its own Dirac."""
    dec = loaded.decomposition
    if dec is None and args.eps != 1.0:
        raise PreconditionError("eps rescaling requires a decomposed model")
    op = loaded.model.dirac if dec is None else dec.dirac_at(args.eps)
    rows = [f"{i},{_fmt(v)}" for i, v in enumerate(hermitian_spectrum(op))]
    _emit(args.out, "\n".join(["index,eigenvalue"] + rows) + "\n")
    return EXIT_OK


def _sweep_rows(result) -> str:
    """The sweep table: one row per eps and sector track."""
    lines = ["eps,sector,track_index,eigenvalue"]
    keys = sorted(result.sector_tracks.keys())
    for i, eps in enumerate(result.eps_grid):
        eps_cell = _fmt(eps)
        for label, j in keys:
            value = result.sector_tracks[(label, j)][i]
            sector = ":".join(str(int(c)) for c in label)
            lines.append(f"{eps_cell},{sector},{j},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _sweep_doc(loaded: LoadedModel, seed: int, result) -> dict:
    """The sweep summary: sweep writes it next to its table, report
    bundles it."""
    return {
        "metadata": _metadata(loaded, seed),
        "window": result.window,
        "tracking_method": result.tracking_method,
        "vertical_gap": result.vertical_gap,
        "horizontal_norm": result.horizontal_norm,
        "eps_grid": list(result.eps_grid),
        "hausdorff_curve": list(result.hausdorff_curve),
        "bound_curve": list(result.bound_curve),
        "base_spectrum": list(result.base_spectrum),
        "tolerance_context": {
            "float_format": ".17g",
            "hausdorff_pass": HAUSDORFF_PASS_TOL,
            "infinite_sentinel": "inf",
        },
    }


def _summary_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return (root if ext else out) + ".summary.json"


def cmd_sweep(args, loaded: LoadedModel, seed: int) -> int:
    """The sweep table, and with --out its summary next to it."""
    dec = _require_decomposition(loaded)
    result = sweep(dec, eps_grid=parse_eps_grid(args.eps_grid), window=args.window)
    _emit(args.out, _sweep_rows(result))
    if args.out is not None:
        _write_text(_summary_path(args.out),
                    _json_text(_sweep_doc(loaded, seed, result)))
        final = result.hausdorff_curve[-1]
        print(f"sweep {loaded.model.label}: {len(result.eps_grid)} eps values, "
              f"final windowed hausdorff {_fmt(final)}")
    return EXIT_OK


def cmd_distance(args, loaded: LoadedModel, seed: int) -> int:
    """The distance between the two --states, by transport or ascent, or
    by the oracle."""
    model = loaded.model
    tokens = [t.strip() for t in args.states.split(",") if t.strip()]
    if len(tokens) != 2:
        raise SchemaError("--states needs exactly two comma-separated entries")
    check_dense_limit(model)   # before any dense state is built
    phi, psi = (_state_from_token(model, t) for t in tokens)
    lines = ["phi,psi,value,method,converged,tolerance"]
    if args.oracle:
        res = distance_bruteforce_oracle(model, phi, psi, seed=seed)
        lines.append(f"{tokens[0]},{tokens[1]},{_fmt(res.value)},oracle,"
                     f"True,{_fmt(res.accuracy)}")
    else:
        res = connes_distance(model, phi, psi,
                              iterations=args.iterations, seed=seed)
        tol = _fmt(TRANSPORT_TOL) if res.method == "exact-shortest-path" \
            else "one-sided"
        lines.append(f"{tokens[0]},{tokens[1]},{_fmt(res.value)},{res.method},"
                     f"{res.converged},{tol}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _audit_doc(loaded: LoadedModel, report, seed: int) -> dict:
    """The audit document: audit writes it, report bundles it."""
    return {
        "metadata": _metadata(loaded, seed),
        "eps_list": list(report.eps_list),
        "samples": report.samples,
        "all_passed": report.all_passed,
        "verdicts": [{"name": v.name, "passed": v.passed,
                      "worst_margin": v.worst_margin, "witness": v.witness}
                     for v in report.verdicts],
        "tolerance_context": {"margin_pass": 1e-9, "float_format": ".17g"},
    }


def cmd_audit(args, loaded: LoadedModel, seed: int) -> int:
    """The six-hypothesis audit; exit 5 when a hypothesis fails."""
    dec = _require_decomposition(loaded)
    report = hypothesis_audit(dec, samples=args.samples, seed=seed)
    _emit(args.out, _json_text(_audit_doc(loaded, report, seed)))
    if args.out is not None:
        for v in report.verdicts:
            state = "pass" if v.passed else "FAIL"
            print(f"{v.name}: {state} (worst margin {_fmt(v.worst_margin)})")
    return EXIT_OK if report.all_passed else EXIT_AUDIT


def cmd_report(args, loaded: LoadedModel, seed: int) -> int:
    """Shape plus sweep summary and audit, or the spectrum of a model
    without a decomposition; exit 5 when the audit fails."""
    bundle = {
        "metadata": _metadata(loaded, seed),
        "hilbert_dim": loaded.model.hilbert_dim,
        "algebra_dim": len(loaded.model.algebra_basis),
    }
    exit_code = EXIT_OK
    dec = loaded.decomposition
    if dec is not None:
        result = sweep(dec, eps_grid=parse_eps_grid(args.eps_grid), window=args.window)
        bundle["sweep"] = _sweep_doc(loaded, seed, result)
        report = hypothesis_audit(dec, samples=args.samples, seed=seed)
        bundle["audit"] = _audit_doc(loaded, report, seed)
        exit_code = EXIT_OK if report.all_passed else EXIT_AUDIT
    else:
        bundle["spectrum"] = list(hermitian_spectrum(loaded.model.dirac))
    _emit(args.out, _json_text(bundle))
    return exit_code


# ------------------------------------------------------------------ driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapselab",
        description="Build, sweep, audit, and measure collapse models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the model file seed")

    p = sub.add_parser("build", help="construct the model and report shape")
    add_common(p)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("spectrum", help="eigenvalues at one eps")
    add_common(p)
    p.add_argument("--eps", type=float, default=1.0, help="rescaling parameter")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("sweep", help="spectral sweep over an eps grid")
    add_common(p)
    p.add_argument("--eps-grid", default=None,
                   help='comma list or "geometric:start:ratio:count"')
    p.add_argument("--window", type=float, default=None,
                   help="windowed comparison half-width")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("distance", help="state distance table")
    add_common(p)
    p.add_argument("--states", required=True,
                   help="two states: vertex:<i>, pure:<i>, or density:<file>")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle")
    p.add_argument("--iterations", type=int, default=2000)
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("audit", help="six-hypothesis audit")
    add_common(p)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("report", help="combined report bundle")
    add_common(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--eps-grid", default=None)
    p.add_argument("--window", type=float, default=None)
    p.set_defaults(handler=cmd_report)
    return parser


#: exit code of each error a command raises; the first match counts, so
#: WindowError comes before its base PreconditionError
ERROR_EXITS = {
    SchemaError: EXIT_PARSE,
    WindowError: EXIT_WINDOW,
    PreconditionError: EXIT_PRECONDITION,
}


def main(argv=None) -> int:
    """Load the --model file and run one command on it, with --seed or else
    the file's seed; the command's exit code, or the code ERROR_EXITS gives
    the error it raised, whose message goes to stderr."""
    args = build_parser().parse_args(argv)
    try:
        seed = None if args.seed is None else _seed(args.seed, "--seed")
        loaded = load_model(args.model)
        return args.handler(args, loaded, loaded.spec.seed if seed is None else seed)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
