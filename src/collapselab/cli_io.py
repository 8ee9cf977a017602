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
from .estimates import AUDIT_MARGIN_TOL, AUDIT_SAMPLES, hypothesis_audit
from .qmetric import (
    ASCENT_ITERATIONS,
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
    are read this strictly; builder parameters go through _int and _float."""
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
    _declaration(doc["builder"], doc["params"], "")
    return ModelSpecFile(SCHEMA_VERSION, doc["builder"], doc["params"],
                         _seed(doc["seed"], "seed"))


def _seed(value, name: str) -> int:
    """A run seed: numpy's seeding accepts only non-negative integers."""
    if not _is_int(value) or value < 0:
        raise SchemaError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _number(kind):
    """The reader of a kind (int or float) number: a malformed number, a
    boolean, or a fraction given for an int is a schema error, never
    truncated."""
    def read(value, name: str):
        try:
            if isinstance(value, bool) or (
                    kind is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError(value)
            return kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{name} must be {kind.__name__}, got {value!r}") from exc
    return read


_int, _float = _number(int), _number(float)


def _text(value, name: str) -> str:
    return str(value)


def _as_is(value, name: str):
    return value


def _floats(values, name: str) -> list:
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of numbers")
    return [_float(v, name) for v in values]


def _real_matrix(obj, name: str) -> np.ndarray:
    return _matrix_from_json(obj, name).real


def _basis(obj, name: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{name} must be a nonempty list")
    return tuple(_matrix_from_json(b, f"{name}[{i}]") for i, b in enumerate(obj))


def _edges_from_json(obj, name: str) -> list:
    """[i, j, weight] triples: integer endpoints, a number or [re, im] weight."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{name} must be a nonempty list of [i, j, weight]")
    edges = []
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"edge must be [i, j, weight]: {entry!r}")
        i, j, w = entry
        if not (_is_int(i) and _is_int(j)):
            raise SchemaError(f"edge endpoints must be integers: {entry!r}")
        edges.append((i, j, _scalar_from_json(w)))
    return edges


def _read_keys(obj, required: dict, optional: dict, name: str) -> dict:
    """The keys of the JSON object obj, each read by the reader its
    declaration gives: a function of the key's value and of the name
    messages give it, name.key (key alone when name is empty).  A required
    key that is absent or null is missing; an optional one is left out, so
    the callee's own default applies; any undeclared key is a schema error."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object")
    path = f"{name}." if name else ""
    unknown = sorted(obj.keys() - required.keys() - optional.keys())
    if unknown:
        raise SchemaError(f"unknown keys: {[path + key for key in unknown]}")
    read = {}
    for key, reader in {**required, **optional}.items():
        if obj.get(key) is not None:
            read[key] = reader(obj[key], path + key)
        elif key in required:
            raise SchemaError(f"missing key {path + key!r}")
    return read


def _inline_triple(obj, name: str) -> SpectralTripleModel:
    """A raw spectral triple given by matrices; used for the even/base
    factor of product and crossed-product files."""
    keys = _read_keys(obj, {"dirac": _matrix_from_json, "basis": _basis},
                      {"grading": _matrix_from_json, "label": _text}, name)
    return SpectralTripleModel(hilbert_dim=keys["dirac"].shape[0],
                               algebra_basis=keys.pop("basis"), **keys)


#: each kind of state, by its key in a model file's state: the reader of its
#: value, then the state of a model that the value read names
STATES = {"vertex": (_int, vertex_state),
          "pure_index": (_int, lambda model, i: pure_state(model.hilbert_dim, i)),
          "density": (_matrix_from_json, lambda model, rows: StateFunctional(rows))}


def _state_from_json(model: SpectralTripleModel, obj) -> StateFunctional:
    """A model file's state: exactly one of {"vertex": i}, {"pure_index": i}
    and {"density": rows}, and no other key."""
    if not isinstance(obj, dict) or sum(obj.get(k) is not None for k in STATES) != 1:
        raise SchemaError("state must carry one of: vertex, pure_index, density")
    readers = {key: reader for key, (reader, _) in STATES.items()}
    (key, value), = _read_keys(obj, {}, readers, "state").items()
    return STATES[key][1](model, value)


def _state_from_token(model: SpectralTripleModel, token: str) -> StateFunctional:
    """A --states token: vertex:<i>, pure:<i> or density:<file>, the file
    holding the density's rows as JSON."""
    kind, _, arg = token.partition(":")
    key = {"vertex": "vertex", "pure": "pure_index", "density": "density"}.get(kind)
    if key is None or not arg:
        raise SchemaError(
            f"bad state {token!r}: use vertex:<i>, pure:<i>, or density:<file>")
    if kind == "density":
        try:
            with open(arg, "r") as handle:
                arg = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"cannot read density file {arg!r}: {exc}") from exc
    reader, state = STATES[key]
    return state(model, reader(arg, kind))


def _circle_bundle(**params):
    """The circle-bundle block family as a decomposed model."""
    label = {"label": params.pop("label")} if "label" in params else {}
    return build_circle_bundle_blocks(**params).as_decomposition(**label)


def _point_collapse(model, state, **label):
    """The point collapse of model, a nested builder and params that give a
    plain triple, onto a state of that triple."""
    spec = _read_keys(model, {"builder": _as_is, "params": _as_is}, {}, "model")
    inner = _build(spec["builder"], spec["params"], " for point_collapse model")
    if not isinstance(inner, SpectralTripleModel):
        raise SchemaError("point_collapse model must be a plain triple")
    return build_point_collapse(inner, _state_from_json(inner, state), **label)


#: each builder a model file can name: the name of the function its params
#: go to, then its required and its optional keys, each with its reader, in
#: the order they are read.  The function is looked up by name when a model
#: is built, so a wrapper patched over it (a tracer, a test double) is the
#: one called.  An optional key that is absent or null is not passed, so the
#: function's own default applies.  graph and cycle_adjacency extend the
#: core set so distance fixtures ship in the same format.
BUILDERS = {
    "torus": ("build_torus_triple",
              {"g_base": _int, "g_fiber": _int, "theta": _real_matrix, "cutoff": _int},
              {"weights": _floats, "monomial_cap": _int, "materialize": _text,
               "label": _text}),
    "circle_bundle": ("_circle_bundle",
                      {"base_eigenvalues": _floats, "fiber_length_scale": _float,
                       "k_min": _int, "k_max": _int},
                      {"label": _text}),
    "product": ("build_product_triple",
                {"even": _inline_triple, "vertical": _matrix_from_json},
                {"label": _text}),
    "crossed_product": ("build_crossed_product_model",
                        {"base": _inline_triple, "d": _int, "cutoff": _int},
                        {"phases": _real_matrix, "vertical_defect": _float,
                         "label": _text}),
    "point_collapse": ("_point_collapse",
                       {"model": _as_is, "state": _as_is},
                       {"label": _text}),
    "graph": ("build_graph_model",
              {"edges": _edges_from_json},
              {"n_vertices": _int, "label": _text}),
    "cycle_adjacency": ("build_cycle_adjacency_model",
                        {"n": _int},
                        {"weight": _float, "label": _text}),
}


def _declaration(builder, params, where: str):
    """The BUILDERS entry of a known builder whose params is an object;
    where names a nested spec in the unknown-builder message."""
    if not isinstance(builder, str) or builder not in BUILDERS:
        raise SchemaError(f"unknown builder {builder!r}{where}")
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    return BUILDERS[builder]


def _build(builder, params, where: str):
    """The model a builder's params give.  Key errors are schema errors;
    value errors surface as PreconditionError from the builders."""
    build, required, optional = _declaration(builder, params, where)
    return globals()[build](**_read_keys(params, required, optional, ""))


@dataclass(frozen=True)
class LoadedModel:
    spec: ModelSpecFile
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
    built = _build(spec.builder, spec.params, "")
    if isinstance(built, SpectralTripleModel):
        dec, model = None, built
    else:
        dec, model = built, built.total
    return LoadedModel(spec=spec, sha256=hashlib.sha256(data).hexdigest(),
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
        "tolerance_context": {"margin_pass": AUDIT_MARGIN_TOL, "float_format": ".17g"},
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
    # each option is declared once, in the option group of every command
    # that takes it
    common, sweeping, auditing, rescaling, measuring = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    common.add_argument("--model", required=True, help="model JSON file")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--seed", type=int, help="override the model file seed")
    sweeping.add_argument("--eps-grid",
                          help='comma list or "geometric:start:ratio:count"')
    sweeping.add_argument("--window", type=float, help="windowed comparison half-width")
    auditing.add_argument("--samples", type=int, default=AUDIT_SAMPLES,
                          help="random self-adjoint elements the audit draws")
    rescaling.add_argument("--eps", type=float, default=1.0, help="rescaling parameter")
    measuring.add_argument("--states", required=True,
                           help="two states: vertex:<i>, pure:<i>, or density:<file>")
    measuring.add_argument("--oracle", action="store_true",
                           help="use the brute-force oracle")
    measuring.add_argument("--iterations", type=int, default=ASCENT_ITERATIONS,
                           help="projected ascent steps, split over its seeded starts")
    for name, handler, groups, text in (
            ("build", cmd_build, [], "construct the model and report shape"),
            ("spectrum", cmd_spectrum, [rescaling], "eigenvalues at one eps"),
            ("sweep", cmd_sweep, [sweeping], "spectral sweep over an eps grid"),
            ("distance", cmd_distance, [measuring], "state distance table"),
            ("audit", cmd_audit, [auditing], "six-hypothesis audit"),
            ("report", cmd_report, [auditing, sweeping], "combined report bundle")):
        sub.add_parser(name, parents=[common] + groups, help=text).set_defaults(
            handler=handler)
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
