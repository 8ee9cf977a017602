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
from dataclasses import dataclass
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
from .collapse import WindowError, rescale, sweep
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


def _scalar_from_json(entry) -> complex:
    """A number or [re, im]; booleans, which Python counts as ints, are not."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        return complex(*parts)
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


# ------------------------------------------------------------- model files

@dataclass(frozen=True)
class ModelSpecFile:
    """Parsed model document.  Round-trip stable: parse(emit(x)) == x."""

    schema_version: int
    builder: str
    params: dict
    seed: int

    def emit(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "builder": self.builder,
            "params": self.params,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_model_spec(text: str) -> ModelSpecFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version {doc['schema_version']!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    if doc["builder"] not in BUILDER_NAMES:
        raise SchemaError(f"unknown builder {doc['builder']!r}")
    if not isinstance(doc["params"], dict):
        raise SchemaError("params must be an object")
    return ModelSpecFile(schema_version=int(doc["schema_version"]),
                         builder=doc["builder"], params=doc["params"],
                         seed=_seed(doc["seed"], "seed"))


def _seed(value, name: str) -> int:
    """A run seed: numpy's seeding accepts only non-negative integers."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
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
    if not isinstance(obj, list) or not obj:
        raise SchemaError("edges must be a nonempty list of [i, j, weight]")
    edges = []
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"edge must be [i, j, weight]: {entry!r}")
        i, j, w = entry
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in (i, j)):
            raise SchemaError(f"edge endpoints must be integers: {entry!r}")
        edges.append((i, j, _scalar_from_json(w)))
    return edges


def _state_from_json(model: SpectralTripleModel, obj) -> StateFunctional:
    if isinstance(obj, dict) and "vertex" in obj:
        return vertex_state(model, _number(obj["vertex"], int, "vertex"))
    if isinstance(obj, dict) and "pure_index" in obj:
        return pure_state(model.hilbert_dim, _number(obj["pure_index"], int, "pure_index"))
    if isinstance(obj, dict) and "density" in obj:
        return StateFunctional(_matrix_from_json(obj["density"], "state.density"))
    raise SchemaError(
        "state must carry one of: vertex, pure_index, density")


def _build_from_spec(spec: ModelSpecFile):
    """Instantiate the named builder.  Parameter-name errors are schema
    errors; value errors surface as PreconditionError from the builders."""
    p = spec.params
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
            label=str(_param(p, "label", required=False, default="")))
    if spec.builder == "circle_bundle":
        family = build_circle_bundle_blocks(
            base_eigenvalues=_floats(p, "base_eigenvalues"),
            fiber_length_scale=_num(p, "fiber_length_scale", float),
            k_min=_num(p, "k_min", int), k_max=_num(p, "k_max", int))
        return family.as_decomposition(
            label=str(_param(p, "label", required=False, default="")))
    if spec.builder == "product":
        even = _inline_triple(_param(p, "even"), "even")
        vertical = _matrix_from_json(_param(p, "vertical"), "vertical")
        return build_product_triple(
            even, vertical,
            label=str(_param(p, "label", required=False, default="")))
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
            label=str(_param(p, "label", required=False, default="")))
    if spec.builder == "point_collapse":
        inner_obj = _param(p, "model")
        if not isinstance(inner_obj, dict):
            raise SchemaError("point_collapse model must be an object")
        inner_spec = ModelSpecFile(
            schema_version=SCHEMA_VERSION,
            builder=str(inner_obj.get("builder", "")),
            params=inner_obj.get("params", {}), seed=spec.seed)
        if inner_spec.builder not in BUILDER_NAMES:
            raise SchemaError(
                f"unknown builder {inner_spec.builder!r} for point_collapse model")
        if not isinstance(inner_spec.params, dict):
            raise SchemaError("params must be an object")
        inner = _build_from_spec(inner_spec)
        if not isinstance(inner, SpectralTripleModel):
            raise SchemaError("point_collapse model must be a plain triple")
        state = _state_from_json(inner, _param(p, "state"))
        return build_point_collapse(
            inner, state,
            label=str(_param(p, "label", required=False, default="")))
    if spec.builder == "graph":
        return build_graph_model(
            _edges_from_json(_param(p, "edges")),
            n_vertices=_num(p, "n_vertices", int, required=False),
            label=str(_param(p, "label", required=False, default="")))
    if spec.builder == "cycle_adjacency":
        return build_cycle_adjacency_model(
            _num(p, "n", int),
            weight=_num(p, "weight", float, required=False, default=1.0),
            label=str(_param(p, "label", required=False, default="")))
    raise SchemaError(f"unknown builder {spec.builder!r}")


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

def _sector_cell(label: tuple) -> str:
    return ":".join(str(int(c)) for c in label)


def cmd_build(args) -> int:
    loaded = load_model(args.model)
    seed = args.seed if args.seed is not None else loaded.spec.seed
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
    text = json.dumps(_jsonable(info), indent=2, sort_keys=True) + "\n"
    _emit(args.out, text)
    if args.out is not None:
        print(f"model {loaded.model.label}: dim {loaded.model.hilbert_dim}, "
              f"report {args.out}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    loaded = load_model(args.model)
    eps = args.eps
    if loaded.decomposition is not None:
        op = rescale(loaded.decomposition, eps)
    else:
        if eps != 1.0:
            raise PreconditionError(
                "eps rescaling requires a decomposed model")
        op = loaded.model.dirac
    values = hermitian_spectrum(op)
    lines = ["index,eigenvalue"]
    for i, v in enumerate(values):
        lines.append(f"{i},{_fmt(v)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _sweep_rows(result) -> str:
    lines = ["eps,sector,track_index,eigenvalue"]
    keys = sorted(result.sector_tracks.keys())
    for i, eps in enumerate(result.eps_grid):
        eps_cell = _fmt(eps)
        for label, j in keys:
            value = result.sector_tracks[(label, j)][i]
            lines.append(f"{eps_cell},{_sector_cell(label)},{j},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _sweep_summary(loaded: LoadedModel, seed: int, result) -> str:
    doc = {
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
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _summary_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return (root if ext else out) + ".summary.json"


def cmd_sweep(args) -> int:
    loaded = load_model(args.model)
    dec = _require_decomposition(loaded)
    seed = args.seed if args.seed is not None else loaded.spec.seed
    grid = parse_eps_grid(args.eps_grid)
    window = float(args.window) if args.window is not None else None
    result = sweep(dec, eps_grid=grid, window=window)
    _emit(args.out, _sweep_rows(result))
    if args.out is not None:
        _write_text(_summary_path(args.out),
                    _sweep_summary(loaded, seed, result))
        final = result.hausdorff_curve[-1]
        print(f"sweep {loaded.model.label}: {len(result.eps_grid)} eps values, "
              f"final windowed hausdorff {_fmt(final)}")
    return EXIT_OK


def cmd_distance(args) -> int:
    loaded = load_model(args.model)
    model = loaded.model
    seed = args.seed if args.seed is not None else loaded.spec.seed
    tokens = [t.strip() for t in args.states.split(",") if t.strip()]
    if len(tokens) != 2:
        raise SchemaError("--states needs exactly two comma-separated entries")

    def parse_state(token: str) -> StateFunctional:
        kind, _, arg = token.partition(":")
        if kind == "vertex" and arg:
            return vertex_state(model, _number(arg, int, "vertex"))
        if kind == "pure" and arg:
            return pure_state(model.hilbert_dim, _number(arg, int, "pure"))
        if kind == "density" and arg:
            try:
                with open(arg, "r") as handle:
                    doc = json.load(handle)
            except (OSError, ValueError) as exc:
                raise SchemaError(f"cannot read density file {arg!r}: {exc}") from exc
            return StateFunctional(_matrix_from_json(doc, "density"))
        raise SchemaError(
            f"bad state {token!r}: use vertex:<i>, pure:<i>, or density:<file>")

    check_dense_limit(model)   # before any dense state is built
    phi, psi = parse_state(tokens[0]), parse_state(tokens[1])
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
    return {
        "metadata": _metadata(loaded, seed),
        "eps_list": list(report.eps_list),
        "samples": report.samples,
        "all_passed": report.all_passed,
        "verdicts": [
            {
                "name": v.name,
                "passed": v.passed,
                "worst_margin": v.worst_margin,
                "witness": v.witness,
            }
            for v in report.verdicts
        ],
        "tolerance_context": {"margin_pass": 1e-9, "float_format": ".17g"},
    }


def cmd_audit(args) -> int:
    loaded = load_model(args.model)
    dec = _require_decomposition(loaded)
    seed = args.seed if args.seed is not None else loaded.spec.seed
    report = hypothesis_audit(dec, samples=args.samples, seed=seed)
    text = json.dumps(_jsonable(_audit_doc(loaded, report, seed)),
                      indent=2, sort_keys=True) + "\n"
    _emit(args.out, text)
    if args.out is not None:
        for v in report.verdicts:
            state = "pass" if v.passed else "FAIL"
            print(f"{v.name}: {state} (worst margin {_fmt(v.worst_margin)})")
    return EXIT_OK if report.all_passed else EXIT_AUDIT


def cmd_report(args) -> int:
    loaded = load_model(args.model)
    seed = args.seed if args.seed is not None else loaded.spec.seed
    bundle = {
        "metadata": _metadata(loaded, seed),
        "hilbert_dim": loaded.model.hilbert_dim,
        "algebra_dim": len(loaded.model.algebra_basis),
    }
    exit_code = EXIT_OK
    if loaded.decomposition is not None:
        dec = loaded.decomposition
        grid = parse_eps_grid(args.eps_grid)
        window = float(args.window) if args.window is not None else None
        result = sweep(dec, eps_grid=grid, window=window)
        bundle["sweep"] = json.loads(_sweep_summary(loaded, seed, result))
        report = hypothesis_audit(dec, samples=args.samples, seed=seed)
        bundle["audit"] = _audit_doc(loaded, report, seed)
        if not report.all_passed:
            exit_code = EXIT_AUDIT
    else:
        values = hermitian_spectrum(loaded.model.dirac)
        bundle["spectrum"] = list(values)
    text = json.dumps(_jsonable(bundle), indent=2, sort_keys=True) + "\n"
    _emit(args.out, text)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
