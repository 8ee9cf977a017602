"""Statement census: which statements of src/collapselab a test run reaches.

Runs pytest in this process under a stdlib ``sys.settrace`` tracer that
records line events in src/collapselab only, then prints the reached share
and every statement that no test reached, as ``file:line  source``.

    PYTHONPATH=src python3 tools/census.py                 # all of tests/
    PYTHONPATH=src python3 tools/census.py tests/test_core.py -k spectrum

A statement counts when one of its own lines holds bytecode: all lines of a
simple statement, the header lines of a compound one (decorators through the
line before its body).  Docstrings are not statements.  Code that tests run
in a subprocess (``python -O`` checks, CLI subprocesses) is not traced.
The exit status is pytest's.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(os.path.realpath(ROOT / "src" / "collapselab"))


def _code_lines(code) -> set:
    """Lines that hold bytecode, in a code object and all nested ones."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list:
    """(first line, own lines) of every executable statement in a module."""
    text = path.read_text()
    executable = _code_lines(compile(text, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        own = set(range(first, max(first, last) + 1)) & executable
        if own:
            out.append((first, own))
    return sorted(out, key=lambda s: s[0])


def trace_run(pytest_args: list) -> tuple:
    """Run pytest under the tracer; return (exit status, {file: lines hit})."""
    prefix = str(SRC) + os.sep
    hits: dict = {}
    owned: dict = {}   # co_filename -> its set in hits, or None outside SRC

    def local(frame, event, arg):
        if event == "line":
            owned[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owned:
            path = os.path.realpath(name)
            owned[name] = hits.setdefault(path, set()) \
                if path.startswith(prefix) else None
        return local if owned[name] is not None else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list) -> int:
    status, hits = trace_run(argv or [str(ROOT / "tests")])
    total = reached = 0
    missed = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        seen = hits.get(os.path.realpath(path), set())
        for first, own in statements(path):
            total += 1
            if own & seen:
                reached += 1
            else:
                missed.append(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
    print(f"\ncensus: {reached} of {total} statements reached "
          f"({100.0 * reached / max(total, 1):.1f}%), {len(missed)} not reached")
    for line in missed:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
