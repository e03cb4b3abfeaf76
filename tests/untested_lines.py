#!/usr/bin/env python3
"""The statements of the package that the test suite never runs.

    python3 tests/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process (by default on tests/, as the tier-1 suite
does) under sys.settrace, which records every line executed in a file of
src/fortetbridge.  Then it prints each statement inside a function body
whose lines, the header's for a compound statement, hold code and none of
which ran, as `module.py:line: source`, and then their count.  A
docstring, a `global` or any other line that compiles to no code is not a
statement here.  The exit code is 0 when every such statement ran, 1
otherwise.  Pytest does not collect this script.

Three limits:
- tracing slows the suite about 1.5-2x (15 s against 10 s on a 2-core
  VM) and breaks its tracemalloc bounds (test_band_product_copies_no_band,
  say), so the outcomes of the tests under it are not the suite's own;
- code that runs in a subprocess (a `python -m fortetbridge.cli` test) is
  not traced, so a statement only such a test reaches is listed;
- lines are traced, not branches, so a conditional expression counts as
  run whichever arm it takes: the untaken arm of `x if c else y` is not
  listed (run_fortet's "fixed point exceeded 1" warning read as run before
  a test took it).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fortetbridge"


def code_lines(code) -> set:
    """The lines that hold code in code and in every code object nested in
    it, the module's own top level excepted by the caller."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def header(stmt: ast.stmt) -> range:
    """The lines of stmt that run as it starts: all of a simple statement,
    and a compound one's decorators and header up to its first body line."""
    body = getattr(stmt, "body", None)
    if not isinstance(body, list) or not body:
        return range(stmt.lineno, stmt.end_lineno + 1)
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    return range(first, max(body[0].lineno, stmt.lineno + 1))


def body_statements(node: ast.AST, in_function: bool = False):
    """Every statement nested in a function body under node."""
    inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for child in ast.iter_child_nodes(node):
        if inside and isinstance(child, ast.stmt):
            yield child
        yield from body_statements(child, inside)


def statements(path: Path):
    """(header lines, source of its first line) of each statement in a
    function body of the module at path whose header holds code."""
    source = path.read_text()
    module = compile(source, str(path), "exec")
    held = set()
    for const in module.co_consts:
        if hasattr(const, "co_lines"):
            held |= code_lines(const)
    lines = source.splitlines()
    for stmt in body_statements(ast.parse(source)):
        span = header(stmt)
        if held.intersection(span):
            yield span, lines[stmt.lineno - 1].strip()


def trace_suite(args) -> dict:
    """{path: executed lines} of the package's files in a run of pytest on
    args; the run's outcome is not read (module docstring)."""
    import pytest
    prefix = str(PACKAGE) + "/"
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider",
                                                            str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    executed = trace_suite(args)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        missed += [f"{path.name}:{span.start}: {text}"
                   for span, text in statements(path) if not ran.intersection(span)]
    for line in missed:
        print(line)
    print(f"{len(missed)} untested statements")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
