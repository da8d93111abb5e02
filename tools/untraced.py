"""List the statements of a Python package that no test executes.

    python3 tools/untraced.py                          # src/dnflow under tests/
    python3 tools/untraced.py -q tests/test_cli.py     # any pytest arguments
    python3 tools/untraced.py --package DIR [ARGS...]  # any package

Runs pytest in this process under ``sys.settrace``, tracing only the frames
whose code lives in the package, and prints ``module:line: source`` for each
statement that no test executed, then their count.  Definitions (``def``,
``class``), imports and docstrings are not counted.  A compound statement
counts as executed when its header line ran, a simple one when any of its
lines ran.  The exit status is pytest's.

Only the thread that runs pytest is traced, not other threads or
subprocesses, so code that runs only in a fresh interpreter is listed
although a test runs it: dnflow's ``__main__.py``, and
``_load_flapack``, which runs only before any ``scipy.linalg`` import, so
only in a process of its own.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

from code_lines import docstring_lines

_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                ast.ImportFrom)


def statements(source: str) -> dict[int, set[int]]:
    """Each counted statement's first line, mapped to the lines whose
    execution shows that it ran."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    found = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED)
                or node.lineno in docs):
            continue
        body = getattr(node, "body", None)  # a compound statement's header ends at its body
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found.setdefault(node.lineno, set()).update(range(node.lineno, end + 1))
    return found


def run_traced(package: Path, pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """(pytest's exit status, the lines executed in each module of package,
    an absolute path)."""
    hits: dict[str, set[int] | None] = {}  # co_filename -> its lines, None outside package

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hits:
            hits[name] = set() if Path(name).resolve().is_relative_to(package) else None
        return None if hits[name] is None else trace_lines

    sys.path.insert(0, str(package.parent))
    # The package's tests may start interpreters of their own; untraced,
    # they still import the same package.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    executed: dict[Path, set[int]] = {}
    for name, lines in hits.items():
        if lines is not None:
            executed.setdefault(Path(name).resolve(), set()).update(lines)
    return int(status), executed


def main(argv: list[str]) -> int:
    package = Path(__file__).resolve().parent.parent / "src" / "dnflow"
    if argv[:1] == ["--package"]:
        package, argv = Path(argv[1]), argv[2:]
    package = package.resolve()
    status, executed = run_traced(package, argv or ["tests"])
    count = 0
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed.get(path, set())
        for first, own in sorted(statements(source).items()):
            if not own & ran:
                count += 1
                print(f"{path.relative_to(package)}:{first}: {lines[first - 1].strip()}")
    print(f"{count} untraced statements")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
