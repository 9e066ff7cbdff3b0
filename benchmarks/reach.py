"""Which function lines in ``src/`` does the product actually run?

Usage::

    python benchmarks/reach.py

Drives the six ledger workloads (``benchmarks/e2e/run.py --smoke
--trace``), every ``examples/*.py``, the figure test
(``tests/integration/test_figures.py``: Figures 7–11, the ablations
and the planner cells, recomputed without rewriting
``benchmarks/figures.json``) and the drill test
(``tests/integration/test_drills.py``: the five cluster drills),
each in a fresh interpreter with a ``sitecustomize`` hook on
``PYTHONPATH``. The hook installs ``sys.setprofile`` /
``threading.setprofile`` and, at exit, dumps ``(file, firstlineno,
name)`` of every code object it saw called, one file per process, so
the ledger's fresh-interpreter workers and every pool thread are seen.

Then it parses ``src/repro`` and prints, per module, the lines of
functions none of those processes called. A function's lines are its
``def`` span (decorators included) minus the spans of the functions
nested in it, so every line is counted once. A diagnostic, not a gate:
the exit code is 1 only when a driven program failed (its processes
would under-report).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_HOOK = '''\
import atexit, json, os, sys, threading

_seen = {{}}

def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code

def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = [(code.co_filename, code.co_firstlineno, code.co_name)
            for code in _seen.values()
            if code.co_filename.startswith({src!r})]
    with open(os.path.join({out!r}, f"reach-{{os.getpid()}}.json"),
              "w") as handle:
        json.dump(rows, handle)

atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def drivers() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every program whose calls count."""
    python = sys.executable
    out = [("ledger --smoke --trace",
            [python, "benchmarks/e2e/run.py", "--smoke", "--trace",
             "--out", "{tmp}/ledger"])]
    out += [(f"examples/{path.name}", [python, f"examples/{path.name}"])
            for path in sorted((ROOT / "examples").glob("*.py"))]
    out += [(f"{name} test", [python, "-m", "pytest", "-q", "-p",
                              "no:cacheprovider",
                              f"tests/integration/test_{name}s.py"])
            for name in ("figure", "drill")]
    return out


def function_lines(path: Path) -> dict[tuple[str, int], int]:
    """``(name, firstlineno) -> own lines`` for every function in one
    file; ``firstlineno`` as the code object reports it (the first
    decorator's line)."""
    out: dict[tuple[str, int], int] = {}

    def visit(node: ast.AST, owner: tuple[str, int] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                key = (child.name, first)
                out[key] = child.end_lineno - first + 1
                if owner is not None:
                    out[owner] -= out[key]
                visit(child, key)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return out


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir = Path(tmp) / "hook"
        dumps = Path(tmp) / "dumps"
        hook_dir.mkdir()
        dumps.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            _HOOK.format(src=str(SRC), out=str(dumps)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(hook_dir), str(ROOT / "src"), str(ROOT)])}
        for label, argv in drivers():
            argv = [arg.format(tmp=tmp) for arg in argv]
            print(f"[reach] {label}", file=sys.stderr, flush=True)
            completed = subprocess.run(argv, cwd=ROOT, env=env,
                                       stdout=subprocess.DEVNULL)
            if completed.returncode:
                failed.append(label)
        seen = {(file, line, name)
                for dump in dumps.glob("reach-*.json")
                for file, line, name in json.loads(dump.read_text())}

    rows = []
    by_package: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for path in sorted(SRC.rglob("*.py")):
        functions = function_lines(path)
        lines = sum(functions.values())
        missed = sum(count for (name, first), count in functions.items()
                     if (str(path), first, name) not in seen)
        module = path.relative_to(SRC)
        rows.append((missed, lines, f"repro/{module}"))
        package = by_package[module.parts[0] if len(module.parts) > 1
                             else "(top level)"]
        package[0] += missed
        package[1] += lines
    print(f"{'unreached':>9} {'of':>6}  module")
    for missed, lines, module in sorted(rows, reverse=True):
        if missed:
            print(f"{missed:>9} {lines:>6}  {module}")
    print(f"\n{'unreached':>9} {'of':>6}  package")
    for package, (missed, lines) in sorted(by_package.items(),
                                           key=lambda item: -item[1][0]):
        print(f"{missed:>9} {lines:>6}  {package}")
    unreached = sum(row[0] for row in rows)
    total = sum(row[1] for row in rows)
    print(f"\nunreached function lines: {unreached} of {total} "
          f"({unreached / total:.0%})")
    for label in failed:
        print(f"FAILED: {label} (its reach is under-reported)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
