"""The quickstarts in the package docstrings run as written.

Each ``Quickstart::`` block is cut from its docstring, run in a fresh
namespace and must print what its comment or its code promises."""

from __future__ import annotations

import contextlib
import io
import textwrap

import repro
import repro.cluster


def quickstart(module) -> str:
    """The literal block after ``Quickstart::`` in ``module``'s
    docstring, dedented."""
    _, _, rest = module.__doc__.partition("Quickstart::\n")
    assert rest, f"{module.__name__} has no quickstart"
    block = []
    for line in rest.splitlines():
        if line and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


def run(module) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(module), module.__name__, "exec"), {})
    return out.getvalue()


def test_the_root_quickstart_prints_its_run_summary():
    printed = run(repro)
    assert "'rpc_calls': 1" in printed
    assert "'strategy': 'by-fragment'" in printed


def test_the_cluster_quickstart_counts_every_member():
    assert run(repro.cluster).strip() == "[8]"
