"""The demos use only names the package has.

Running the demos takes seconds each. Parsing them finds, in milliseconds, a
demo that still calls a function the package no longer has, through
``fp.<name>`` or ``from fixproc... import name``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fixproc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def unresolved(path: Path) -> list[str]:
    """Names a demo takes from ``fixproc`` that do not exist there."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # names bound by ``import fixproc`` / ``import fixproc as fp``
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "fixproc"
    }
    missing = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and not hasattr(fixproc, node.attr)
        ):
            missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fixproc":
            module = importlib.import_module(node.module)
            missing += [
                f"from {node.module} import {alias.name} (line {node.lineno})"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
    return missing


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    assert unresolved(path) == []


def test_a_removed_name_is_reported(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import fixproc as fp\n"
        "from fixproc.simulate import simulate_runs, no_such_function\n"
        "fp.simulate_many(None, 1, 0)\n"
        "fp.no_such_name(1)\n"
    )
    assert unresolved(demo) == [
        "from fixproc.simulate import no_such_function (line 2)",
        "fp.no_such_name (line 4)",
    ]
