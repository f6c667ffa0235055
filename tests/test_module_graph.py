"""The package's modules import one another one way only.

Each module's package imports are read from its source with `ast`, at
any nesting level, so an import deferred into a function body counts
as much as one at the top.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = "borrowings"
SOURCE = Path(__file__).resolve().parent.parent / "src" / PACKAGE


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that a module's syntax tree imports:
    `from .x import ...`, `from . import x`, `import borrowings.x` and
    `from borrowings.x import ...` or `from borrowings import x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == PACKAGE and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                head, _, rest = node.module.partition(".")
                if head != PACKAGE:
                    continue
            elif node.level == 1:
                rest = node.module or ""
            else:
                continue
            if rest:
                found.add(rest.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def module_graph() -> dict[str, set[str]]:
    """Each module of the package, by name, with the package modules it
    imports."""
    graph = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = package_imports(tree)
    return graph


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, stack = set(), [start]
    while stack:
        for name in graph.get(stack.pop(), ()):
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return seen


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .crf import tag", {"crf"}),
        ("from . import optim, crf", {"optim", "crf"}),
        ("import borrowings.features", {"features"}),
        ("import borrowings.features as f", {"features"}),
        ("from borrowings.tune import ablate", {"tune"}),
        ("from borrowings import cli", {"cli"}),
        ("def f():\n    if x:\n        from .crf import _encode_windows", {"crf"}),
        ("import numpy\nfrom numpy import take\nfrom ..other import x", set()),
    ],
)
def test_package_imports_are_read_at_any_level(source, expected):
    assert package_imports(ast.parse(source)) == expected


def test_every_import_names_a_module_of_the_package():
    graph = module_graph()
    assert {"corpus", "features", "crf", "tune", "cli"} <= set(graph)
    for name, imported in graph.items():
        assert imported <= set(graph), name


def test_the_module_graph_is_acyclic():
    # Raises graphlib.CycleError, naming the cycle.
    graphlib.TopologicalSorter(module_graph()).prepare()


def test_features_imports_no_later_layer():
    graph = module_graph()
    assert not reachable(graph, "features") & {"crf", "tune", "cli"}
