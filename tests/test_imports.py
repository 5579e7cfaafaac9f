"""The package's module graph: every relative import, at module level or
inside a function, is an edge, and the graph has no cycle. The scene
generator sits on top of it: the feature term and the pipeline do not
import it."""

import ast
from pathlib import Path

import rigalign

PACKAGE = Path(rigalign.__file__).parent


def relative_imports(source: str) -> set[str]:
    """Package modules that `source` imports with a relative import anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {p.stem: relative_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a module path that ends where it starts, or None."""
    state = {}  # module -> "open" while on the path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt, path + [nxt])):
                return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state and (cycle := visit(start, [start])):
            return cycle
    return None


def test_scan_sees_every_relative_import_and_finds_cycles():
    assert relative_imports("def f():\n    from .x import y\n") == {"x"}
    source = "from . import a, b\nfrom .c.d import e\nimport os\n"
    assert relative_imports(source) == {"a", "b", "c"}
    assert "meshio" in import_graph()["emission"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_relative_imports_have_no_cycle():
    assert find_cycle(import_graph()) is None


def test_feature_term_and_pipeline_do_not_import_the_scene_generator():
    graph = import_graph()
    assert "synthetic" not in graph["emission"]
    assert "synthetic" not in graph["pipeline"]
