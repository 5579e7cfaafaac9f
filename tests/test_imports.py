"""The package's module graph: every relative import, at module level or
inside a function, is an edge, and the graph has no cycle. The scene
generator sits on top of it: the feature term and the pipeline do not
import it. Only `metrics` imports scipy at module level, so the package and
every module that builds no k-d tree import without it."""

import ast
import os
import subprocess
import sys
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


# Modules whose import must not load scipy; `emission` defers its scipy
# import into EmissionEvaluator, the only code there that builds k-d trees.
SCIPY_FREE = ("errors", "seeding", "geometry", "grids", "meshio", "config", "viterbi", "align",
              "emission", "synthetic")


def module_level_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports that run when `source` is
    imported: every import outside a function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add(child.module.split(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_scan_skips_function_bodies():
    source = "import os.path\nfrom numpy import array\nclass A:\n    import json\n" \
             "def f():\n    import scipy\n"
    assert module_level_imports(source) == {"os", "numpy", "json"}


def test_only_metrics_imports_scipy_at_module_level():
    importers = {p.stem for p in PACKAGE.glob("*.py")
                 if "scipy" in module_level_imports(p.read_text())}
    assert importers == {"metrics"}


def test_package_and_scene_modules_import_without_scipy():
    modules = ", ".join(["rigalign"] + [f"rigalign.{m}" for m in SCIPY_FREE])
    code = (f"import sys\nimport {modules}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
