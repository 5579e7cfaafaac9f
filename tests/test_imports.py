"""The package's module graph: every relative import, at module level or
inside a function, is an edge, and the graph has no cycle. The scene
generator sits on top of it: the feature term and the pipeline do not
import it. Only `metrics` imports scipy at module level, so the package and
every module that builds no k-d tree import without it. Every k-d tree
query goes through `metrics.submit` (which `metrics.nearest` calls), whose
thread pool makes `metrics` the only module that imports `concurrent.futures`."""

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


def absolute_imports(source: str) -> set[str]:
    """Dotted names of the absolute imports anywhere in `source`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_only_metrics_imports_concurrent_futures():
    importers = {p.stem for p in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "concurrent"
                        for name in absolute_imports(p.read_text()))}
    assert importers == {"metrics"}


def own_nodes(scope):
    """The nodes inside `scope`, those of the functions defined in it excluded."""
    for child in ast.iter_child_nodes(scope):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from own_nodes(child)


def builds_index(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "NearestNeighborIndex" for n in ast.walk(node))


def query_calls(source: str) -> list[str]:
    """`scope: receiver.query` for every `.query(` call outside `submit`
    (and the functions nested in it) whose receiver is not known to be a
    NearestNeighborIndex. Known: a receiver that builds one, as in
    `NearestNeighborIndex(p).query`, or a name the same scope assigns from an
    expression that builds one. A parameter is not known."""
    tree = ast.parse(source)
    inside_submit = {id(n) for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef) and f.name == "submit"
                     for n in ast.walk(f)}
    found = []
    for scope in ast.walk(tree):
        if (not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
                or id(scope) in inside_submit):
            continue
        nodes = list(own_nodes(scope))
        indexes = {target.id for n in nodes if isinstance(n, ast.Assign) and builds_index(n.value)
                   for target in n.targets if isinstance(target, ast.Name)}
        for call in nodes:
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "query"):
                continue
            receiver = call.func.value
            if builds_index(receiver) or (isinstance(receiver, ast.Name) and receiver.id in indexes):
                continue
            found.append(f"{getattr(scope, 'name', '<module>')}: {ast.unparse(receiver)}.query")
    return found


def workers_keywords(source: str) -> list[int]:
    """Line numbers of every call that passes `workers=`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and any(k.arg == "workers" for k in node.keywords)]


def test_query_scans_tell_index_queries_from_tree_queries():
    source = ("def submit(pairs):\n"
              "    def run(chunk):\n        chunk[0].query(chunk[1], k=1)\n"
              "def f(tree, pts):\n"
              "    index = NearestNeighborIndex(pts)\n    index.query(pts)\n"
              "    NearestNeighborIndex(pts).query(pts)\n"
              "    def g(index):\n        return index.query(pts)\n"
              "    return tree.query(pts, workers=-1)\n"
              "cKDTree(x).query(x)\n")
    assert sorted(query_calls(source)) == ["<module>: cKDTree(x).query", "f: tree.query",
                                           "g: index.query"]
    assert workers_keywords(source) == [10]


def test_every_tree_query_goes_through_nearest():
    found = {p.stem: query_calls(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_no_call_passes_workers():
    found = {p.stem: workers_keywords(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}
