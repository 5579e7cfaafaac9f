"""The package's module graph: every relative import, at module level or
inside a function, is an edge, and the graph has no cycle. The scene
generator sits on top of it: the feature term and the pipeline do not
import it. Only `metrics` imports scipy, anywhere in its source, and only
`metrics.kd_tree` builds a k-d tree, so the package and every module that
builds no tree import without scipy. ICP builds the tree it queries: only
`evaluate.frame_report` builds a `NearestNeighborIndex`, and no code outside
that class reads its tree. Importing `metrics` starts no thread:
scipy's OpenBLAS loads with one, and the environment is left as found. Every
k-d tree query goes through `metrics.InFlight.put` (which `metrics.nearest`
calls), whose thread pool makes `metrics` the only module that imports
`concurrent.futures`. The package defines three exception classes, one per
exit code and their base, all in `errors`. After load a point set is an
(N, 3) array: `PointCloud`, the record of one PLY cloud, is named only by the
modules that load, write or make clouds, and only `evaluate.gt_points_for`
tells a cloud from a mesh by type."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Modules whose import must not load scipy; `emission` imports `metrics`
# inside EmissionEvaluator, the only code there that builds k-d trees.
SCIPY_FREE = ("errors", "seeding", "geometry", "grids", "meshio", "config", "viterbi", "align",
              "emission", "synthetic")


def scoped_nodes(source: str, skip_class: str = ""):
    """(scope, node) for every node of `source`, the scope being the name of
    the innermost enclosing function or `<module>`; the body of a class named
    `skip_class` is left out."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == skip_class:
                continue
            child_scope = child.name if isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)) else scope
            yield child_scope, child
            yield from visit(child, child_scope)

    yield from visit(ast.parse(source), "<module>")


def constructions(source: str, classes) -> list[str]:
    """The scope of every call to one of `classes`, by name or attribute:
    `cKDTree(...)`, `spatial.KDTree(...)`."""
    return [scope for scope, node in scoped_nodes(source) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) in classes]


def tree_constructions(source: str) -> list[str]:
    """The scope of every call that constructs a scipy k-d tree."""
    return constructions(source, ("cKDTree", "KDTree"))


def test_tree_scan_sees_every_construction():
    source = ("import scipy.spatial\nt = scipy.spatial.cKDTree(x)\n"
              "class A:\n    def f(self):\n        return KDTree(y).query(y)\n"
              "def g():\n    return kd_tree(x), cKDTree\n")
    assert tree_constructions(source) == ["<module>", "f"]


def test_only_metrics_imports_scipy():
    importers = {p.stem for p in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "scipy" for name in absolute_imports(p.read_text()))}
    assert importers == {"metrics"}


def test_every_tree_is_built_by_kd_tree():
    found = {p.stem: tree_constructions(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: scopes for module, scopes in found.items() if scopes} == {"metrics": ["kd_tree"]}


def private_tree_reads(source: str) -> list[str]:
    """`scope: x._tree` for every `._tree` attribute outside the class
    NearestNeighborIndex, which owns it."""
    return [f"{scope}: {ast.unparse(node)}"
            for scope, node in scoped_nodes(source, skip_class="NearestNeighborIndex")
            if isinstance(node, ast.Attribute) and node.attr == "_tree"]


def test_index_scans_see_every_construction_and_tree_read():
    source = ("class NearestNeighborIndex:\n    def __init__(self, p):\n"
              "        self._tree = kd_tree(p)\n"
              "    def query(self, p):\n        return nearest([(self._tree, p)])\n"
              "def icp(target):\n    index = metrics.NearestNeighborIndex(target)\n"
              "    return index._tree, index._sample_tree\n"
              "t = NearestNeighborIndex(x)._tree\n")
    assert constructions(source, ("NearestNeighborIndex",)) == ["icp", "<module>"]
    assert private_tree_reads(source) == ["icp: index._tree",
                                          "<module>: NearestNeighborIndex(x)._tree"]


def test_only_frame_report_builds_an_index_and_no_module_reads_its_tree():
    """ICP builds the tree it queries; the one index left is evaluation's
    ground-truth-to-prediction query."""
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    built = {module: constructions(source, ("NearestNeighborIndex",))
             for module, source in sources.items()}
    assert {module: scopes for module, scopes in built.items() if scopes} == {
        "evaluate": ["frame_report"]}
    reads = {module: private_tree_reads(source) for module, source in sources.items()}
    assert {module: found for module, found in reads.items() if found} == {}


def names_point_cloud(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "PointCloud")
            or (isinstance(node, ast.Attribute) and node.attr == "PointCloud")
            or (isinstance(node, ast.alias) and node.name == "PointCloud"))


def point_cloud_mentions(source: str) -> list[str]:
    """The scope of every mention of `PointCloud`: a name, an attribute or an
    imported name."""
    return [scope for scope, node in scoped_nodes(source) if names_point_cloud(node)]


def point_cloud_type_tests(source: str) -> list[str]:
    """The scope of every `isinstance` call whose class argument names
    `PointCloud`, alone or in a tuple."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(names_point_cloud(n) for n in ast.walk(node.args[1]))]


def test_point_cloud_scans_see_every_mention_and_type_test():
    source = ("from .geometry import PointCloud as Cloud\n"
              "def f(x):\n    return isinstance(x, (TriangleMesh, geometry.PointCloud))\n"
              "def g(x) -> PointCloud:\n    return isinstance(x, TriangleMesh)\n"
              "class A:\n    def h(self, x):\n        if isinstance(x, PointCloud):\n"
              "            return x\n")
    assert point_cloud_mentions(source) == ["<module>", "f", "g", "h"]
    assert point_cloud_type_tests(source) == ["f", "h"]


# The modules that load, write or make PLY clouds, or tell a cloud from a mesh.
POINT_CLOUD_MODULES = {"geometry", "meshio", "pipeline", "evaluate", "synthetic"}


def test_point_sets_are_arrays_outside_the_cloud_record():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    named = {module for module, source in sources.items() if point_cloud_mentions(source)}
    assert named - POINT_CLOUD_MODULES == set()
    tested = {module: point_cloud_type_tests(source) for module, source in sources.items()}
    assert {module: scopes for module, scopes in tested.items() if scopes} == {
        "evaluate": ["gt_points_for"]}


def run_child(code: str, **env) -> str:
    """Standard output of a fresh Python that runs `code` with the package
    from source, in this process's environment with OPENBLAS_NUM_THREADS
    unset unless given in `env`."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = dict(base, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1", **env)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_and_scene_modules_import_without_scipy():
    modules = ", ".join(["rigalign"] + [f"rigalign.{m}" for m in SCIPY_FREE])
    code = (f"import sys\nimport {modules}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_child(code).strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_importing_metrics_starts_no_thread():
    code = ("import os\nimport numpy\nbefore = len(os.listdir('/proc/self/task'))\n"
            "import rigalign.metrics\nprint(before, len(os.listdir('/proc/self/task')))")
    before, after = run_child(code).split()
    assert after == before


@pytest.mark.parametrize("preset", [None, "3"])
def test_importing_metrics_leaves_the_environment_as_found(preset):
    show = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    code = (f"import subprocess, sys\nimport rigalign.metrics\n{show}\n"
            f"subprocess.run([sys.executable, '-c', {show!r}], check=True)")
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert run_child(code, **env).split() == [str(preset)] * 2  # this process, then its child


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
    """`scope: receiver.query` for every `.query(` call outside
    `InFlight.put` (and the functions nested in it) whose receiver is not known to be a
    NearestNeighborIndex. Known: a receiver that builds one, as in
    `NearestNeighborIndex(p).query`, or a name the same scope assigns from an
    expression that builds one. A parameter is not known."""
    tree = ast.parse(source)
    inside_put = {id(n) for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) and c.name == "InFlight"
                  for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "put"
                  for n in ast.walk(f)}
    found = []
    for scope in ast.walk(tree):
        if (not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
                or id(scope) in inside_put):
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
    source = ("class InFlight:\n"
              "    def put(self, key, pairs):\n"
              "        def run(chunk):\n            chunk[0].query(chunk[1], k=1)\n"
              "def f(tree, pts):\n"
              "    index = NearestNeighborIndex(pts)\n    index.query(pts)\n"
              "    NearestNeighborIndex(pts).query(pts)\n"
              "    def g(index):\n        return index.query(pts)\n"
              "    return tree.query(pts, workers=-1)\n"
              "cKDTree(x).query(x)\n"
              "def put(tree, pts):\n    return tree.query(pts)\n")
    assert sorted(query_calls(source)) == ["<module>: cKDTree(x).query", "f: tree.query",
                                           "g: index.query", "put: tree.query"]
    assert workers_keywords(source) == [11]


def test_every_tree_query_goes_through_in_flight_put():
    found = {p.stem: query_calls(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_no_call_passes_workers():
    found = {p.stem: workers_keywords(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def exception_classes(source: str) -> list[str]:
    """Names of the classes defined anywhere in `source` that derive, directly
    or through other classes defined there, from a built-in exception or from
    a name the package's `errors` module defines."""
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    known |= {"RigalignError", "InvalidInput", "DegenerateGeometry"}
    classes = sorted((n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)),
                     key=lambda c: c.lineno)
    found = []
    while True:
        new = [c.name for c in classes if c.name not in found
               and any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) in known
                       for b in c.bases)]
        if not new:
            return [c.name for c in classes if c.name in found]
        found += new
        known.update(new)


def test_exception_scan_sees_every_exception_class():
    source = ("class A(ValueError):\n    pass\nclass B(A):\n    pass\n"
              "class C:\n    pass\ndef f():\n    class D(errors.InvalidInput):\n        pass\n"
              "class E(C, KeyError):\n    pass\n")
    assert exception_classes(source) == ["A", "B", "D", "E"]


def test_errors_defines_the_only_exception_classes():
    found = {p.stem: exception_classes(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {
        "errors": ["RigalignError", "InvalidInput", "DegenerateGeometry"]}
