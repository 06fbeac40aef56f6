"""Surface guard: every name `softirl` exports, and every module-level
function, class and constant of the package, private ones included, has a
caller outside the tests.

A name counts as used when code reachable from an entry point refers to it.
The entry points are the module-level code of `src/softirl` (the CLI's
command table and `__main__` guard) and every file under `scripts/` and
`perfbench/` (perfbench is `check_normalization`'s only caller). A reference
inside a top-level function or class of the package counts only if that
function or class, or in the value of a module-level constant, counts only
if that function, class or constant is itself reachable, so a helper that
only another unused helper calls does not count, and neither does an import
alone.
`__init__.py` re-exports names and is not searched.

perfbench's tracer also patches package attributes by name, some of them
re-imports kept only for it, so each of its trace sites must name one.

No comment or docstring of the package, its tests or its scripts states a
time in ms or µs: a measured time goes stale with the host, and a
`BENCH_*.json` record holds it.

No module of the package (but `__init__.py`, which re-exports), its
scripts or its tests imports a name that its module or function never
reads, except on a line marked `# noqa: F401`.
"""

import ast
import importlib.util
import io
import re
import tokenize
from pathlib import Path

import softirl

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "<entry>"


def _sources():
    """(module name or None for an entry-point file, source text) pairs."""
    for path in sorted((ROOT / "src" / "softirl").glob("*.py")):
        if path.name != "__init__.py":
            yield f"softirl.{path.stem}", path.read_text()
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield None, path.read_text()


def _constants(node):
    """Names a module-level statement binds by plain assignment."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reference_graph(sources):
    """Edges from each package definition (module, name), or from ENTRY, to
    the package definitions its code refers to, after following imports."""
    parsed = []  # (module, tree, {local name: ("def", module, name) | ("module", module)})
    for module, text in sources:
        tree, table = ast.parse(text), {}
        if module is not None:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    table[node.name] = ("def", module, node.name)
                for name in _constants(node):
                    table[name] = ("def", module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("softirl"):
                for alias in node.names:
                    if node.module == "softirl":
                        target = ("module", f"softirl.{alias.name}")
                    else:
                        target = ("def", node.module, alias.name)
                    table[alias.asname or alias.name] = target
        parsed.append((module, tree, table))
    bindings = {module: table for module, _, table in parsed if module is not None}

    def origin(module, name):
        """Follow re-imports to the module that defines `name`."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            kind, *target = bindings.get(module, {}).get(name, ("def", module, name))
            if kind != "def" or tuple(target) == (module, name):
                break
            module, name = target
        return module, name

    edges = {}
    for module, tree, table in parsed:
        for top in tree.body:
            owner = ENTRY
            if module is not None and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, top.name)
            elif module is not None and len(_constants(top)) == 1:
                owner = (module, _constants(top)[0])
            targets = edges.setdefault(owner, set())
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and table.get(node.id, ("",))[0] == "def"):
                    targets.add(origin(*table[node.id][1:]))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and table.get(node.value.id, ("",))[0] == "module"):
                    targets.add(origin(table[node.value.id][1], node.attr))
    return edges


def _reachable(edges):
    reached, frontier = set(), [ENTRY]
    while frontier:
        for target in edges.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def test_every_exported_name_has_a_caller_outside_the_tests():
    reached = _reachable(_reference_graph(_sources()))
    unused = [name for name in softirl.__all__
              if (getattr(softirl, name).__module__, name) not in reached]
    assert unused == []


def _unreached(names_of):
    """(module, name) of each package definition that `names_of(node)` lists
    for a module-level statement and no entry point reaches."""
    sources = list(_sources())
    reached = _reachable(_reference_graph(sources))
    return [(module, name) for module, text in sources if module is not None
            for node in ast.parse(text).body for name in names_of(node)
            if (module, name) not in reached]


def test_every_module_constant_has_a_caller_outside_the_tests():
    assert _unreached(_constants) == []


def test_every_module_function_and_class_has_a_caller_outside_the_tests():
    def definitions(node):
        return [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []

    assert _unreached(definitions) == []


def test_guard_follows_callers_not_mentions():
    package = ("softirl.a", "def used(): helper_of_used(LIMIT)\n"
                            "def helper_of_used(x): pass\n"
                            "def dead(): helper_of_dead(DEAD_LIMIT)\n"
                            "def helper_of_dead(x): pass\n"
                            "LIMIT = 1\n"
                            "DEAD_LIMIT = 2\n"
                            "ALIAS = DEAD_LIMIT\n")
    relay = ("softirl.b", "from softirl.a import used\nfrom softirl.a import dead\n")
    script = (None, "from softirl import b\nb.used()\n")
    reached = _reachable(_reference_graph([package, relay, script]))
    assert ("softirl.a", "used") in reached
    assert ("softirl.a", "helper_of_used") in reached
    assert ("softirl.a", "dead") not in reached
    assert ("softirl.a", "helper_of_dead") not in reached
    assert ("softirl.a", "LIMIT") in reached
    assert ("softirl.a", "DEAD_LIMIT") not in reached
    assert ("softirl.a", "ALIAS") not in reached


def test_every_perfbench_trace_site_is_a_package_attribute():
    # a missing name would otherwise show only in a traced perfbench run
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = spans.trace_sites()
    assert ("softirl.solver", "fit_regressor") in [(m.__name__, a) for m, a, _ in sites]
    assert [(m.__name__, a) for m, a, _ in sites if not hasattr(m, a)] == []


_TIME = re.compile(r"\d\s*(?:ms|us|µs|μs)\b")


def _comments_and_docstrings(text):
    """(line, text) of each comment and docstring of a module's source."""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if (doc := ast.get_docstring(node, clean=False)) is not None:
                yield node.body[0].lineno, doc


def test_no_comment_or_docstring_states_a_time():
    paths = [path for folder in ("src/softirl", "tests", "scripts")
             for path in sorted((ROOT / folder).glob("*.py"))]
    stated = [f"{path.relative_to(ROOT)}:{line}" for path in paths
              for line, text in _comments_and_docstrings(path.read_text()) if _TIME.search(text)]
    assert stated == []


def test_time_check_reads_units_not_words():
    text = ('"""Took 8.4 ms."""\n'
            "def f():\n"
            '    """2 users, 3 items and 16µs."""\n'
            "X = 1  # 160 us\n"
            "Y = '5 ms'\n")
    assert sorted(line for line, doc in _comments_and_docstrings(text) if _TIME.search(doc)) \
        == [1, 3, 4]


def _unused_imports(text):
    """(line, name) of each import whose bound name no code of its scope, the
    module or the function it sits in, reads; `from __future__` imports and
    lines marked `# noqa: F401` are exempt."""
    lines, tree = text.splitlines(), ast.parse(text)
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:  # the scope's own statements: a nested function is its own scope
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_no_unused_imports():
    paths = [path for folder in ("src/softirl", "scripts", "tests")
             for path in sorted((ROOT / folder).glob("*.py")) if path.name != "__init__.py"]
    unused = [f"{path.relative_to(ROOT)}:{line} {name}" for path in paths
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_unused_import_check_reads_scopes():
    text = ("from __future__ import annotations\n"
            "import os, os.path as osp\n"
            "from re import compile  # noqa: F401\n"
            "import numpy.linalg\n"
            "def f():\n"
            "    import json\n"
            "    import sys\n"
            "    def g():\n"
            "        return sys.argv\n"
            "    return g\n"
            "x: numpy.ndarray\n"
            "json = 1\n")
    assert _unused_imports(text) == [(2, "os"), (2, "osp"), (6, "json")]
