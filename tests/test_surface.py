"""Surface guard: every name `softirl` exports, and every module-level
constant of the package, has a caller outside the tests.

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
"""

import ast
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


def test_every_module_constant_has_a_caller_outside_the_tests():
    sources = list(_sources())
    reached = _reachable(_reference_graph(sources))
    unused = [(module, name) for module, text in sources if module is not None
              for node in ast.parse(text).body for name in _constants(node)
              if (module, name) not in reached]
    assert unused == []


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
