"""Every module-level import of the library is used in its module, every
module-level private name is read somewhere in the library, every relative
import sits at the top of its module, the modules import each other
without a cycle, every public oracle of the tests is called, and the
former mode spellings stay where they are read."""
import ast
import graphlib
from pathlib import Path

import pytest

import mm_lab

_MODULES = sorted(p for p in Path(mm_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
_TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of the module-level private functions, classes and
    assignments of ``sources`` (module name -> text) that no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def local_relative_imports(source: str) -> list:
    """Lines of the relative imports of ``source`` made inside a function."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level)
    return sorted(lines)


def import_graph(paths) -> dict:
    """Module name -> the sibling modules its relative imports name.

    ``from . import x`` counts only when x is a module, so the package
    attributes it reads (``__version__``) add no edge.
    """
    names = {p.stem for p in paths}
    graph = {}
    for path in paths:
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                deps.update(t.split(".")[0] for t in targets if t.split(".")[0] in names)
        graph[path.stem] = deps
    return graph


def find_cycle(graph: dict) -> list:
    """One cycle of ``graph``, its first node repeated last, or [] when there is none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def spelling_homes(sources: dict, spellings) -> set:
    """(module, function, spelling) of every line of ``sources`` (module name
    -> text) that holds one of ``spellings``, named by the innermost
    function around it, or None at module level."""
    homes = set()
    for module, source in sources.items():
        spans = sorted((node.lineno, node.end_lineno, node.name)
                       for node in ast.walk(ast.parse(source))
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for line, text in enumerate(source.splitlines(), 1):
            for word in spellings:
                if word in text:
                    names = [name for lo, hi, name in spans if lo <= line <= hi]
                    homes.add((module, names[-1] if names else None, word))
    return homes


def _called_names(tree) -> set:
    """Names of the functions that the calls inside ``tree`` name."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def uncalled_oracles(oracle_source: str, test_sources) -> list:
    """Public module-level functions of ``oracle_source`` that no test source
    calls, directly or through the other oracles it calls."""
    funcs = {node.name: node for node in ast.parse(oracle_source).body
             if isinstance(node, ast.FunctionDef)}
    reached = set().union(*(_called_names(ast.parse(s)) for s in test_sources)) & set(funcs)
    todo = list(reached)
    while todo:
        for name in _called_names(funcs[todo.pop()]) & set(funcs) - reached:
            reached.add(name)
            todo.append(name)
    return sorted(name for name in funcs if not name.startswith("_") and name not in reached)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_module_name_is_read():
    package = sorted(Path(mm_lab.__file__).parent.glob("*.py"))
    assert unread_private_names({p.stem: p.read_text() for p in package}) == []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    assert local_relative_imports(path.read_text()) == []


def test_module_imports_are_acyclic():
    assert find_cycle(import_graph(_MODULES)) == []


def test_every_public_oracle_is_called_from_a_test():
    tests = [p.read_text() for p in sorted(_TESTS.glob("test_*.py"))]
    assert uncalled_oracles((_TESTS / "oracles.py").read_text(), tests) == []


def test_former_mode_spellings_stay_in_the_mode_resolver():
    # invariants._mode maps exact_tiny and heuristic_lb to exact and bounds;
    # exact_tiny is also the box distance's own mode and its CLI option
    package = sorted(Path(mm_lab.__file__).parent.glob("*.py"))
    homes = spelling_homes({p.stem: p.read_text() for p in package}, ("exact_tiny", "heuristic_lb"))
    resolver = {("invariants", "_mode", "exact_tiny"), ("invariants", "_mode", "heuristic_lb")}
    box = {("distances", "box_distance", "exact_tiny"), ("cli", "main", "exact_tiny")}
    assert resolver <= homes <= resolver | box


def test_checker_finds_the_home_of_a_spelling():
    source = "A = 'x'\n\n\ndef f():\n    def g():\n        return 'x'\n    return 'y'\n"
    assert spelling_homes({"m": source}, ("x", "y")) == {("m", None, "x"), ("m", "g", "x"),
                                                          ("m", "f", "y")}


def test_checker_flags_an_uncalled_oracle():
    oracles = ("def a():\n    return b()\n\n\ndef b():\n    return _c()\n\n\n"
               "def _c():\n    return 0\n\n\ndef d():\n    return 1\n\n\ndef e():\n    return a\n")
    assert uncalled_oracles(oracles, ["from oracles import a\nassert a() == 0\n"]) == ["d", "e"]
    assert uncalled_oracles(oracles, ["import oracles\noracles.d()\n"]) == ["a", "b", "e"]


def test_checker_flags_an_unused_import():
    source = (Path(mm_lab.__file__).parent / "experiments.py").read_text()
    assert unused_imports("import os\n" + source) == [(1, "os")]
    assert unused_imports("from os import path, sep\nprint(sep)\n") == [(1, "path")]


def test_checker_flags_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n_C: int = 3\n\n\ndef _f():\n    return _B\n",
        "b": "from . import a\n\n\nclass _K:\n    pass\n\n\nprint(a._f(), a._C)\n",
    }
    assert unread_private_names(sources) == [("a", 1, "_A"), ("b", 4, "_K")]
    # an attribute store is not a read
    assert unread_private_names({"c": "_x = 0\nobj._x = 1\n"}) == [("c", 1, "_x")]


def test_checkers_flag_a_local_import_and_a_cycle():
    source = "import os\n\n\ndef f():\n    from .x import y\n    return y, os\n"
    assert local_relative_imports(source) == [5]
    assert local_relative_imports("from .x import y\n") == []
    cycle = find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []
