"""No module of the package imports a name it never uses, no private
function of the package goes unreferenced, no module writes another
object's private attributes, and none runs code from text.

No linter is a dependency of the project, so these rules are written on the
standard library's ast. The unused-import rule is pyflakes F401: a name
counts as used when it is read anywhere in the module, named in its
__all__, or read in a string annotation. An import line marked
`# noqa: F401` is exempt, and so is __init__.py, whose imports are the
package's re-exports. The dead-function rule asks that every module-level
function whose name starts with one underscore (a dunder is not private) be
named somewhere in the package's code other than its own definition: read
as a name or an attribute, or imported; tests do not count. The private
write rule asks that every attribute assigned to (by =, an augmented
assignment or an annotated one, inside a tuple target too) whose name
starts with an underscore be one of self or cls: an object's private
state is set by its own methods. The code-from-text rule asks that no
module read the builtins eval, exec or compile, by bare name (called or
not) or through the builtins module: configuration text is parsed, never
run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sigmak"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list) -> dict:
    """Bound name -> line of every import outside __future__ and noqa."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            notes = [getattr(node, "annotation", None),
                     getattr(node, "returns", None)]
            for note in notes:
                if isinstance(note, ast.Constant) and isinstance(
                        note.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(
                        note.value, mode="eval")) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    """(line, name) of each import in the file at path that is never used."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used(tree)
    imported = _imported(tree, source.splitlines())
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path) == []


def test_the_rule_sees_an_unused_import(tmp_path):
    """The rule flags an unused import, keeps a used one, a __future__
    import, a noqa-marked one and one read only in a string annotation."""
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps  # noqa: F401\n"
        "from typing import Sequence, Mapping as M\n"
        "from collections.abc import Callable\n"
        "def f(x: 'Sequence[int]') -> 'M':\n"
        "    return os.path.join(x)\n", encoding="utf-8")
    assert unused_imports(module) == [(2, "math"), (6, "Callable")]


def _private_functions(tree: ast.Module) -> dict:
    """Name -> line of each module-level function private to the package."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _referenced(tree: ast.Module) -> set:
    """Every name the module's code reads, as a name, an attribute or an
    import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_functions(paths) -> list:
    """(file name, line, name) of each module-level private function defined
    in the files at paths that none of them references."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    referenced = set().union(*map(_referenced, trees.values()))
    return sorted((name, line, func) for name, tree in trees.items()
                  for func, line in _private_functions(tree).items()
                  if func not in referenced)


def test_package_has_no_dead_private_function():
    assert dead_private_functions(sorted(SRC.glob("*.py"))) == []


def test_the_rule_sees_a_dead_private_function(tmp_path):
    """The rule flags a private function nothing references, keeps one
    called in its module, one imported by another module, one read as an
    attribute, and ignores a dunder and a public function."""
    first = tmp_path / "first.py"
    first.write_text(
        "def _dead(x):\n"
        "    return _called(x)\n"
        "def _called(x):\n"
        "    return x\n"
        "def _imported():\n"
        "    pass\n"
        "def _attribute():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def public():\n"
        "    pass\n", encoding="utf-8")
    second = tmp_path / "second.py"
    second.write_text(
        "from first import _imported\n"
        "import first\n"
        "first._attribute()\n", encoding="utf-8")
    assert dead_private_functions([first, second]) == [
        ("first.py", 1, "_dead")]


def _attribute_targets(node: ast.AST) -> list:
    """The attributes an assignment statement node writes, tuple and list
    targets unpacked; [] for any other node."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            found.append(target)
    return found


def foreign_private_writes(path: Path) -> list:
    """(line, target) of each assignment in the file at path to an
    underscore attribute of an object other than self or cls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        (target.lineno, ast.unparse(target)) for node in ast.walk(tree)
        for target in _attribute_targets(node)
        if target.attr.startswith("_") and not (
            isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_writes_no_private_attribute_of_another_object(path):
    assert foreign_private_writes(path) == []


def test_the_rule_sees_a_foreign_private_write(tmp_path):
    """The rule flags a write to another object's underscore attribute, by
    plain, chained, tuple, augmented and annotated assignment, and through
    an attribute chain; it keeps writes to self and cls, public writes, and
    reads."""
    module = tmp_path / "sample.py"
    module.write_text(
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self._x = other._x\n"
        "        other._y = 1\n"
        "        self.inner._z = 2\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        cls._count = 0\n"
        "def f(a, b):\n"
        "    a.public = b._hidden\n"
        "    a.x, (b._p, a._q) = 1, (2, 3)\n"
        "    a.y = b._r = 4\n"
        "    a._s += 1\n"
        "    a._t: int = 5\n", encoding="utf-8")
    assert foreign_private_writes(module) == [
        (4, "other._y"), (5, "self.inner._z"), (11, "a._q"), (11, "b._p"),
        (12, "b._r"), (13, "a._s"), (14, "a._t")]


_RUNNERS = ("eval", "exec", "compile")


def code_runners(path: Path) -> list:
    """(line, name) of each read in the file at path of the builtin eval,
    exec or compile, by bare name or as an attribute of builtins or
    __builtins__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in _RUNNERS
        or isinstance(node, ast.Attribute) and node.attr in _RUNNERS
        and isinstance(node.value, ast.Name)
        and node.value.id in ("builtins", "__builtins__"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_runs_no_code_from_text(path):
    assert code_runners(path) == []


def test_the_rule_sees_code_run_from_text(tmp_path):
    """The rule flags calls of eval, exec and compile, one through the
    builtins module and a bare name bound for a later call; it keeps
    re.compile, ast.parse in eval mode, ast.literal_eval and a method
    that happens to be called eval."""
    module = tmp_path / "sample.py"
    module.write_text(
        "import ast, builtins, re\n"
        "def f(text, model):\n"
        "    eval(text)\n"
        "    exec(text, {})\n"
        "    code = compile(text, '<s>', 'eval')\n"
        "    builtins.eval(code)\n"
        "    run = exec\n"
        "    re.compile(text)\n"
        "    ast.parse(text, mode='eval')\n"
        "    ast.literal_eval(text)\n"
        "    return model.eval()\n", encoding="utf-8")
    assert code_runners(module) == [
        (3, "eval"), (4, "exec"), (5, "compile"), (6, "builtins.eval"),
        (7, "exec")]
