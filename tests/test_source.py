import ast
from pathlib import Path
from types import ModuleType

import genus_spectrum

PACKAGE = Path(genus_spectrum.__file__).resolve().parent


def test_public_names_are_the_package_imports():
    # __all__ is read off the imports of __init__, so no second list is kept
    # in step: the exported names are sorted, public, no submodule, each one
    # held by a submodule too, and exactly what a star import binds
    names = genus_spectrum.__all__
    assert names == sorted(names)
    values = {n: getattr(genus_spectrum, n) for n in names}
    assert [n for n, v in values.items() if n.startswith("_") or isinstance(v, ModuleType)] == []
    modules = [m for m in vars(genus_spectrum).values() if isinstance(m, ModuleType)]
    held = {id(v) for m in modules for v in vars(m).values()}
    assert [n for n, v in values.items() if id(v) not in held] == []
    star: dict = {}
    exec("from genus_spectrum import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_no_assert_statements():
    # `python -O` strips asserts; self-checks must raise VerificationError instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_p_delta_is_computed_only_in_group():
    # p^delta has one home, AbelianPGroup.p_delta; every other module reads it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "group.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Pow)
            and isinstance(n.right, ast.Attribute)
            and n.right.attr == "delta"
        ]
    assert found == []


def test_objects_are_built_only_through_their_constructors():
    # a __new__ call makes an object without running its class's checks, so
    # every group and datum is built through its dataclass __init__.  Two
    # builds call __new__ by design: a spectrum descriptor sets its fields
    # and then runs its own _check, and IndexSet is a tuple subclass
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parents = {child: n for n in ast.walk(tree) for child in ast.iter_child_nodes(n)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "__new__":
                # the qualified name of the function that makes the call
                names, up = [], parents.get(n)
                while up is not None:
                    if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        names.append(up.name)
                    up = parents.get(up)
                found.append(f"{path.name}:{'.'.join(reversed(names))}:{ast.unparse(n.func)}")
    assert found == [
        "mingenus.py:IndexSet.__new__:super().__new__",
        "spectrum.py:SpectrumDescriptor._from_twice:cls.__new__",
    ]


def test_kulkarni_n_is_computed_only_in_group():
    # N = p^delta / epsilon and its divisibility check live in group.kulkarni_n;
    # only the lattice's constant steps (2 // epsilon) divide elsewhere
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "group.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.BinOp)
            and isinstance(n.op, (ast.FloorDiv, ast.Mod))
            and isinstance(n.right, ast.Attribute)
            and n.right.attr == "epsilon"
            and not _is_constant(n.left)
        ]
    assert found == []


def test_no_function_calls_itself():
    # recursion depth grows with the input (one level per exponent index), so
    # engines walk their levels in plain passes instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{n.lineno}"
                    for n in ast.walk(fn)
                    if isinstance(n, ast.Call) and _callee(n.func) == fn.name
                ]
    assert found == []


def test_arithmetic_stays_in_integers():
    # values are exact ints throughout: no fractions or decimal module, no true
    # division, no float literal and no float() call; ratios are cross-multiplied
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _inexact(n)]
    assert found == []


def _inexact(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("fractions", "decimal") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in ("fractions", "decimal")
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"


def _callee(func: ast.expr) -> str | None:
    # f(...) or, inside a method, self.f(...) and cls.f(...)
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def _is_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant)
