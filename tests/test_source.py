import ast
from pathlib import Path

import genus_spectrum

PACKAGE = Path(genus_spectrum.__file__).resolve().parent


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
