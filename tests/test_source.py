import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import genus_spectrum

PACKAGE = Path(genus_spectrum.__file__).resolve().parent
CLI_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "cli_expected.json"


def test_public_names_are_the_package_imports():
    # __all__ is read off the name->module table, so no second list is kept
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


def _loaded_after(code: str, *args: str) -> set[str]:
    # the modules a fresh interpreter holds once `code` has run with
    # sys.argv[1:] == args.  `site` is off (-S): it may load modules of its
    # own, such as typing through a .pth file.  The child imports the same
    # copy of the package as this test
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys; print(*sorted(sys.modules))", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_engine():
    # each public name and engine submodule is imported on first use
    loaded = _loaded_after("import genus_spectrum")
    assert sorted(m for m in loaded if m.startswith("genus_spectrum")) == ["genus_spectrum"]
    assert "typing" not in loaded
    loaded = _loaded_after("import genus_spectrum\ngenus_spectrum.spectrum.full_spectrum")
    assert {"genus_spectrum.spectrum", "genus_spectrum.mingenus"} <= loaded
    assert "genus_spectrum.conjecture" not in loaded


def test_lazy_names_behave_as_module_attributes():
    assert set(genus_spectrum.__all__) <= set(dir(genus_spectrum))
    assert genus_spectrum.spectrum.full_spectrum is genus_spectrum.full_spectrum
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        genus_spectrum.no_such_name
    with pytest.raises(ImportError):
        exec("from genus_spectrum import no_such_name", {})


def test_threads_racing_to_first_loads_get_the_same_values():
    # the README calls the library safe for concurrent use: threads that race
    # to the first lookup of every name each get the submodule's own value
    code = """
import sys, threading
sys.setswitchinterval(1e-6)
import genus_spectrum as gs
got = []
threads = [threading.Thread(target=lambda: got.append([getattr(gs, n) for n in gs.__all__]))
           for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
want = [getattr(sys.modules[f"genus_spectrum.{gs._HOMES[n]}"], n) for n in gs.__all__]
if any(t.is_alive() for t in threads) or len(got) != 8:
    raise SystemExit("a thread did not finish")
if any(a is not b for values in got for a, b in zip(values, want)):
    raise SystemExit("a thread got another value")
"""
    for _ in range(5):
        _loaded_after(code)


def test_each_verb_loads_only_what_it_runs():
    # start-up is most of a light verb's wall time, so each verb imports the
    # engines it calls and no more; json is for the JSON format alone
    run = "import sys\nfrom genus_spectrum import cli\ncli.run(sys.argv[1:])"
    engines = {f"genus_spectrum.{m}" for m in ("spectrum", "mingenus", "signature", "conjecture")}
    for case in json.loads(CLI_EXPECTED.read_text(encoding="utf-8")):
        argv = case["argv"]
        loaded = _loaded_after(run, *argv)
        assert ("genus_spectrum.conjecture" in loaded) == (argv[0] == "search-talu"), argv
        if argv[0] in ("invariants", "mainline"):
            assert loaded.isdisjoint(engines), argv
        if "json" not in argv:
            assert "json" not in loaded, argv
        assert "typing" not in loaded, argv


def test_no_assert_statements():
    # `python -O` strips asserts; self-checks must raise VerificationError instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_no_hand_rolled_descriptors_or_orderings():
    # functools provides cached_property and total_ordering: no class writes
    # its own descriptor, or more than one of the four ordering methods
    orderings = {"__lt__", "__le__", "__gt__", "__ge__"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                # methods, and names bound in the class body (`__le__ = ...`)
                names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
                names |= {
                    t.id
                    for n in cls.body
                    if isinstance(n, ast.Assign)
                    for t in n.targets
                    if isinstance(t, ast.Name)
                }
                if "__get__" in names or len(names & orderings) > 1:
                    found.append(f"{path.name}:{cls.name}")
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


def test_limits_are_compared_only_in_errors():
    # errors._within compares each work estimate with its limit and raises the
    # refusal, so no other module compares or raises with a *_LIMIT name
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.Compare, ast.Raise))
            and any(
                getattr(m, "id", getattr(m, "attr", "")).endswith("_LIMIT") for m in ast.walk(n)
            )
        ]
    assert found == []


def test_cli_prints_only_in_run_and_main():
    # each verb returns its payload and text lines, and run prints the format
    # asked for, so output has one route; main prints only the out-of-memory error
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = {
        getattr(top, "name", "module")
        for top in tree.body
        for n in ast.walk(top)
        if isinstance(n, ast.Call) and _callee(n.func) == "print"
    }
    assert found == {"run", "main"}


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
