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
