"""Rules the library source keeps.  Operators are used in the structure they
have and never stored as dense Kronecker systems: those live in
tests/oracles.py, as the references the fast solves are checked against."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_builds_no_kronecker_product():
    calls = [f"{path.relative_to(SRC)}:{n}"
             for path in sorted(SRC.rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"\bkron\s*\(", line)]
    assert calls == [], f"np.kron called in the library at {calls}"
