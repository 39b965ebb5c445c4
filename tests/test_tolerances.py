"""Every tolerance of the package is defined once, in the table of ``market.py``.

A threshold written as a literal elsewhere would be a second policy. The
guard reads the number tokens of each source module, so docstrings and
comments may still quote a value, and fails on any negative-exponent
literal outside ``market.py``.
"""

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tolerance_literals(path: Path) -> list:
    """``(line, token)`` of every number literal in ``path`` with a negative exponent."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    return [(tok.start[0], tok.string) for tok in tokens
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()]


def test_tolerances_are_defined_only_in_market():
    found = {path.name: tolerance_literals(path)
             for path in sorted((ROOT / "src" / "oneperiod").glob("*.py"))
             if path.name != "market.py"}
    assert {name: lits for name, lits in found.items() if lits} == {}
