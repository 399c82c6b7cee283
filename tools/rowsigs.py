"""Write `src/sp4solvable/row_signatures.json`, the invariant signature of
each catalog row without a parameter.

    python3 tools/rowsigs.py

Run from the root of a source checkout.  For each row of `load_catalog()`
whose basis names no parameter, in catalog order, it writes one line of
JSON from `verify.computed_row_signatures`: the row id, the stated basis
as the catalog holds it, and the `to_json` of the signature of its span.
`match_catalog` compares such a row by its stored signature when the row's
id and basis are the stored ones, and the `stored-signatures` record that
`verify-catalog` makes before its probe checks every entry against that
same function.
Rerun it after a change to a parameter-free row's basis or to the
signature; `tests/test_verify.py` recomputes every entry and fails on any
difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sp4solvable.catalog import load_catalog  # noqa: E402
from sp4solvable.verify import ROW_SIGNATURES_FILE, computed_row_signatures  # noqa: E402


def render() -> str:
    """The file's text: a JSON list with one parameter-free row per line."""
    lines = [json.dumps({"row": row, "basis": basis, "signature": sig})
             for (row, basis), sig in computed_row_signatures(load_catalog()).items()]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main() -> int:
    Path(ROW_SIGNATURES_FILE).write_text(render(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
