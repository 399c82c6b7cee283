"""Write `src/sp4solvable/row_signatures.json`, the invariant signature of
each catalog row without a parameter.

    python3 tools/rowsigs.py

Run from the root of a source checkout.  For each row of `load_catalog()`
whose basis names no parameter, in catalog order, it computes `signature`
of the span of the stated basis and writes one line of JSON: the row id,
the stated basis as the catalog holds it, and the signature's `to_json`.
`match_catalog` compares such a row by its stored signature when the row's
id and basis are the stored ones.  Rerun it after a change to a
parameter-free row's basis or to the signature; `tests/test_verify.py`
recomputes every entry with `render` and fails on any difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sp4solvable.catalog import load_catalog  # noqa: E402
from sp4solvable.invariants import signature  # noqa: E402
from sp4solvable.structure import Subalgebra  # noqa: E402
from sp4solvable.verify import ROW_SIGNATURES_FILE  # noqa: E402


def render() -> str:
    """The file's text: a JSON list with one parameter-free row per line."""
    lines = [json.dumps({"row": e.row_id, "basis": e.basis,
                         "signature": signature(Subalgebra(e.space_at(None))).to_json()})
             for e in load_catalog() if not e.param]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main() -> int:
    Path(ROW_SIGNATURES_FILE).write_text(render(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
