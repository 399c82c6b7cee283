"""Bit-identity gate: the certified verdict and every catalog instance's
invariants hash to a digest recorded before the integer matrix kernel.

A change to the arithmetic kernels (matrices, characteristic polynomials,
echelon forms) must leave this digest unchanged; a change that alters a
verdict, a label or a signature on purpose must record the new digest and
say why.
"""

import hashlib
import json

from sp4solvable.catalog import load_catalog
from sp4solvable.invariants import signature
from sp4solvable.rational import format_rational
from sp4solvable.structure import Subalgebra, structure_constants
from sp4solvable.verify import verify_catalog

GOLDEN_SHA256 = "12da55357395102288fa0b3720416f882e17dbada2d1dac094462a4f7201a48e"


def golden_payload() -> dict:
    instances = []
    for e in load_catalog():
        for a in e.samples():
            sub = Subalgebra(e.space_at(a))
            instances.append({
                "row": e.row_id,
                "param": None if a is None else format_rational(a),
                "signature": signature(sub).to_json(),
                "structure_constants": structure_constants(sub).to_json(),
                "basis": [m.to_json() for m in sub.basis],
            })
    return {"report": verify_catalog().to_json(),
            "instances": instances}


def test_verdict_and_invariants_are_bit_identical():
    text = json.dumps(golden_payload(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
