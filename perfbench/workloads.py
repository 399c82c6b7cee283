"""The three workloads: seeded inputs, the timed operations, and the known
answers every output is checked against.

Inputs are generated from the seed alone; the library receives only the
generated inputs.  `certify` runs the paper's headline verdict, `classify`
the bulk element path, `identify` the user-facing identification of a
subalgebra given as a wire-format file.  README.md records why each was
chosen and which layers it stresses or bypasses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import sp4solvable as S
from sp4solvable import cli

CLASSIFY_OPS = 500
CONJUGATOR_POOL = 128
# identify takes every 8th catalog instance (15 of 120, dimensions 1 to 5):
# few enough that about seven passes fit one run, enough that more than half
# of the signature calls repeat one made before, as over all 120.  The seed
# varies only the disguise.
IDENTIFY_STRIDE = 8

EXPECTED_CERTIFY = Path(__file__).with_name("certify_expected.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def instances(catalog: list) -> list:
    """Every (row, admissible sample) instance at the default samples."""
    return [(e, a) for e in catalog for a in e.samples()]


def param_text(x) -> str:
    return "-" if x is None else str(Fraction(x))


# ---------------------------------------------------------------------------
# seeded symplectic conjugators
# ---------------------------------------------------------------------------

SHEAR_STEPS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def random_conjugator(rng: random.Random) -> tuple:
    """One of W, A, J, AJ and two root shears in a seeded order, with the
    exact inverse.  The fixed shape keeps the entry sizes, and so the cost
    of an op, alike from seed to seed.

    The named atoms are signed permutation matrices, so each inverse is its
    transpose; a root shear id + zX inverts to id - zX since X^2 = 0.
    """
    named = rng.choice((S.W_MAT, S.A_MAT, S.J_FORM, S.AJ_MAT))
    atoms = [(named, named.transpose())]
    for _ in range(2):
        root = rng.choice(S.sp4.ROOT_LABELS)
        z = Fraction(rng.choice(SHEAR_STEPS))
        atoms.append((S.shear(root, z), S.shear(root, -z)))
    rng.shuffle(atoms)
    g = ginv = S.Mat4.identity()
    for atom, inv in atoms:
        g, ginv = g * atom, inv * ginv
    if g * ginv != S.Mat4.identity():
        raise RuntimeError("conjugator inverse is wrong")
    return g, ginv


# ---------------------------------------------------------------------------
# classify: known labels of the table-row representatives
# ---------------------------------------------------------------------------

KINDS = ("T_ab", "T_a0", "T_aa", "X_alpha", "X_beta", "X_alpha_plus_X_beta",
         "T_a0_plus_X_alpha", "T_aa_plus_X_beta")
VALUES = tuple(sorted({Fraction(s * p, q) for p in range(1, 8) for q in (1, 2, 3)
                       for s in (1, -1)}))


def _size_key(q: Fraction) -> tuple:
    return (abs(q.numerator) * q.denominator, abs(q.numerator))


def label(table: int, row: str, **params) -> dict:
    return {"table": table, "row": row,
            "params": {k: str(Fraction(v)) for k, v in params.items()}}


def representative(kind: str, a: Fraction, b: Fraction) -> tuple:
    """(matrix, expected label) of one table row at parameters a, b.

    b is a second nonzero value with |b| != |a|.  Semisimple labels are the
    Weyl-canonical pair: both entries positive, the smaller size key first.
    """
    if kind == "T_ab":
        x, y = sorted((abs(a), abs(b)), key=_size_key)
        return S.T(a, b), label(1, "T_ab", a=x, b=y)
    if kind == "T_a0":
        return S.T(0, a) if b > 0 else S.T(a, 0), label(1, "T_a0", a=abs(a))
    if kind == "T_aa":
        return S.T(a, a if b > 0 else -a), label(1, "T_aa", a=abs(a))
    if kind == "X_alpha":
        return S.X_ALPHA * a, label(2, "X_alpha")
    if kind == "X_beta":
        return S.X_BETA * a, label(2, "X_beta")
    if kind == "X_alpha_plus_X_beta":
        return S.X_ALPHA * a + S.X_BETA * b, label(2, "X_alpha_plus_X_beta")
    if kind == "T_a0_plus_X_alpha":
        return S.T(a, 0) + S.X_ALPHA * b, label(2, "T_a0_plus_X_alpha", a=abs(a))
    if kind == "T_aa_plus_X_beta":
        return S.T(a, a) + S.X_BETA * b, label(2, "T_aa_plus_X_beta", a=abs(a))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Certify:
    """Every catalog instance through verify_entry, in a seeded order, then
    verify_separations one dimension at a time; the verdict is checked
    against HEAD's 816 checks.

    verify_separations compares instances of one dimension only, so the
    per-dimension calls do the work and emit the records of one call on the
    whole catalog, in shorter ops that time more steadily.
    """

    def __init__(self, seed: int, workdir: Path):
        catalog = S.load_catalog()
        self.instances = instances(catalog)
        self.dims = sorted({e.dim for e in catalog})
        self.by_dim = {d: [e for e in catalog if e.dim == d] for d in self.dims}
        order = list(range(len(self.instances)))
        random.Random(seed).shuffle(order)
        self.order = order
        self.n_ops = len(order) + len(self.dims)
        self.input_digest = digest(order)
        self.expected = json.loads(EXPECTED_CERTIFY.read_text())

    def run(self, i: int):
        if i >= len(self.order):
            return S.verify_separations(self.by_dim[self.dims[i - len(self.order)]])
        e, a = self.instances[self.order[i]]
        return S.verify_entry(e, params=(a,))

    def op_key(self, i: int) -> str:
        if i >= len(self.order):
            return f"separations-dim{self.dims[i - len(self.order)]}"
        e, a = self.instances[self.order[i]]
        return f"{e.row_id}@{param_text(a)}"

    def check(self, outputs: list) -> tuple:
        ok = [out is not None and
              digest(sorted(record_tuples(out))) == self.expected["per_op"][self.op_key(i)]
              for i, out in enumerate(outputs)]
        if not all(ok):
            return ok, None, False
        # reassemble in catalog order, as verify_catalog() concatenates them
        n = len(self.order)
        by_instance = {self.order[i]: outputs[i] for i in range(n)}
        records = [t for k in sorted(by_instance) for t in record_tuples(by_instance[k])]
        records += [t for out in outputs[n:] for t in record_tuples(out)]
        verdict = {"checks": len(records),
                   "overall_pass": all(t[3] == "pass" for t in records),
                   "digest": digest(sorted(records))}
        whole = all(verdict[k] == self.expected[k] for k in verdict)
        return ok, digest(records), whole


def record_tuples(report) -> list:
    return [[r.row_id, r.param, r.check, r.status] for r in report.records]


class Classify:
    """Seeded conjugates of the eight table-row representatives through
    classify_element; each expected label is known by construction."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        pool = [random_conjugator(rng) for _ in range(CONJUGATOR_POOL)]
        self.inputs, self.expected = [], []
        for i in range(CLASSIFY_OPS):
            a = rng.choice(VALUES)
            b = rng.choice([v for v in VALUES if abs(v) != abs(a)])
            rep, want = representative(KINDS[i % len(KINDS)], a, b)
            g, ginv = rng.choice(pool)
            self.inputs.append(g * rep * ginv)
            self.expected.append(want)
        self.n_ops = len(self.inputs)
        self.input_digest = digest([m.to_json() for m in self.inputs])

    def run(self, i: int):
        return S.classify_element(self.inputs[i]).to_json()

    def check(self, outputs: list) -> tuple:
        ok = [out == want for out, want in zip(outputs, self.expected)]
        return ok, digest(outputs), all(ok)


class Identify:
    """Every 8th catalog instance, disguised by a seeded symplectic
    conjugation and written as a wire-format file, through the `identify`
    command in-process; the expected row and de Graaf label are known."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.paths, self.expected, texts = [], [], []
        for k, (e, a) in enumerate(instances(S.load_catalog())[::IDENTIFY_STRIDE]):
            g, ginv = random_conjugator(rng)
            basis = [g * b * ginv for b in e.basis_at(a)]
            text = json.dumps({"ambient": "sp4", "basis": [m.to_json() for m in basis]})
            path = workdir / f"identify-{k:03d}.json"
            path.write_text(text)
            texts.append(text)
            self.paths.append(str(path))
            dg = e.degraaf_at(a)
            self.expected.append((e.row_id, None if dg is None else str(dg)))
        self.n_ops = len(self.paths)
        self.input_digest = digest(texts)

    def run(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["identify", "--input", self.paths[i], "--output", "json"])
        return code, buf.getvalue()

    def check(self, outputs: list) -> tuple:
        ok, payloads = [], []
        for out, (row, degraaf) in zip(outputs, self.expected):
            if out is None or out[0] != 0:
                ok.append(False)
                payloads.append(None)
                continue
            payload = json.loads(out[1])
            payloads.append(payload)
            rows = [m["row"] for m in payload["catalog_rows"]]
            ok.append(row in rows and payload.get("degraaf") == degraaf)
        return ok, digest(payloads), all(ok)


WORKLOADS = {"certify": Certify, "classify": Classify, "identify": Identify}
