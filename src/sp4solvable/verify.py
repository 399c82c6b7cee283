"""The certification driver.

For every catalog row at every admissible sample parameter this runs, in
order: closure and dimension, the one owner of the basis size (as many
stated vectors as the row's dimension, all independent); solvability;
every claimed equivalence, by its conjugator recipe on echelonized spans;
the stated class, identified with exact parameters; the encoded
isomorphism map, bracket-exact; and the translated label and its bridge, a
bracket-verified map onto the translated presentation.  An instance holds
one bracket table, in the echelon basis of its span
(`Subalgebra.constants`).  The class label is an isomorphism invariant, so
it is identified on that table, and the stated basis enters only the map
check, as a frame read after closure passed: the stated basis's int
echelon coordinates (`_Instance.frame`), which carry the map's columns into
echelon coordinates over one den before the int core of
`identify.verify_isomorphism`.  Instances and claim spans are spanned by
the rows' root coordinates (`catalog.coord_rows`); no matrix is laid out
for them.  `_record` makes exactly one record for each declared check, or
propagates a size limit, so no claim drops out of a report; each is a skip
after a failed closure.  The bridge is a fact of the de Graaf class alone,
so it is checked once per class (`_sw_bridge`) and recorded once per
instance.  A fault of the row's data (an `Sp4Error`, or an
`ArithmeticError` or `ValueError` such as a pole or malformed text) is the
check's fail, with its repr as detail; the size limits `ExpressionLimit`,
`FactorizationLimit` and `OutputLimit` propagate (exit 3).  Pairwise
separations inside each dimension are certified by a differing signature
field; only the pairs of one row or of one signature hash can fail, so only
those are visited, and the rest are counted.  A row's parameter orbit is
kept per (row, a) (`_orbit`), and a conjugator recipe that names no `a` is
parsed once (`_conjugator`).  A randomized probe matches closed random
Borel seeds back into the catalog: each draw must match exactly one row,
and a row whose data faults fails the draw.  `match_catalog` builds each parameterized row at
one candidate per parameter orbit, the orbits its self-equivalence claims
close, so the probe and `identify` prune their candidates by claims that
the certifier checks only at its samples.  It compares a row without a
parameter by the signature shipped for it in `row_signatures.json`
(written by `tools/rowsigs.py`, recomputed by a test), as written, with the
query's `to_json()`, when the row's id and stated basis are the stored
ones, and builds every other row; a query value too long to print
(`OutputLimit`) matches no stored row.  The file is read on
`match_catalog`'s first call; `verify_entry` and `verify_separations` never
read it, so every signature the certifier certifies is computed.
"""

from __future__ import annotations

import json
import os
import random
from functools import cache, lru_cache, partial
from itertools import combinations
from operator import mul

from .catalog import (DEFAULT_PARAM_SAMPLES, INSTANCE_CACHE_SIZE, CatalogEntry, _tuples,
                      coord_span, load_catalog)
from .errors import (CatalogFault, ExpressionLimit, FactorizationLimit, IrrationalSpectrum,
                     OutputLimit, ProbeLimit, Sp4Error)
from .exprs import eval_expr
from .identify import (DeGraafClass, _isomorphism_num, _square_map, degraaf_to_sw,
                       identify_degraaf, sw_bridge_map, verify_isomorphism)
from .invariants import _SignatureWork, _x0_facts
from .jordan import _eigen_pair
from .linalg import Subspace, rref
from .rational import Record, format_rational
from .sp4 import conjugate_subalgebra, element, parse_conjugator
from .structure import Subalgebra, generated_subalgebra, is_solvable

__all__ = ["CheckRecord", "VerificationReport", "verify_entry",
           "verify_catalog", "verify_separations", "random_subalgebra_probe",
           "match_catalog"]


class CheckRecord(Record):
    __slots__ = ("row_id", "param", "check", "status", "detail")  # status: pass, fail or skip
    _defaults = {"detail": ""}

    def to_json(self) -> dict:
        return {"row": self.row_id, "param": self.param, "check": self.check,
                "status": self.status, "detail": self.detail}


class VerificationReport:
    def __init__(self, records: list | None = None, samples: tuple = DEFAULT_PARAM_SAMPLES):
        self.records = [] if records is None else records
        self.samples = samples

    def add(self, row_id, param, check, ok, detail=""):
        """A record: ok None is a skip, and detail its reason."""
        status = "skip" if ok is None else "pass" if ok else "fail"
        self.records.append(CheckRecord(row_id, _p(param), check, status, detail))

    @property
    def overall_pass(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list:
        return [r for r in self.records if r.status == "fail"]

    def to_json(self) -> dict:
        return {
            "samples": [format_rational(a) for a in self.samples],
            "overall_pass": self.overall_pass,
            "checks": len(self.records),
            "records": [r.to_json() for r in self.records],
        }

    def to_text(self) -> str:
        lines = ["parameter samples: "
                 + ", ".join(format_rational(a) for a in self.samples)]
        by_row: dict[str, list] = {}
        for r in self.records:
            by_row.setdefault(r.row_id, []).append(r)
        for row_id in sorted(by_row):
            recs = by_row[row_id]
            bad = [r for r in recs if r.status != "pass"]
            flag = "FAIL" if any(r.status == "fail" for r in bad) else "ok "
            lines.append(f"[{flag}] {row_id}: {len(recs)} checks")
            for r in bad:
                lines.append(f"       {r.status}: {r.check} @ a={r.param}: {r.detail}")
        lines.append(f"total: {len(self.records)} checks, "
                     f"{'all passed' if self.overall_pass else str(len(self.failures)) + ' problems'}")
        return "\n".join(lines)


def _p(param) -> str:
    return "-" if param is None else format_rational(param)


# The most draws a random probe makes.  A draw takes 0.5-2 ms (a closure, a
# signature and its candidate rows), so a probe at the bound runs about 1-3.5
# minutes; a larger count raises `ProbeLimit` (CLI exit 3) before any work.
PROBE_COUNT_BOUND = 10**5
# The size bounds of the caller (CLI exit 3), never a fault of a row, and
# the faults of a row's own data, which fail that row's check.
_SIZE_LIMITS = (ExpressionLimit, FactorizationLimit, OutputLimit)
_ROW_FAULTS = (Sp4Error, ArithmeticError, ValueError)


class _Instance(_SignatureWork):
    """A catalog row at one parameter: its stated basis, as the int
    coordinate rows `rows` over `den`, and the subalgebra they span (with
    its one bracket table, in the echelon basis), whose signature work it
    owns (`invariants._SignatureWork`): `match_catalog` reads the probe, the
    costliest field, only when the head equals the query's, and
    `verify_separations` the full signature."""

    def __init__(self, rows: list, den: int):
        super().__init__(Subalgebra(Subspace._of(rref(rows))))
        self.rows, self.den = rows, den

    def frame(self) -> tuple[list[list[int]], int]:
        """The stated basis in echelon coordinates, as int rows over its den:
        each stated row read at the echelon pivots, where each echelon
        element has 1 at its own pivot and 0 at the others'.  The echelon
        basis is the echelon form of these rows, so no read needs the
        membership check of `Subspace.coords_num`; after `_closure` passed,
        they are independent."""
        pivots = [c for c, _ in self.sub.space.pairs]
        return [[r[c] for c in pivots] for r in self.rows], self.den


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _instance(entry: CatalogEntry, a) -> _Instance:
    """Each instance built once, keyed on the row's content, not its row_id."""
    return _Instance(*entry.rows_at(a))


# ---------------------------------------------------------------------------
# single-row verification
# ---------------------------------------------------------------------------

def _guard(rep: VerificationReport, row_id, param, check: str, f, lost=""):
    """f(), or None after a `fail` record for `check` when f meets a fault of
    the row's data; its detail is the exception's repr, then `lost`."""
    try:
        return f()
    except _SIZE_LIMITS:
        raise
    except _ROW_FAULTS as exc:
        rep.add(row_id, param, check, False, repr(exc) + lost)


def _record(rep: VerificationReport, row_id, param, check: str, body) -> bool:
    """The one record of a check: `body` returns (ok, detail), or (None,
    reason) for a skip, and a fault inside it is the check's fail."""
    out = _guard(rep, row_id, param, check, body)
    if out is not None:
        rep.add(row_id, param, check, *out)
    return bool(out and out[0])


def verify_entry(entry: CatalogEntry, params=DEFAULT_PARAM_SAMPLES,
                 report: VerificationReport | None = None) -> VerificationReport:
    rep = _report(report, params)
    samples = _guard(rep, entry.row_id, None, "parameter samples",
                     lambda: entry.samples(params), "; the row's checks did not run")
    if samples == ():
        rep.add(entry.row_id, None, "parameter samples", None,
                f"none of {', '.join(_p(a) for a in params)} is admissible; "
                "the row's claims did not run")
    for i, a in enumerate(samples or ()):
        _verify_at(entry, a, rep, first=(i == 0))
    return rep


def _report(report: VerificationReport | None, params) -> VerificationReport:
    """The given report, or a new one that names the samples actually used."""
    return report if report is not None else VerificationReport(samples=tuple(params))


def _verify_at(entry: CatalogEntry, a, rep: VerificationReport, first: bool):
    """Every check of one row instance, each recorded once by `_record`:
    closure and dimension, then the declared checks, each a skip when the
    instance failed closure."""
    closed = _record(rep, entry.row_id, a, "closure+dimension", partial(_closure, entry, a))
    checks = _declared_checks(entry, a, first, rep)
    for val, check, body in checks:
        _record(rep, entry.row_id, val, check,
                body if closed else lambda: (None, "instance failed closure"))


def _closure(entry: CatalogEntry, a) -> tuple:
    """Whether the stated vectors are a basis of a closed span of the row's
    dimension."""
    inst = _instance(entry, a)
    if not len(inst.rows) == inst.sub.dim == entry.dim:
        return False, f"{len(inst.rows)} stated vectors span dim {inst.sub.dim}/{entry.dim}"
    inst.sub.constants  # the bracket table exists iff the span is closed
    return True, ""


def _declared_checks(entry: CatalogEntry, a, first: bool, rep) -> list:
    """(value, check, body) for each check the row declares at its sample a,
    in report order; sample-restricted claims run at the `first` sample, and
    a claim whose stated values do not evaluate is its fail, recorded here.
    The de Graaf class is evaluated at most once, and is the map's source
    class when the row has one; `identify` keeps its label, and
    `_sw_bridge` its bridge."""
    dg = cache(partial(entry.degraaf_at, a))

    def degraaf_class():
        stated, found = dg(), identify_degraaf(_instance(entry, a).sub.constants)
        return found == stated, (str(found) if found == stated
                                 else f"found {found}, stated {stated}")

    def isomorphism_map():
        # the stated int columns over e, in stated-basis coordinates, carried
        # through the frame into echelon ones: column i is sum_k Y_i[k] F_k
        # over e * f
        pres = dg() if entry.degraaf is not None else entry.sw_at(a)
        inst = _instance(entry, a)
        src, tgt = pres.constants(), inst.sub.constants
        frame, f = inst.frame()
        ys, e = entry.iso_columns_at(a)
        _square_map(src, tgt, ys)
        cols = [[sum(map(mul, y, fc)) for fc in zip(*frame)] for y in ys]
        return _isomorphism_num(src, tgt, cols, e * f), f"{pres} -> {entry.label}"

    def sw_label():
        # compared when stated and translated; dimension 5/6 rests on its isomorphism map
        stated = entry.sw_at(a)
        if stated is None or entry.degraaf is None:
            return True, str(stated or degraaf_to_sw(dg()))
        sw = degraaf_to_sw(dg())
        return sw == stated, f"computed {sw}, stated {stated}"

    checks = [(a, "solvable", lambda: (is_solvable(_instance(entry, a).sub), ""))]
    for claim in entry.equivalences:
        check = f"equivalence: {claim.desc}"
        for val in _guard(rep, entry.row_id, a, check,
                          lambda: _claim_values(claim, a, first)) or ():
            checks.append((val, check, partial(_claim_holds, entry, claim, val)))
    has_dg = entry.degraaf is not None
    return checks + [(a, check, body) for check, body, due in (
        ("degraaf-class", degraaf_class, has_dg),
        ("isomorphism-map", isomorphism_map, entry.iso_columns is not None),
        ("sw-label", sw_label, has_dg or entry.sw is not None),
        ("sw-bridge", lambda: _sw_bridge(dg()), has_dg)) if due]


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _sw_bridge(c: DeGraafClass) -> tuple:
    """(ok, detail) of the sw-bridge check of a de Graaf class, kept per
    class: whether its bracket-verified map (`sw_bridge_map`) carries the
    class presentation onto the translated one."""
    bridge_class, bridge = sw_bridge_map(c)
    return (verify_isomorphism(c.constants(), bridge_class.constants(), bridge),
            f"{c} -> {bridge_class}")


def _claim_values(claim, a, first: bool) -> tuple:
    """The values a claim is checked at for the row's sample a; one restricted
    to stated values (square-root recipes) runs once, at the first sample."""
    if claim.samples is None:
        return (a,)
    return tuple(eval_expr(s, {}) for s in claim.samples) if first else ()


def _claim_holds(entry: CatalogEntry, claim, val) -> tuple:
    """Whether the claim's recipe conjugates its source span onto its target
    span at val; a skip when the target parameter is not admissible."""
    env = {} if val is None else {"a": val}
    key = val if entry.param else None  # a row without parameter is one instance
    src = _instance(entry, key).sub.space if claim.src is None else coord_span(claim.src, env)
    if claim.tgt is None:
        tgt_param = key
        if claim.tgt_param is not None:
            tgt_param = eval_expr(claim.tgt_param, env)
            if not entry.conditions_ok(tgt_param):
                return None, (f"target parameter {claim.tgt_param} = "
                              f"{_p(tgt_param)} is not admissible")
        tgt = _instance(entry, tgt_param).sub.space
    else:
        tgt = coord_span(claim.tgt, env)
    g = _conjugator(claim.recipe, val if "a" in claim.recipe else None)
    return conjugate_subalgebra(g, src) == tgt, claim.recipe


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _conjugator(recipe: str, val):
    """The conjugator of a recipe at val, parsed once per (recipe, val); the
    callers pass None for a recipe that names no `a`, so it is parsed once."""
    return parse_conjugator(recipe, {} if val is None else {"a": val})


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _orbit(entry: CatalogEntry, a) -> frozenset:
    """The parameter orbit of a (`CatalogEntry.equivalent_params`), kept per
    (row, a) for `verify_separations` and `match_catalog`; a fault is not kept."""
    return frozenset(entry.equivalent_params(a))


# ---------------------------------------------------------------------------
# catalog-wide drivers
# ---------------------------------------------------------------------------

def verify_catalog(params=DEFAULT_PARAM_SAMPLES, probe_seed: int = 0,
                   probe_count: int = 0) -> VerificationReport:
    """Every row, then the separations; the random probe runs only when
    `probe_count` > 0."""
    _check_probe_count(probe_count)
    rep = _report(None, params)
    entries = load_catalog()
    for e in entries:
        verify_entry(e, params=params, report=rep)
    verify_separations(entries, params=params, report=rep)
    if probe_count > 0:
        random_subalgebra_probe(probe_seed, probe_count, report=rep)
    return rep


def verify_separations(entries=None, params=DEFAULT_PARAM_SAMPLES,
                       report: VerificationReport | None = None) -> VerificationReport:
    """Certify that every pair of same-dimension instances the classification
    declares inequivalent is separated by a signature field, and that the
    instances of one parameter orbit agree.  A pair of different rows and
    different signature hashes differs, so the pairs that share a row or a
    hash are visited, in (i, j) order; the count of inequivalent pairs is
    C(n, 2) minus the same-class pairs.  A failing dimension's detail names
    its first four bad pairs and counts the rest."""
    rep = _report(report, params)
    entries = entries if entries is not None else load_catalog()
    by_dim: dict[int, list] = {}
    for e in entries:
        for a in _guard(rep, e.row_id, None, "parameter samples", lambda: e.samples(params),
                        "; the row's separations did not run") or ():
            lost = "; the instance's separations did not run"
            orbit = _guard(rep, e.row_id, a, "parameter orbit",
                           lambda: {a} if a is None else _orbit(e, a), lost)
            sig = orbit and _guard(rep, e.row_id, a, "signature",
                                   lambda: _instance(e, a).signature, lost)
            if sig:
                by_dim.setdefault(e.dim, []).append((e, a, orbit, sig))
    for dim, insts in sorted(by_dim.items()):
        # a pair can fail only inside a row (an equivalent pair separated) or
        # inside a signature (an inequivalent pair colliding): visit the pairs
        # of each row and of each signature hash, a superset of the latter
        buckets: dict = {}
        for i, (e, _, _, sig) in enumerate(insts):
            buckets.setdefault((0, e.row_id), []).append(i)
            buckets.setdefault((1, hash(sig)), []).append(i)
        bad, same = [], 0
        for i, j in sorted({p for b in buckets.values() for p in combinations(b, 2)}):
            (e1, a1, orbit, s1), (e2, a2, _, s2) = insts[i], insts[j]
            if e1.row_id == e2.row_id and (a1 is None or a2 in orbit):
                # same conjugacy class: signatures must agree instead
                same += 1
                if s1 != s2:
                    bad.append((e1.row_id, a1, e2.row_id, a2, "equivalent params separated"))
            elif s1 == s2:
                bad.append((e1.row_id, a1, e2.row_id, a2, "signatures collide"))
        n_pairs = len(insts) * (len(insts) - 1) // 2 - same
        shown = [f"{r1}@{_p(p1)} ~ {r2}@{_p(p2)}: {why}" for r1, p1, r2, p2, why in bad[:4]]
        if len(bad) > 4:
            shown.append(f"{len(bad) - 4} more")
        rep.add(f"separations-dim{dim}", None, f"{n_pairs} inequivalent pairs", not bad,
                "; ".join(shown))
    return rep


# ---------------------------------------------------------------------------
# randomized completeness spot-check
# ---------------------------------------------------------------------------

def _param_candidates(work: _SignatureWork) -> list | None:
    """Candidate family parameters from the eigenvalue pair of the
    subalgebra's x0 (ratios p/q, q/p with signs), read off the traces
    tr x^2 and tr x^4 that `invariants._x0_facts` keeps (`jordan._eigen_pair`);
    none for a nilpotent one, and None when that pair is irrational, so that
    no rational parameter can match."""
    if work.i0 is None:
        return []
    try:
        p, q = _eigen_pair(*_x0_facts(work.x0)[0])
    except IrrationalSpectrum:
        return None
    cands = {sign * x / y for x, y in ((p, q), (q, p)) if y for sign in (1, -1)}
    return sorted(cands, key=lambda v: (abs(v), v < 0))


ROW_SIGNATURES_FILE = os.path.join(os.path.dirname(__file__), "row_signatures.json")


@cache
def _row_signatures() -> dict:
    """The shipped signature of each parameter-free row, as written
    (`InvariantSignature.to_json`), keyed on its row_id and stated basis,
    read from `row_signatures.json` on the first call.  `tools/rowsigs.py`
    writes the file from the catalog, and a test recomputes every entry;
    only `match_catalog` reads it."""
    with open(ROW_SIGNATURES_FILE, encoding="utf-8") as fh:
        return {(d["row"], _tuples(d["basis"])): d["signature"] for d in json.load(fh)}


def match_catalog(sub: Subalgebra) -> list[tuple]:
    """Catalog rows (with parameters) whose signature matches the subalgebra's.

    A match is necessary for conjugacy; the probe asserts exactly one exists.
    A row matches when all six fields equal the query's (each side's work
    is an `invariants._SignatureWork`); the query's head is computed before
    its parameter candidates, so its refusals come first.  A row without a
    parameter is compared as written in `row_signatures.json`
    (`_row_signatures`) when its row_id and stated basis are a stored pair:
    it matches when its stored dict equals the query's
    `InvariantSignature.to_json()`, made once per call, at the first such
    row.  Every stored value was printed, so a query with a value too long
    to print matches no stored row; that is the one place `OutputLimit` is
    caught.  Every other row (a parameterized row, a changed basis, a row
    not shipped) is built, and its probe is computed only when its five
    other fields equal the query's.  A row whose data faults while it is
    compared raises `CatalogFault`, which names the row; a fault inside a
    row's probe surfaces only when its other fields agree.  A parameterized
    row is tried at its admissible candidates in order, up to the first
    match; once a candidate a fails, the rest of its parameter orbit
    (`CatalogEntry.equivalent_params(a)`) is skipped.  A skip rests on the
    row's self-equivalence claims holding at a, which the certifier proves
    only at its samples; and a fault in a skipped orbit-mate's instance no
    longer surfaces, as a probe's fault surfaces only where the other
    fields agree.  The loop runs over `load_catalog()`, so a stored row that
    the catalog lacks is never compared.  When no row matches and the
    eigenvalues that would give a row's parameter are irrational, the
    subalgebra is outside the rational rows, and `IrrationalSpectrum` is
    raised instead of an empty match.
    """
    query = _SignatureWork(sub)
    head = query.head
    cands = _param_candidates(query)
    dim = sub.dim
    matches, stored = [], _row_signatures()

    @cache
    def printed():
        try:
            return query.signature.to_json()
        except OutputLimit:  # every stored value was printed, so none is this one
            return None

    for e in load_catalog():
        if e.dim != dim:
            continue
        try:
            sig = stored.get((e.row_id, e.basis))
            if sig is not None:
                if sig == printed():
                    matches.append((e.row_id, None))
                continue
            # the candidates a row admits, or no parameter for a row without
            # one, each parameter orbit tried at its first candidate only
            tried = set()
            for a in e.samples(cands or ()):
                if a in tried:
                    continue
                inst = _instance(e, a)
                if inst.head == head and query.probe == inst.probe:
                    matches.append((e.row_id, a))
                    break
                if e.param:
                    tried |= _orbit(e, a)
        except _SIZE_LIMITS:
            raise
        except _ROW_FAULTS as exc:
            raise CatalogFault(f"row {e.row_id}: {exc!r}") from exc
    if not matches and cands is None:
        raise IrrationalSpectrum("no catalog row matches at a rational parameter: "
                                 "a non-nilpotent basis element has irrational eigenvalues")
    return matches


def _check_probe_count(count: int) -> None:
    if count > PROBE_COUNT_BOUND:
        raise ProbeLimit(f"a probe of {count} draws exceeds the bound "
                         f"PROBE_COUNT_BOUND = {PROBE_COUNT_BOUND}")


def random_subalgebra_probe(seed: int, count: int,
                            report: VerificationReport | None = None) -> VerificationReport:
    """Generate random solvable subalgebras of the Borel, close them under
    the bracket, and check each signature matches exactly one catalog row.
    Every dimension, 1 to 6, is matched; a draw with irrational spectra is
    skipped, not failed, and the summary record counts the skips.  A draw
    that matches no row or several, or meets a faulty row, is a fail record
    named by its number among all draws; the probe ends after `count`
    draws matched or failed."""
    _check_probe_count(count)
    rep = _report(report, ())  # a probe evaluates rows at eigenvalue candidates only
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    matched = 0
    skipped = 0
    while produced < count:
        attempts += 1
        seeds = []
        n_seeds = rng.choice((1, 1, 2))
        for _ in range(n_seeds):
            # T(a, b), then the coefficients of X_alpha, X_beta, X_{alpha+beta}, X_{alpha+2beta}
            t = [rng.randint(-3, 3), rng.randint(-3, 3)] if rng.random() < 0.7 else [0, 0]
            m = element(*t, *[rng.randint(-2, 2) if rng.random() < 0.4 else 0 for _ in range(4)])
            if not m.is_zero():
                seeds.append(m)
        if not seeds:
            continue
        sub = generated_subalgebra(seeds)
        try:
            problem = _match_problem(sub, match_catalog(sub))
        except IrrationalSpectrum:
            skipped += 1
            continue
        except CatalogFault as exc:
            problem = str(exc)
        produced += 1
        if problem:
            rep.add("probe", None, f"seed draw {attempts}", False, problem)
        else:
            matched += 1
    rep.add("probe", None,
            f"{produced} random subalgebras matched (seed={seed})",
            matched == produced,
            f"{matched}/{produced} matched, {skipped} skipped (irrational spectra)")
    return rep


def _match_problem(sub: Subalgebra, matches: list) -> str:
    """Why a probe draw's matches fail it: none, or several; '' for one."""
    if not matches:
        return "no catalog row matches signature of " + "; ".join(map(repr, sub.basis))
    if len(matches) > 1:
        return (f"signature matches {len(matches)} rows: "
                + ", ".join(f"{rid}@{_p(a)}" for rid, a in matches))
    return ""
