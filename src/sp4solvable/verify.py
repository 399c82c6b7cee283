"""The certification driver.

For every catalog row at every admissible sample parameter this runs, in
order: closure and dimension; solvability; every claimed equivalence, by its
conjugator recipe on echelonized spans; the stated class, identified with
exact parameters; the encoded isomorphism map, bracket-exact; and the
translated label and its bridge, a bracket-verified map onto the translated
presentation.  Each check makes one record, through `_record`, and is a
skip after a failed closure; the bridge is a fact of the de Graaf class
alone, so it is checked once per class (`_sw_bridge`) and recorded once per
instance.  A fault of the row's data (an `Sp4Error`, or an
`ArithmeticError` or `ValueError` such as a pole or malformed text) is the
check's fail, with its repr as detail; the size limits `ExpressionLimit` and
`FactorizationLimit` propagate (CLI exit 3).  Pairwise separations inside
each dimension are certified by a differing signature field, and a randomized
probe matches closed random Borel seeds back into the catalog: each draw must
match exactly one row, and a row whose data faults fails the draw.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache, cached_property, lru_cache, partial

from .catalog import DEFAULT_PARAM_SAMPLES, CatalogEntry, build_elements, load_catalog
from .errors import (CatalogFault, ExpressionLimit, FactorizationLimit,
                     IrrationalSpectrum, ProbeLimit, Sp4Error)
from .exprs import eval_expr
from .identify import (DeGraafClass, degraaf_to_sw, identify_degraaf, sw_bridge_map,
                       verify_isomorphism)
from .invariants import InvariantSignature, _signature, _signature_head, nilpotent_subspace
from .jordan import _eigen_pair
from .linalg import Mat4, _even_traces, echelon_span
from .rational import Q, Record, format_rational
from .sp4 import (T, X_A2B, X_AB, X_ALPHA, X_BETA, conjugate_subalgebra, in_sp4,
                  parse_conjugator)
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


# Holds every default-sample instance plus the probe's candidate parameters.
INSTANCE_CACHE_SIZE = 1024
# The most draws a random probe makes.  A draw takes 0.5-2 ms (a closure, a
# signature and its candidate rows), so a probe at the bound runs about 1-3.5
# minutes; a larger count raises `ProbeLimit` (CLI exit 3) before any work.
PROBE_COUNT_BOUND = 10**5
# The size bounds of the caller (CLI exit 3), never a fault of a row, and
# the faults of a row's own data, which fail that row's check.
_SIZE_LIMITS = (ExpressionLimit, FactorizationLimit)
_ROW_FAULTS = (Sp4Error, ArithmeticError, ValueError)


class _Instance:
    """A catalog row at one parameter: its stated basis, the subalgebra they
    span, and its bracket table in that basis and its signature, computed on
    first use.  The signature's nine fields before `probe` (`head`) are
    computed together; the probe, the costliest field, only when asked for,
    from the same work.  `match_catalog` asks for it only when the head
    equals the query's, and `verify_separations` for the full signature."""

    def __init__(self, mats: tuple, sub: Subalgebra):
        self.mats, self.sub = mats, sub

    @cached_property
    def table(self):
        return self.sub.constants_in(self.mats)

    @cached_property
    def _head(self) -> tuple:
        return _signature_head(self.sub, nilpotent_subspace(self.sub))

    @property
    def head(self) -> tuple:
        return self._head[0]

    @cached_property
    def probe(self):
        probe = self._head[1]
        return probe and probe()

    @cached_property
    def signature(self) -> InvariantSignature:
        return InvariantSignature(*self.head, self.probe)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _instance(entry: CatalogEntry, a) -> _Instance:
    """Each instance built once, keyed on the row's content, not its row_id."""
    mats = tuple(entry.basis_at(a))
    return _Instance(mats, Subalgebra(echelon_span(mats)))


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


def _fail_unrecorded_claims(row_id: str, declared: list, rep, records: list):
    """A fail record for each value a declared claim was due at, among the
    (value, check, body) in `declared`, that left no record of its own in
    `records` (the sample's records), so that nothing drops a claim silently."""
    left = Counter((r.check, r.param) for r in records if r.row_id == row_id)
    for val, check, _ in declared:
        if check.startswith("equivalence: "):
            left[check, _p(val)] -= 1
            if left[check, _p(val)] < 0:
                rep.add(row_id, val, check, False, "the claim left no record")


def _report(report: VerificationReport | None, params) -> VerificationReport:
    """The given report, or a new one that names the samples actually used."""
    return report if report is not None else VerificationReport(samples=tuple(params))


def _verify_at(entry: CatalogEntry, a, rep: VerificationReport, first: bool):
    """Every check of one row instance, each recorded by `_record`: closure
    and dimension, then the declared checks, each a skip when the instance
    failed closure."""
    start = len(rep.records)
    closed = _record(rep, entry.row_id, a, "closure+dimension", partial(_closure, entry, a))
    checks = _declared_checks(entry, a, first, rep)
    for val, check, body in checks:
        _record(rep, entry.row_id, val, check,
                body if closed else lambda: (None, "instance failed closure"))
    _fail_unrecorded_claims(entry.row_id, checks, rep, rep.records[start:])


def _closure(entry: CatalogEntry, a) -> tuple:
    inst = _instance(entry, a)
    dim, sp4 = inst.sub.space.dim, all(in_sp4(m) for m in inst.mats)
    if dim != entry.dim or not sp4:
        return False, f"dim {dim}/{entry.dim} sp4 {sp4}"
    inst.sub.constants  # the bracket table exists iff the span is closed
    return True, ""


def _declared_checks(entry: CatalogEntry, a, first: bool, rep) -> list:
    """(value, check, body) for each check the row declares at its sample a,
    in report order; sample-restricted claims run at the `first` sample, and
    a claim whose stated values do not evaluate is its fail, recorded here.
    The de Graaf class is evaluated at most once; `identify` keeps its label,
    and `_sw_bridge` its bridge."""
    dg = cache(partial(entry.degraaf_at, a))

    def degraaf_class():
        stated, found = dg(), identify_degraaf(_instance(entry, a).table)
        return found == stated, (str(found) if found == stated
                                 else f"found {found}, stated {stated}")

    def isomorphism_map():
        pres = entry.presentation_at(a)
        return (verify_isomorphism(pres.constants(), _instance(entry, a).table,
                                   entry.iso_columns_at(a)), f"{pres} -> {entry.label}")

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
    env = {} if val is None else {"a": Q(val)}
    key = val if entry.param else None  # a row without parameter is one instance
    src = (_instance(entry, key).sub.space if claim.src is None
           else echelon_span(build_elements(claim.src, env)))
    if claim.tgt is None:
        tgt_param = key
        if claim.tgt_param is not None:
            tgt_param = eval_expr(claim.tgt_param, env)
            if not entry.conditions_ok(tgt_param):
                return None, (f"target parameter {claim.tgt_param} = "
                              f"{_p(tgt_param)} is not admissible")
        tgt = _instance(entry, tgt_param).sub.space
    else:
        tgt = echelon_span(build_elements(claim.tgt, env))
    g = parse_conjugator(claim.recipe, env)
    return conjugate_subalgebra(g, src) == tgt, claim.recipe


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
    declares inequivalent is separated by a signature field."""
    rep = _report(report, params)
    entries = entries if entries is not None else load_catalog()
    by_dim: dict[int, list] = {}
    for e in entries:
        for a in _guard(rep, e.row_id, None, "parameter samples", lambda: e.samples(params),
                        "; the row's separations did not run") or ():
            lost = "; the instance's separations did not run"
            orbit = _guard(rep, e.row_id, a, "parameter orbit",
                           lambda: {a} if a is None else e.equivalent_params(a), lost)
            sig = orbit and _guard(rep, e.row_id, a, "signature",
                                   lambda: _instance(e, a).signature, lost)
            if sig:
                by_dim.setdefault(e.dim, []).append((e, a, orbit, sig))
    for dim, insts in sorted(by_dim.items()):
        bad, n_pairs = [], 0
        for i, (e1, a1, orbit, s1) in enumerate(insts):
            for e2, a2, _, s2 in insts[i + 1:]:
                if e1.row_id == e2.row_id:
                    if a1 is None or Q(a2) in orbit:
                        # same conjugacy class: signatures must agree instead
                        if s1 != s2:
                            bad.append((e1.row_id, a1, a2, "equivalent params separated"))
                        continue
                n_pairs += 1
                if s1 == s2:
                    bad.append((f"{e1.row_id}@{_p(a1)}", f"{e2.row_id}@{_p(a2)}",
                                "", "signatures collide"))
        rep.add(f"separations-dim{dim}", None, f"{n_pairs} inequivalent pairs",
                not bad, "; ".join(str(b) for b in bad[:4]))
    return rep


# ---------------------------------------------------------------------------
# randomized completeness spot-check
# ---------------------------------------------------------------------------

def _param_candidates(sub: Subalgebra, nspace) -> list | None:
    """Candidate family parameters from the eigenvalue pair of a canonical
    non-nilpotent element (ratios p/q, q/p with signs), read off its traces
    tr x^2 and tr x^4 (`jordan._eigen_pair`); None when that pair is
    irrational, so that no rational parameter can match."""
    for b in sub.basis:
        if not nspace.contains(b):
            try:
                p, q = _eigen_pair(*_even_traces(b.num)[1:], b.den)
            except IrrationalSpectrum:
                return None
            cands = set()
            for x, y in ((p, q), (q, p)):
                if y != 0:
                    cands.add(x / y)
                    cands.add(-x / y)
            return sorted(cands, key=lambda v: (abs(v), v < 0))
    return []


def match_catalog(sub: Subalgebra) -> list[tuple]:
    """Catalog rows (with parameters) whose signature matches the subalgebra's.

    A match is necessary for conjugacy; the probe asserts exactly one exists.
    A row matches when all ten fields equal the query's; its spectral probe
    is computed only when its nine other fields do (`_Instance`).  A row
    whose data faults while it is compared raises `CatalogFault`, which
    names the row; a fault inside a row's probe surfaces only when its other
    fields agree.  When no row matches and the eigenvalues that would give
    a row's parameter are irrational, the subalgebra is outside the rational
    rows, and `IrrationalSpectrum` is raised instead of an empty match.
    """
    nspace = nilpotent_subspace(sub)
    sig = _signature(sub, nspace)
    head = sig.head
    cands = _param_candidates(sub, nspace)
    dim = sub.dim
    matches = []
    for e in load_catalog():
        if e.dim != dim:
            continue
        try:
            # the candidates a row admits, or no parameter for a row without one
            for a in e.samples(cands or ()):
                inst = _instance(e, a)
                if inst.head == head and inst.probe == sig.probe:
                    matches.append((e.row_id, a))
                    break
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
    that matches no row or several, or meets a faulty row, is a fail record."""
    _check_probe_count(count)
    rep = _report(report, ())  # a probe evaluates rows at eigenvalue candidates only
    rng = random.Random(seed)
    pool = [X_ALPHA, X_BETA, X_AB, X_A2B]
    produced = 0
    attempts = 0
    matched = 0
    skipped = 0
    while produced < count and attempts < 40 * count:
        attempts += 1
        seeds = []
        n_seeds = rng.choice((1, 1, 2))
        for _ in range(n_seeds):
            m = Mat4.zero()
            if rng.random() < 0.7:
                m = m + T(rng.randint(-3, 3), rng.randint(-3, 3))
            for x in pool:
                if rng.random() < 0.4:
                    m = m + x * Q(rng.randint(-2, 2))
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
