"""The certification driver.

For every catalog row at every admissible sample parameter this runs, in
order: closure and dimension; solvability; every claimed equivalence by
applying its conjugator recipe and comparing echelonized images;
identification of the structure constants against the stated class with
exact parameters; bracket-exact verification of the encoded isomorphism map;
and the translated label.  Pairwise separations inside each dimension
are certified by exhibiting a differing signature field, and a randomized
probe closes random Borel seeds and matches them back into the catalog.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .catalog import CatalogEntry, build_element, load_catalog
from .errors import IrrationalSpectrum, Sp4Error
from .exprs import eval_expr
from .identify import (degraaf_to_sw, identify_degraaf, sw_bridge_map,
                       verify_isomorphism)
from .invariants import _signature, nilpotent_subspace, signature
from .jordan import _eigen_pair
from .linalg import Mat4, char_poly, echelon_span
from .rational import Q, format_rational
from .sp4 import (DEFAULT_PARAM_SAMPLES, T, X_A2B, X_AB, X_ALPHA, X_BETA,
                  conjugate_subalgebra, in_sp4, parse_conjugator)
from .structure import Subalgebra, generated_subalgebra, is_solvable

__all__ = ["CheckRecord", "VerificationReport", "verify_entry",
           "verify_catalog", "verify_separations", "random_subalgebra_probe",
           "match_catalog"]


@dataclass
class CheckRecord:
    row_id: str
    param: str
    check: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_json(self) -> dict:
        return {"row": self.row_id, "param": self.param, "check": self.check,
                "status": self.status, "detail": self.detail}


@dataclass
class VerificationReport:
    records: list = field(default_factory=list)
    samples: tuple = DEFAULT_PARAM_SAMPLES

    def add(self, row_id, param, check, ok, detail=""):
        status = "pass" if ok else "fail"
        self.records.append(CheckRecord(row_id, _p(param), check, status, detail))

    def skip(self, row_id, param, check, reason):
        self.records.append(CheckRecord(row_id, _p(param), check, "skip", reason))

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


@dataclass(frozen=True)
class _Instance:
    """A catalog row at one parameter: its stated basis, the subalgebra they
    span, and its signature, computed on first use."""

    mats: tuple
    sub: Subalgebra

    @cached_property
    def signature(self):
        return signature(self.sub)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def _instance(entry: CatalogEntry, a) -> _Instance:
    """Each instance built once, keyed on the row's content, not its row_id."""
    mats = tuple(entry.basis_at(a))
    return _Instance(mats, Subalgebra(echelon_span(mats)))


# ---------------------------------------------------------------------------
# single-row verification
# ---------------------------------------------------------------------------

def verify_entry(entry: CatalogEntry, params=DEFAULT_PARAM_SAMPLES,
                 report: VerificationReport | None = None) -> VerificationReport:
    rep = _report(report, params)
    samples = entry.samples(params)
    if not samples:
        rep.skip(entry.row_id, None, "parameter samples",
                 f"none of {', '.join(_p(a) for a in params)} is admissible; "
                 "the row's claims did not run")
    for i, a in enumerate(samples):
        start = len(rep.records)
        _verify_at(entry, a, rep, first=(i == 0))
        _fail_unrecorded_claims(entry, a, i == 0, rep, rep.records[start:])
    return rep


def _fail_unrecorded_claims(entry: CatalogEntry, a, first: bool,
                            rep: VerificationReport, records: list):
    """A fail record for each value a declared claim was due at that left no
    record of its own in `records` (the sample's records), so that no early
    return drops a claim from the report silently."""
    left = Counter((r.check, r.param) for r in records if r.row_id == entry.row_id)
    for claim in entry.equivalences:
        for val in _claim_values(claim, a, first):
            key = (f"equivalence: {claim.desc}", _p(val))
            if left[key]:
                left[key] -= 1
            else:
                rep.add(entry.row_id, val, key[0], False, "the claim left no record")


def _report(report: VerificationReport | None, params) -> VerificationReport:
    """The given report, or a new one that names the samples actually used."""
    return report if report is not None else VerificationReport(samples=tuple(params))


def _verify_at(entry: CatalogEntry, a, rep: VerificationReport, first: bool):
    """All checks of one row instance; `first` marks the row's first sample,
    where sample-restricted claims run."""
    inst = _instance(entry, a)
    mats, sub, space = inst.mats, inst.sub, inst.sub.space
    ok_dim = space.dim == entry.dim
    ok_sp4 = all(in_sp4(m) for m in mats)
    try:
        sub.constants  # the bracket table exists iff the span is closed
        ok_closed = True
    except Sp4Error:
        ok_closed = False
    rep.add(entry.row_id, a, "closure+dimension",
            ok_dim and ok_sp4 and ok_closed,
            "" if ok_dim and ok_sp4 and ok_closed else
            f"dim {space.dim}/{entry.dim} sp4 {ok_sp4} closed {ok_closed}")
    if not (ok_dim and ok_sp4 and ok_closed):
        for claim in entry.equivalences:
            for val in _claim_values(claim, a, first):
                rep.skip(entry.row_id, val, f"equivalence: {claim.desc}",
                         "instance failed closure")
        return
    rep.add(entry.row_id, a, "solvable", is_solvable(sub))

    for claim in entry.equivalences:
        _verify_claim(entry, claim, a, rep, first)

    sc = sub.constants_in(mats)
    dg = entry.degraaf_at(a)
    if dg is not None:
        try:
            found = identify_degraaf(sc)
            rep.add(entry.row_id, a, "degraaf-class", found == dg,
                    f"found {found}, stated {dg}" if found != dg else str(found))
        except Sp4Error as exc:
            rep.add(entry.row_id, a, "degraaf-class", False, repr(exc))
            found = None
    else:
        found = None

    if entry.iso_columns is not None:
        pres = entry.presentation_at(a)
        try:
            pres_sc = pres.constants()
            ok = verify_isomorphism(pres_sc, sc, entry.iso_columns_at(a))
            rep.add(entry.row_id, a, "isomorphism-map", ok,
                    f"{pres} -> {entry.label}")
        except Sp4Error as exc:
            rep.add(entry.row_id, a, "isomorphism-map", False, repr(exc))

    # the translated label: computed from the identified class, compared with
    # the stated one when the row states it explicitly, and backed by a
    # bracket-verified bridge onto the translated presentation
    if dg is not None:
        try:
            computed = degraaf_to_sw(dg)
        except Sp4Error as exc:
            rep.add(entry.row_id, a, "sw-label", False, repr(exc))
            computed = None
        if computed is not None:
            stated = entry.sw_at(a)
            if stated is not None:
                rep.add(entry.row_id, a, "sw-label", computed == stated,
                        f"computed {computed}, stated {stated}")
            else:
                rep.add(entry.row_id, a, "sw-label", True, str(computed))
            try:
                bridge_class, bridge = sw_bridge_map(dg, computed)
                ok = verify_isomorphism(dg.constants(), bridge_class.constants(),
                                        bridge)
                rep.add(entry.row_id, a, "sw-bridge", ok,
                        f"{dg} -> {bridge_class}")
            except Sp4Error as exc:
                rep.add(entry.row_id, a, "sw-bridge", False, repr(exc))
    elif entry.sw is not None:
        # dimension 5/6: the bracket-exact map to the stated class is the check
        rep.add(entry.row_id, a, "sw-label", True, str(entry.sw_at(a)))


def _claim_values(claim, a, first: bool) -> tuple:
    """The values a claim is checked at for the row's sample a; one restricted
    to stated values (square-root recipes) runs once, at the first sample."""
    if claim.samples is None:
        return (a,)
    return tuple(eval_expr(s, {}) for s in claim.samples) if first else ()


def _verify_claim(entry: CatalogEntry, claim, a, rep: VerificationReport,
                  first: bool):
    for val in _claim_values(claim, a, first):
        env = {} if val is None else {"a": Q(val)}
        key = val if entry.param else None  # a row without parameter is one instance
        try:
            src = (_instance(entry, key).sub.space if claim.src is None
                   else echelon_span([build_element(s, env) for s in claim.src]))
            if claim.tgt is None:
                tgt_param = key
                if claim.tgt_param is not None:
                    tgt_param = eval_expr(claim.tgt_param, env)
                    if not entry.conditions_ok(tgt_param):
                        rep.skip(entry.row_id, val, f"equivalence: {claim.desc}",
                                 f"target parameter {claim.tgt_param} = "
                                 f"{_p(tgt_param)} is not admissible")
                        continue
                tgt = _instance(entry, tgt_param).sub.space
            else:
                tgt = echelon_span([build_element(s, env) for s in claim.tgt])
            g = parse_conjugator(claim.recipe, env)
            ok = conjugate_subalgebra(g, src) == tgt
            rep.add(entry.row_id, val, f"equivalence: {claim.desc}", ok,
                    claim.recipe)
        except (Sp4Error, ZeroDivisionError) as exc:
            rep.add(entry.row_id, val, f"equivalence: {claim.desc}", False,
                    repr(exc))


# ---------------------------------------------------------------------------
# catalog-wide drivers
# ---------------------------------------------------------------------------

def verify_catalog(params=DEFAULT_PARAM_SAMPLES, probe_seed: int = 0,
                   probe_count: int = 0) -> VerificationReport:
    """Every row, then the separations; the random probe runs only when
    `probe_count` > 0."""
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
        for a in e.samples(params):
            try:
                orbit = {a} if a is None else e.equivalent_params(a)
            except Sp4Error as exc:
                rep.add(e.row_id, a, "parameter orbit", False,
                        f"{exc}; the instance's separations did not run")
                continue
            by_dim.setdefault(e.dim, []).append((e, a, orbit, _instance(e, a).signature))
    for dim, insts in sorted(by_dim.items()):
        bad = []
        n_pairs = 0
        for i in range(len(insts)):
            e1, a1, orbit, s1 = insts[i]
            for j in range(i + 1, len(insts)):
                e2, a2, _, s2 = insts[j]
                if e1.row_id == e2.row_id:
                    if a1 is None or Q(a2) in orbit:
                        # same conjugacy class: signatures must agree instead
                        if s1 != s2:
                            bad.append((e1.row_id, a1, a2, "equivalent params separated"))
                        continue
                n_pairs += 1
                diff = s1.differing_fields(s2)
                if not diff:
                    bad.append((f"{e1.row_id}@{_p(a1)}", f"{e2.row_id}@{_p(a2)}",
                                "", "signatures collide"))
        rep.add(f"separations-dim{dim}", None, f"{n_pairs} inequivalent pairs",
                not bad, "; ".join(str(b) for b in bad[:4]))
    return rep


# ---------------------------------------------------------------------------
# randomized completeness spot-check
# ---------------------------------------------------------------------------

def _param_candidates(sub: Subalgebra, nspace) -> list:
    """Candidate family parameters from the eigenvalue pair of a canonical
    non-nilpotent element (ratios p/q, q/p with signs)."""
    for b in sub.basis:
        if not nspace.contains(b):
            try:
                p, q = _eigen_pair(char_poly(b))
            except IrrationalSpectrum:
                return []
            cands = set()
            for x, y in ((p, q), (q, p)):
                if y != 0:
                    cands.add(x / y)
                    cands.add(-x / y)
            return sorted(cands, key=lambda v: (abs(v), v < 0))
    return []


def match_catalog(sub: Subalgebra) -> list[tuple]:
    """Catalog rows (with parameters) whose signature matches the subalgebra's.

    A match is necessary for conjugacy; the probe asserts at least one exists.
    """
    nspace = nilpotent_subspace(sub)
    sig = _signature(sub, nspace)
    cands = _param_candidates(sub, nspace)
    matches = []
    for e in load_catalog():
        if e.dim != sub.dim:
            continue
        # the candidates a row admits, or no parameter for a row without one
        for a in e.samples(cands):
            if _instance(e, a).signature == sig:
                matches.append((e.row_id, a))
                break
    return matches


def random_subalgebra_probe(seed: int, count: int,
                            report: VerificationReport | None = None) -> VerificationReport:
    """Generate random solvable subalgebras of the Borel, close them under
    the bracket, and check each signature matches some catalog row.  Every
    dimension, 1 to 6, is matched; a draw with irrational spectra is skipped,
    not failed, and the summary record counts the skips."""
    rep = report if report is not None else VerificationReport()
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
            matches = match_catalog(sub)
        except IrrationalSpectrum:
            skipped += 1
            continue
        produced += 1
        if matches:
            matched += 1
        else:
            rep.add("probe", None, f"seed draw {attempts}", False,
                    "no catalog row matches signature of "
                    + "; ".join(repr(b) for b in sub.basis))
    rep.add("probe", None,
            f"{produced} random subalgebras matched (seed={seed})",
            matched == produced,
            f"{matched}/{produced} matched, {skipped} skipped (irrational spectra)")
    return rep
