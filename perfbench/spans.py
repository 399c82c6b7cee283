"""Outside-in tracing of the sp4solvable layers.

The library is not edited.  `install` replaces each public function named in
`LAYERS` by a wrapper that records a span (name, parent span, start, end), on
every ``sp4solvable.*`` module attribute bound to the original function:
modules import each other with ``from .linalg import ...``, so patching the
defining module alone would miss their calls.  Methods are wrapped on their
class.  `Tracer.restore` puts every original back.

Spans are kept in memory with parent links and written out at the end.  A
span's self time is its duration minus the part of it covered by its
children (`self_times`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute or Class.method).  The mapping
# from each entry to the end-to-end metric it should move is in README.md.
LAYERS = (
    ("rational.factor_int", "sp4solvable.rational", "factor_int"),
    ("linalg.mat_mul", "sp4solvable.linalg", "Mat4.__mul__"),
    ("linalg.mat_new", "sp4solvable.linalg", "Mat4.__init__"),
    ("linalg.subspace_new", "sp4solvable.linalg", "Subspace.__init__"),
    ("linalg.rref", "sp4solvable.linalg", "rref"),
    ("linalg.char_poly", "sp4solvable.linalg", "char_poly"),
    ("linalg.inverse", "sp4solvable.linalg", "inverse"),
    ("linalg.rational_roots", "sp4solvable.linalg", "rational_roots"),
    ("linalg.det_mpoly", "sp4solvable.linalg", "det_mpoly"),
    ("linalg.generic_rank", "sp4solvable.linalg", "generic_rank"),
    ("sp4.bracket", "sp4solvable.sp4", "bracket"),
    ("sp4.conjugate_subalgebra", "sp4solvable.sp4", "conjugate_subalgebra"),
    ("sp4.parse_conjugator", "sp4solvable.sp4", "parse_conjugator"),
    ("structure.bracket_space", "sp4solvable.structure", "bracket_space"),
    ("structure.is_closed", "sp4solvable.structure", "is_closed"),
    ("structure.structure_constants_for_basis", "sp4solvable.structure",
     "structure_constants_for_basis"),
    ("jordan.jordan_decompose", "sp4solvable.jordan", "jordan_decompose"),
    ("jordan.classify_element", "sp4solvable.jordan", "classify_element"),
    ("jordan.jordan_type", "sp4solvable.jordan", "jordan_type"),
    ("invariants.signature", "sp4solvable.invariants", "signature"),
    ("invariants.nilpotent_subspace", "sp4solvable.invariants", "nilpotent_subspace"),
    ("invariants.pencil_rank_strata", "sp4solvable.invariants", "pencil_rank_strata"),
    ("identify.identify_degraaf", "sp4solvable.identify", "identify_degraaf"),
    ("identify.verify_isomorphism", "sp4solvable.identify", "verify_isomorphism"),
    ("identify.degraaf_to_sw", "sp4solvable.identify", "degraaf_to_sw"),
    ("identify.sw_bridge_map", "sp4solvable.identify", "sw_bridge_map"),
    ("catalog.basis_at", "sp4solvable.catalog", "CatalogEntry.basis_at"),
    ("exprs.eval_expr", "sp4solvable.exprs", "eval_expr"),
    ("verify.verify_entry", "sp4solvable.verify", "verify_entry"),
    ("verify.verify_separations", "sp4solvable.verify", "verify_separations"),
    ("verify.match_catalog", "sp4solvable.verify", "match_catalog"),
    ("cli.main", "sp4solvable.cli", "main"),
)

# Constructed on nearly every arithmetic step: counted, not spanned, so that
# the trace stays small and cheap.
COUNT_ONLY = {"linalg.mat_new"}

# The argument whose repetition is tracked: a signature call repeats when its
# subalgebra's canonical subspace was already seen in the run.
REPEAT_KEYS = {"invariants.signature": lambda args, kwargs: args[0].space}


def per_layer_metric_names() -> list[str]:
    names = []
    for name, _, _ in LAYERS:
        names.append(f"{name}.calls")
        if name not in COUNT_ONLY:
            names.append(f"{name}.self_s")
    names.extend(f"{name}.repeat_frac" for name in REPEAT_KEYS)
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def self_times(spans) -> dict:
    """Per name: (calls, self seconds).

    `spans` is a sequence of (name, parent index or -1, start, end).  The
    self time of a span is its duration minus the union of its children's
    intervals clipped to it.
    """
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = {}
    for i, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start - covered))
    return out


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []  # [name, parent, start, end]
        self.counts: dict = defaultdict(int)
        self.seen: dict = defaultdict(set)
        self.repeats: dict = defaultdict(int)
        self._stack = [-1]
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key_of = REPEAT_KEYS.get(name)
        seen, repeats = self.seen[name], self.repeats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                key = key_of(args, kwargs)
                if key in seen:
                    repeats[name] += 1
                seen.add(key)
            sid = len(spans)
            span = [name, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sp4solvable" or n.startswith("sp4solvable."))]
        for name, modname, attr in LAYERS:
            owner = sys.modules[modname]
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, make(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = make(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)
        return self

    def _patch(self, obj, attr, orig, wrapper):
        self._patches.append((obj, attr, orig))
        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, zero for layers the run never entered."""
        totals = self_times(self.spans)
        out = {}
        for name, _, _ in LAYERS:
            if name in COUNT_ONLY:
                out[f"{name}.calls"] = self.counts[name]
                continue
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in REPEAT_KEYS:
            calls = totals.get(name, (0, 0.0))[0]
            out[f"{name}.repeat_frac"] = self.repeats[name] / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """One JSON line per span: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")
