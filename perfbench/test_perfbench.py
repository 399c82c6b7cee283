"""Tests of the benchmark itself: seeded inputs, the known-answer tables,
the span arithmetic, the removal of the tracing wrappers and the speed
probe's scaling.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sp4solvable as S  # noqa: E402
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def test_same_seed_gives_same_inputs(tmp_path):
    for name, cls in W.WORKLOADS.items():
        assert cls(7, tmp_path).input_digest == cls(7, tmp_path).input_digest, name
    for cls in (W.Classify, W.Identify):
        assert cls(7, tmp_path).input_digest != cls(8, tmp_path).input_digest


# (kind, a, b) -> label, each checked by hand against the conjugacy tables
HAND_CHECKED = [
    (("T_ab", 2, 3), W.label(1, "T_ab", a=2, b=3)),
    (("T_ab", 3, -2), W.label(1, "T_ab", a=2, b=3)),
    (("T_ab", 2, Fraction(1, 2)), W.label(1, "T_ab", a=Fraction(1, 2), b=2)),
    (("T_ab", Fraction(-2, 3), Fraction(3, 2)),
     W.label(1, "T_ab", a=Fraction(2, 3), b=Fraction(3, 2))),
    (("T_a0", -3, 1), W.label(1, "T_a0", a=3)),
    (("T_aa", Fraction(-1, 2), -1), W.label(1, "T_aa", a=Fraction(1, 2))),
    (("X_alpha", 5, 1), W.label(2, "X_alpha")),
    (("X_beta", -1, 2), W.label(2, "X_beta")),
    (("X_alpha_plus_X_beta", 1, 1), W.label(2, "X_alpha_plus_X_beta")),
    (("T_a0_plus_X_alpha", -7, 2), W.label(2, "T_a0_plus_X_alpha", a=7)),
    (("T_aa_plus_X_beta", Fraction(4, 3), -1), W.label(2, "T_aa_plus_X_beta", a=Fraction(4, 3))),
]


def test_known_answer_table():
    assert {case[0] for case, _ in HAND_CHECKED} == set(W.KINDS)
    assert W.label(1, "T_ab", a=2, b=3) == {"table": 1, "row": "T_ab",
                                            "params": {"a": "2", "b": "3"}}
    rng = random.Random(3)
    for (kind, a, b), want in HAND_CHECKED:
        rep, expected = W.representative(kind, Fraction(a), Fraction(b))
        assert expected == want, (kind, a, b)
        assert S.classify_element(rep).to_json() == want, (kind, a, b)
        g, ginv = W.random_conjugator(rng)
        assert S.classify_element(g * rep * ginv).to_json() == want, (kind, a, b)


def test_certify_known_answer_is_verify_catalog():
    expected = json.loads(W.EXPECTED_CERTIFY.read_text())
    records = W.record_tuples(S.verify_catalog())
    assert len(records) == expected["checks"] == 816
    assert all(r[3] == "pass" for r in records) and expected["overall_pass"]
    assert W.digest(sorted(records)) == expected["digest"]
    catalog = S.load_catalog()
    keys = {f"{e.row_id}@{W.param_text(a)}" for e, a in W.instances(catalog)}
    dims = {e.dim for e in catalog}
    assert set(expected["per_op"]) == keys | {f"separations-dim{d}" for d in dims}


def test_self_times_on_a_synthetic_nested_trace():
    trace = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("a", 0, 5.0, 6.0),
        ("c", 0, 9.5, 11.0),   # overruns its parent: only 0.5 s is covered
        ("d", -1, 20.0, 30.0),
        ("e", 5, 21.0, 25.0),
        ("e", 5, 24.0, 26.0),  # overlaps its sibling: covered once
    ]
    got = spans.self_times(trace)
    assert got["root"] == (1, 10.0 - 3.0 - 1.0 - 0.5)
    assert got["a"] == (2, (3.0 - 1.0) + 1.0)
    assert got["b"] == (1, 1.0)
    assert got["c"] == (1, 1.5)
    assert got["d"] == (1, 10.0 - 5.0)
    assert got["e"] == (2, 6.0)


def _bindings():
    mods = {n: m for n, m in sys.modules.items()
            if n == "sp4solvable" or n.startswith("sp4solvable.")}
    out = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for cls in (S.Mat4, S.Subspace, S.CatalogEntry):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_are_installed_everywhere_and_removed():
    before = _bindings()
    orig_char_poly = S.linalg.char_poly
    with spans.Tracer() as tracer:
        # jordan and invariants bind char_poly by `from .linalg import`
        assert S.jordan.char_poly is not orig_char_poly
        assert S.invariants.char_poly is S.jordan.char_poly is S.linalg.char_poly
        label = S.classify_element(S.T(2, 3))
    after = _bindings()
    assert S.jordan.char_poly is orig_char_poly
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert label.to_json() == W.label(1, "T_ab", a=2, b=3)
    m = tracer.metrics()
    assert set(m) == set(spans.per_layer_metric_names())
    assert m["jordan.classify_element.calls"] == 1
    assert m["linalg.char_poly.calls"] == 2
    assert m["linalg.mat_mul.calls"] > 0 and m["linalg.mat_new.calls"] > 0
    assert m["verify.verify_entry.calls"] == 0


def test_signature_repeat_fraction():
    sub = S.Subalgebra(S.standard_subalgebra("b"))
    with spans.Tracer() as tracer:
        for _ in range(4):
            S.signature(sub)
    assert tracer.metrics()["invariants.signature.repeat_frac"] == 0.75


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = spans.per_layer_metric_names() + ["trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(n, spans.metric_unit(n)) for n in names]


def test_reference_is_exact_elimination():
    m = calibrate.reference()
    assert m == [[int(i == j) for j in range(calibrate.N)] for i in range(calibrate.N)]


def test_probe_scaling_on_synthetic_timings():
    nom = calibrate.REF_NOMINAL_S
    probe = calibrate.SpeedProbe()
    # reference timings [0, 1), [3, 5), [6, 7), [10, 12): 1, 2, 1, 2 s long
    probe.starts, probe.ends = [0.0, 3.0, 6.0, 10.0], [1.0, 5.0, 7.0, 12.0]
    probe.slice_ref = [2.0, 1.5, 1.5]  # as __exit__ smooths them
    assert probe.scaled(1.0, 3.0) == (2.0, 2.0 * nom / 2.0)
    # [2, 11) covers [2, 3) of slice 0, [5, 6) and [7, 10); the timings are cut out
    raw, nominal = probe.scaled(2.0, 11.0)
    assert raw == 5.0
    assert abs(nominal - (1.0 * nom / 2.0 + 1.0 * nom / 1.5 + 3.0 * nom / 1.5)) < 1e-15


def test_probe_measures_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe(gap_s=0.005) as probe:
        t = calibrate.time.perf_counter()
        for _ in range(30):
            calibrate.reference()
        u = calibrate.time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) >= 3 and len(probe.slice_ref) == len(probe.starts) - 1
    raw, nominal = probe.scaled(t, u)
    assert 0 < raw < u - t
    # the workload is the reference itself: 30 calls at the nominal speed
    assert 0.5 < nominal / (30 * calibrate.REF_NOMINAL_S) < 2.0
