import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp4solvable import invariants, structure
from sp4solvable.errors import DependentInputs, IrrationalSpectrum, NotSolvable, Sp4Error
from sp4solvable.invariants import (InvariantSignature, PencilStrata, _invariantize,
                                   nilpotent_subspace, pencil_rank_strata, signature)
from sp4solvable.catalog import load_catalog
from sp4solvable.jordan import jordan_decompose
from sp4solvable.linalg import (Mat4, Poly, Subspace, _char_poly_int, char_poly, det_mpoly,
                                generic_rank, inverse, rank)
from sp4solvable.rational import Q
from sp4solvable.sp4 import (A_MAT, ROOT_VECTORS, T, W_MAT, X_A2B, X_AB, X_ALPHA, X_BETA,
                             bracket, conjugate_subalgebra, parse_conjugator, root_value, shear,
                             standard_subalgebra)
from sp4solvable.structure import Subalgebra, _ad_num, _units, generated_subalgebra

from conftest import (ROOTS, clear_fact_caches, conjugator_pool, random_borel_element,
                      sp4_recipes)
from oracles import (bracket_coords_fraction, char_poly_det, combination, fraction_rows,
                     grid_pencil_ranks, pencil_refusal, solve_in_span, symbolic_combo,
                     trace_form_radical)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import sigdigest  # noqa: E402


def alg(*mats):
    return Subalgebra.from_matrices(list(mats))


def test_pencil_examples_from_the_rank_line_arguments():
    s = pencil_rank_strata(X_ALPHA, X_A2B)
    assert s.generic_rank == 2
    assert s.line_counts == ((1, 2),)         # t = 0 and t = infinity
    assert s.drop_line_count(1) == 2          # two rank-1 lines

    s = pencil_rank_strata(X_ALPHA, X_AB)
    assert s.generic_rank == 2
    assert s.line_counts == ((1, 1),)         # only t = infinity
    assert s.drop_line_count(1) == 1

    s = pencil_rank_strata(X_AB, X_A2B)
    assert s.generic_rank == 2
    assert s.line_counts == ((1, 1),)         # single rank-1 line
    assert s.drop_line_count(1) == 1

    with pytest.raises(DependentInputs):
        pencil_rank_strata(X_ALPHA, X_ALPHA * 3)


def test_pencil_refuses_a_pair_outside_the_nilpotent_pencils_of_sp4():
    # t*T(1, 0) + X_alpha is semisimple at t != 0; t*(E12 + E23) + E13 is a
    # gl(4) nilpotent of type [3, 1], an orbit sp(4) does not have
    for n1, n2 in [(T(1, 0), X_ALPHA),
                   (Mat4.unit(1, 2) + Mat4.unit(2, 3), Mat4.unit(1, 3))]:
        with pytest.raises(Sp4Error, match="nilpotent pencil in sp"):
            pencil_rank_strata(n1, n2)


WEIRD = Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
# a rank-1 root vector of sp(4) with [WEIRD, X] = 2 X
WEIRD_ROOT = Mat4([[1, 0, -1, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]])


def _conjugator(draw) -> Mat4:
    """A product of up to three Weyl elements and rational shears."""
    g = Mat4.identity()
    for _ in range(draw(st.integers(0, 3))):
        atom = draw(st.sampled_from(["W", "A", "alpha", "beta", "alpha_plus_beta"]))
        g = g * ({"W": W_MAT, "A": A_MAT}.get(atom)
                 or shear(atom, Q(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))))
    return g


@st.composite
def pencil_pairs(draw):
    """A pair of one of five kinds, moved by a drawn element of Sp(4, Q):
    dependent, outside sp(4) (random int grids, or strictly upper triangular
    ones, nilpotent in gl(4)), two Borel elements (mostly a pencil that is
    not nilpotent), WEIRD beside a multiple of WEIRD_ROOT (tr x(t)^2 == 0,
    but x(t)^4 != 0) or two elements of n (a nilpotent plane when
    independent)."""
    coeff = st.integers(-2, 2)

    def nil():
        return sum((x * draw(coeff) for x in ROOTS), Mat4.zero())

    def borel():
        return T(draw(coeff), draw(coeff)) + nil()

    def grid(upper):
        return Mat4([[draw(coeff) if j > i or not upper else 0 for j in range(4)]
                     for i in range(4)])

    kind = draw(st.sampled_from(["dependent", "outside", "borel", "quartic", "nilpotent"]))
    if kind == "dependent":
        n1 = draw(st.sampled_from([borel, nil, lambda: grid(False)]))()
        n2 = n1 * Q(draw(coeff), draw(st.integers(1, 3)))
    elif kind == "outside":
        n1, n2 = grid(draw(st.booleans())), draw(st.sampled_from([nil, lambda: grid(True)]))()
    elif kind == "borel":
        n1, n2 = borel(), borel()
    elif kind == "quartic":
        n1, n2 = WEIRD * draw(st.sampled_from([1, -2, Q(1, 3)])), WEIRD_ROOT * draw(coeff)
    else:
        n1, n2 = nil(), nil()
    g = _conjugator(draw)
    h = inverse(g)
    return g * n1 * h, g * n2 * h


# on the pencil x(t) = t*QUARTIC + QUARTIC + E32 + E41 of sp(4), x(t) has the
# char poly l^4 - c l^2 + c^2/2 with c = 2(t + 1)(2t + 1): tr x(t)^4 = 0 for
# every t, but tr x(t)^2 = 2c is not, so only the tr x(t)^2 refusal tells it
# from a nilpotent pencil
QUARTIC = Mat4([[-1, -1, -1, -1], [-1, -1, -1, 1], [1, -1, 1, 1], [-1, -1, 1, 1]])


@settings(max_examples=200, deadline=None)
@example((QUARTIC, QUARTIC + Mat4.unit(3, 2) + Mat4.unit(4, 1)))
@example((X_ALPHA, X_ALPHA * 3))
@example((T(1, 0), X_ALPHA))
@example((Mat4.unit(1, 2) + Mat4.unit(2, 3), Mat4.unit(1, 3)))
@example((WEIRD, WEIRD_ROOT))
@example((X_ALPHA, X_A2B))
@given(pencil_pairs())
def test_pencil_refuses_where_the_rational_oracle_does(pair):
    # the int refusals (rref of the numerators, in_sp4, tr x(t)^2 and
    # tr x(t)^4) against independence by Fraction elimination, J m^t J and
    # x(t)^4 at five points: the same class and message, or strata
    want = pencil_refusal(*pair)
    if want is None:
        assert isinstance(pencil_rank_strata(*pair), PencilStrata)
        return
    with pytest.raises(Sp4Error) as info:
        pencil_rank_strata(*pair)
    assert (type(info.value), str(info.value)) == want


def test_signature_reads_the_pencil_of_n_g_through_pencil_rank_strata(monkeypatch):
    # the signature takes the strata of a plane N(g) from the one checked
    # pencil_rank_strata, called once on the echelon basis of N(g)
    subs = [alg(T(1, 1), X_ALPHA, X_A2B), alg(T(1, 0), X_BETA, X_A2B),
            alg(X_ALPHA, X_A2B), alg(T(2, 1), X_AB, X_A2B)]
    want = [signature(s) for s in subs]
    calls = []
    original = invariants.pencil_rank_strata

    def recording(n1, n2):
        calls.append((n1, n2))
        return original(n1, n2)

    monkeypatch.setattr(invariants, "pencil_rank_strata", recording)
    for s, sig in zip(subs, want):
        nspace = nilpotent_subspace(s)
        assert nspace.dim == 2
        calls.clear()
        clear_fact_caches()
        assert signature(s) == sig
        assert calls == [nspace.basis]


CATALOG_SPACES = [e.space_at(a) for e in load_catalog() for a in e.samples()]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CATALOG_SPACES), sp4_recipes)
def test_a_signature_from_cold_caches_equals_the_warm_one(space, recipe):
    # the facts of N(g) and x0 are kept per object: with the caches filled by
    # every catalog instance of the dimension, each signature is still the one
    # computed from empty caches
    spaces = [sp for sp in CATALOG_SPACES if sp.dim == space.dim]
    spaces.append(conjugate_subalgebra(parse_conjugator(recipe), space))
    warm = [signature(Subalgebra(sp)) for sp in spaces]
    cold = []
    for sp in spaces:
        clear_fact_caches()
        cold.append(signature(Subalgebra(sp)))
    assert cold == warm


def test_pencil_matches_grid_oracle():
    pairs = [(X_ALPHA, X_A2B), (X_ALPHA, X_AB), (X_AB, X_A2B),
             (X_BETA + X_ALPHA, X_A2B), (X_BETA, X_A2B),
             (X_ALPHA + X_AB, X_A2B - X_ALPHA)]
    for n1, n2 in pairs:
        # the grid sees at most the drop lines of each rank, and the generic
        # rank off them
        strata = pencil_rank_strata(n1, n2)
        ranks = list(grid_pencil_ranks(n1, n2).values())
        assert max(ranks) == strata.generic_rank
        for r in range(strata.generic_rank):
            assert ranks.count(r) <= strata.drop_line_count(r)


def test_nilpotent_subspace():
    g = alg(T(1, 0), X_ALPHA)
    assert nilpotent_subspace(g) == Subspace([X_ALPHA])
    g = alg(T(1, 0) + X_ALPHA, X_AB)
    assert nilpotent_subspace(g) == Subspace([X_AB])
    n = Subalgebra(standard_subalgebra("n"))
    assert nilpotent_subspace(n).dim == 4
    t = Subalgebra(standard_subalgebra("t"))
    assert nilpotent_subspace(t).dim == 0


def test_nilpotent_subspace_irrational_spectrum():
    # eigenvalues +-1, +-i (char poly t^4 - 1): tr(x^2) = 0, so the trace
    # radical contains a non-nilpotent element and must be rejected
    g = Subalgebra.from_matrices([WEIRD])
    with pytest.raises(IrrationalSpectrum):
        nilpotent_subspace(g)
    # beside a root vector it normalizes: [g, g] is that line, and the
    # non-nilpotent radical element is the complement's kernel vector
    assert bracket(WEIRD, WEIRD_ROOT) == WEIRD_ROOT * 2
    g = Subalgebra.from_matrices([WEIRD, WEIRD_ROOT])
    assert [len(rows) for rows in g.derived] == [2, 1, 0]
    with pytest.raises(IrrationalSpectrum):
        nilpotent_subspace(g)


def test_nilpotent_subspace_contains_all_nilpotents(rng):
    # N(g) is exactly the nilpotent elements: random combinations are
    # nilpotent iff they reduce into the trace-form radical
    cases = [alg(T(0, 1), X_BETA, X_AB, X_A2B),
             alg(T(2, 1), X_ALPHA, X_AB, X_A2B),
             alg(T(1, 1) + X_BETA, X_ALPHA, X_AB, X_A2B)]
    for g in cases:
        nsp = nilpotent_subspace(g)
        for _ in range(30):
            v = [Q(rng.randint(-3, 3)) for _ in range(g.dim)]
            x = combination(g.space, v)
            m4 = x * x * x * x
            assert m4.is_zero() == nsp.contains(x)


small = st.integers(-2, 2)


def _moved(draw, seeds: list) -> Subalgebra:
    """The subalgebra the seeds generate, moved by a drawn conjugator (so
    its echelon basis may have denominators)."""
    return Subalgebra(conjugate_subalgebra(_conjugator(draw), generated_subalgebra(seeds).space))


@st.composite
def radical_cases(draw):
    """Mostly subalgebras with [g, g] != 0, so that N(g) has a part from
    [g, g] and a part from the kernel on its complement: a Borel subalgebra
    generated by two or three random elements; or <x, X> for a Levi element
    x = diag(A, -A^T) and the Siegel root vector X = [[0, S], [0, 0]] with
    [x, X] = tr(A) X, where half the draws give A the eigenvalues p +- ip,
    so that tr(x^2) = 0 and x, a complement vector outside [g, g] = <X>, is
    a non-nilpotent radical element; both moved as in `_moved`.  Or the line
    of a random sp(4) element [[A, B], [C, -A^T]], whose trace radical may
    hold a non-nilpotent element; or the subalgebra two of them generate,
    which need not be solvable."""
    kind = draw(st.sampled_from(["borel", "borel", "levi", "levi", "line", "pair"]))
    if kind == "borel":
        seeds = []
        for _ in range(draw(st.integers(2, 3))):
            m = T(draw(small), draw(small))
            for x in (X_ALPHA, X_BETA, X_AB, X_A2B):
                m = m + x * draw(small)
            seeds.append(m)
        return _moved(draw, seeds)
    if kind == "levi":
        p, r, s, t = (draw(small) for _ in range(4))
        if draw(st.booleans()):
            r, s, t = -p, p, p
        # S solves A S + S A^T = tr(A) S
        s11, s12, s22 = 2 * r, t - p, -2 * s
        return _moved(draw, [Mat4([[p, r, 0, 0], [s, t, 0, 0], [0, 0, -p, -s], [0, 0, -r, -t]]),
                             Mat4([[0, 0, s11, s12], [0, 0, s12, s22], [0] * 4, [0] * 4])])
    mats = []
    for _ in range(1 if kind == "line" else 2):
        a, b, c = ([[draw(small) for _ in range(2)] for _ in range(2)] for _ in range(3))
        b[1][0], c[1][0] = b[0][1], c[0][1]  # B and C symmetric
        if draw(st.booleans()):  # A = 0: then tr(x^2) = 2 tr(BC) often vanishes
            a = [[0, 0], [0, 0]]
        mats.append(Mat4([a[0] + b[0], a[1] + b[1],
                          c[0] + [-a[0][0], -a[1][0]], c[1] + [-a[0][1], -a[1][1]]]))
    return generated_subalgebra(mats)


def _radical_or_refusal(f, g):
    try:
        return f(g)
    except (NotSolvable, IrrationalSpectrum) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(radical_cases())
@example(Subalgebra.from_matrices([WEIRD, WEIRD_ROOT]))
def test_nilpotent_subspace_matches_the_fraction_gram_oracle(g):
    assert (_radical_or_refusal(nilpotent_subspace, g)
            == _radical_or_refusal(trace_form_radical, g))


def test_invariantize_marks_every_zero_of_an_all_zero_list():
    assert _invariantize([(0, 1, 1), (0, 3, 2)]) == (("z", 1), ("z", 2))


# entries of 1000-4000 digits, sharing factors: the digit d times a repunit
# (10**n - 1)/9, whose gcd with another is the repunit of gcd(n, m)
_huge = st.builds(lambda n, d: d * (10**n - 1) // 9, st.integers(1000, 4000),
                  st.sampled_from([-9, -6, -1, 1, 2, 3, 7]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30) | _huge,
                          st.integers(1, 12) | st.integers(-12, -1) | _huge,
                          st.integers(0, 5)), max_size=8))
@example([])
@example([(0, 1, 0), (0, -2, 3)])
@example([(0, 1, 2), (0, 5, 0), (-3, 2, 0), (4, -1, 2), (0, 1, 1), (7, 3, 0)])
@example([(3, 2, 1), (2 * (10**1200 - 1) // 9, 7, 2), (-5, 3 * (10**2400 - 1) // 9, 3)])
@example([((10**4000 - 1) // 9, 6, 2), (1, 2, 1), (7 * (10**1000 - 1) // 9, -9, 4)])
def test_invariantize_on_int_triples_is_the_fraction_definition(triples):
    # each nonzero v = n/d of weight w becomes v**w0 / v0**w relative to the
    # first nonzero (v0, w0), in `Fraction` arithmetic; each zero ("z", w)
    values = [(Fraction(n, d), w) for n, d, w in triples]
    v0, w0 = next(((v, w) for v, w in values if v), (None, None))
    want = tuple((v**w0 / v0**w, w) if v else ("z", w) for v, w in values)
    got = _invariantize(triples)
    assert got == want
    assert [type(v) for v, _ in got] == [type(v) for v, _ in want]


_H = 1 << 512  # where a second formula once took over; the one formula holds on both sides


@pytest.mark.parametrize("at", range(4))  # the place of the one large entry: n0, d0, n, d
@pytest.mark.parametrize("size", [_H - 1, _H, 1 - _H, -_H], ids=["below", "at", "-below", "-at"])
def test_invariantize_reduces_a_value_base_by_base_from_huge_on(at, size):
    # one large entry on either side of 2^512, in each of the four places,
    # gives the value of the `Fraction` definition
    entries = [3, 2, -5, 7]
    entries[at] = size
    n0, d0, n, d = entries
    want = (("z", 3), (Fraction(1), 1), (Fraction(n, d) / Fraction(n0, d0)**2, 2))
    assert _invariantize([(0, 1, 3), (n0, d0, 1), (n, d, 2)]) == want


def test_ss_content_classes():
    assert signature(alg(T(1, 0), T(0, 1), X_ALPHA, X_AB, X_A2B)).ss_content == "has_cartan"
    assert signature(alg(T(5, 1), X_BETA)).ss_content == "has_regular_ss"
    assert signature(alg(T(1, 1), X_BETA)).ss_content == "has_nonregular_ss_only"
    assert signature(alg(T(1, 0) + X_ALPHA, X_AB)).ss_content == "mixed_only"
    assert signature(Subalgebra(standard_subalgebra("n_p"))).ss_content == "all_nilpotent"


# S = diag(A, -A^T) with A = [[0, 1], [2, 0]] has char poly (l^2 - 2)^2, and
# N = [[0, B], [0, 0]] with B = diag(1, -2) is nilpotent and commutes with it
_S_SQRT2 = Mat4([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, -2], [0, 0, -1, 0]])
_N_SQRT2 = Mat4([[0, 0, 1, 0], [0, 0, 0, -2], [0, 0, 0, 0], [0, 0, 0, 0]])


def _random_x0(rng, shape: str) -> Mat4:
    """An element outside N(g) of the given shape: a regular T(a, b), T(a, a),
    T(a, 0), T(a, -a), T + X with X a root vector commuting with T, or the
    irrational double pair S (plus N half the time)."""
    a = Q(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3)))
    if shape == "irrational":
        return _S_SQRT2 * a + _N_SQRT2 * rng.choice((0, 1))
    b = {"regular": a * rng.choice((3, -3, Q(1, 2), 5)), "a=b": a, "b=0": Q(0),
         "a=-b": -a, "mixed": rng.choice((a, Q(0), -a))}[shape]
    x0 = T(a, b) if rng.random() < 0.5 else T(b, a)
    if shape == "mixed":
        d = x0.entry(0, 0), x0.entry(1, 1)
        label = rng.choice([r for r in ROOT_VECTORS if root_value(r, *d) == 0])
        x0 = x0 + ROOT_VECTORS[label] * rng.choice((1, -2))
    return x0


def _random_nil_seeds(rng, shape: str) -> list[Mat4]:
    """Nilpotent generators that keep the generated algebra of codimension 1."""
    if shape == "irrational":
        return [_N_SQRT2] * rng.randint(0, 1)
    return [x * Q(rng.choice((1, -1, 2))) for x in ROOTS if rng.random() < 0.35]


def test_ss_content_follows_its_definition(rng):
    """For g = <x0, nilpotent seeds> conjugated, with N(g) the trace-form
    radical of the oracle and x = x0 + n for an n in N(g): g holds a nonzero
    semisimple element iff the Jordan nilpotent part of x lies in N(g), and a
    regular one iff p = char_poly(x) is squarefree (gcd(p, p') = 1)."""
    pool = conjugator_pool(rng, 12)
    seen = set()
    for shape in ("regular", "a=b", "b=0", "a=-b", "mixed", "irrational"):
        checked = 0
        while checked < 8:
            x0 = _random_x0(rng, shape)
            c = rng.choice(pool)
            g = generated_subalgebra([x0] + _random_nil_seeds(rng, shape))
            s = Subalgebra(conjugate_subalgebra(c, g.space))
            try:
                sig = signature(s)
            except IrrationalSpectrum:  # a pencil with irrational drop lines
                continue
            checked += 1
            nspace = trace_form_radical(s)
            assert s.dim - nspace.dim == 1
            x = c * x0 * inverse(c)
            for n in nspace.basis:
                x = x + n * Q(rng.randint(-2, 2))
            p = char_poly(x)
            if not nspace.contains(jordan_decompose(x).nilpotent):
                want = "mixed_only"
            elif p.gcd(p.derivative()).degree == 0:
                want = "has_regular_ss"
            else:
                want = "has_nonregular_ss_only"
            assert sig.ss_content == want, (shape, repr(x0), [repr(b) for b in g.basis])
            seen.add((shape, want))
    assert {w for _, w in seen} == {"has_regular_ss", "has_nonregular_ss_only", "mixed_only"}
    assert {("irrational", "mixed_only"), ("irrational", "has_nonregular_ss_only")} <= seen


def _count(monkeypatch, counts: dict, owner, name: str) -> None:
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("row, regular", [("d2_Ta1_Xa", True), ("d3_Ta1_Xa_Xab", True),
                                          ("d4_Ta1_np", True), ("d2_T11_Xa", False)])
def test_a_regular_x0_costs_no_decomposition_and_the_lower_series_no_second_gg(
        monkeypatch, row, regular):
    """The signature of a codimension-1 instance with regular x0 (a = 2)
    reads regularity off the char poly's coefficients: no Jordan
    decomposition, no polynomial gcd or squarefree part, no `Fraction`
    power; and once N(g) is known it takes no bracket span at all.  The
    lower central series (`structure.is_nilpotent`, no signature field)
    takes [g, g] from the cached derived series.  The pencil stratification
    of a plane N(g) takes gcds of its own, so it is computed beforehand and
    passed in as its value."""
    e = next(e for e in load_catalog() if e.row_id == row)
    space = e.space_at(Q(2) if e.param else None)
    want = signature(Subalgebra(space))
    clear_fact_caches()
    work = invariants._SignatureWork(Subalgebra(space))
    s, nspace = work.sub, work.nspace  # N(g) fills s.derived
    if nspace.dim == 2:
        pencil = invariants.pencil_rank_strata(*nspace.basis)
        monkeypatch.setattr(invariants, "pencil_rank_strata", lambda *_: pencil)
    counts: dict = {}
    for owner, name in ((invariants, "jordan_decompose"), (Poly, "gcd"),
                        (Poly, "squarefree_part"), (Fraction, "__pow__")):
        _count(monkeypatch, counts, owner, name)
    spans = []
    original = structure.bracket_space

    def recording(sc, a, b):
        spans.append(b)
        return original(sc, a, b)
    monkeypatch.setattr(structure, "bracket_space", recording)
    assert work.signature == want
    assert spans == []
    if regular:
        assert counts == {}
    else:
        assert counts.get("jordan_decompose") == 1
    structure.is_nilpotent(s)
    assert spans and _units(s.dim) not in spans  # [g, [g, g]], ..., never [g, g]


def test_signature_fields():
    assert InvariantSignature.__slots__ == ("dim", "derived_dims", "nilpotent_dim",
                                            "nilpotent_strata", "ss_content", "probe")
    # codimension 1: (d, dd, d - 1), then x0's section and the [g, g] section
    s = signature(alg(T(1, 1) + X_BETA, X_A2B))
    assert s.ss_content == "mixed_only" and s.derived_dims == (2, 1, 0)
    assert s.to_json()["probe"] == [2, 1, 1, ["z", 1], ["1", 2], ["z", 3], ["1/16", 4],
                                    ["-2", 1]]
    # det(x0) = 0, so no element is invertible
    s = signature(alg(T(1, 0) + X_ALPHA, X_AB))
    assert s.to_json()["probe"] == [2, 1, 1, ["z", 1], ["1", 2], ["z", 3], ["z", 4], ["-1", 1]]
    # abelian: no [g, g] section
    s = signature(alg(T(1, 1), X_BETA))
    assert s.derived_dims == (2, 0)
    assert s.to_json()["probe"] == [2, 0, 1, ["z", 1], ["1", 2], ["z", 3], ["1/16", 4]]
    s = signature(alg(X_ALPHA, X_A2B))
    assert s.nilpotent_dim == 2 and s.ss_content == "all_nilpotent" and s.probe is None


def test_two_signatures_are_equal_iff_their_json_is():
    # `match_catalog` compares a stored row's signature as `to_json` wrote
    # it; over the sigdigest sweep (catalog instances, conjugates,
    # hyperplanes) and the parameterized rows at every admissible value of
    # `_GRID`, every two signatures of one dimension are equal exactly when
    # their JSON forms are
    sigs = [signature(Subalgebra(space)) for _, space in sigdigest.sweep(1)]
    sigs += [signature(Subalgebra(e.space_at(a)))
             for e in load_catalog() if e.param for a in e.samples(_GRID)]
    assert len(sigs) > 1500
    by_dim: dict = {}
    for s in sigs:
        by_dim.setdefault(s.dim, []).append((s, s.to_json()))
    equal = Counter((s == t, js == jt) for pairs in by_dim.values()
                    for (s, js), (t, jt) in combinations(pairs, 2))
    assert equal.keys() == {(True, True), (False, False)}


def test_signature_separates_key_pairs():
    # the derived series separates <T(1,0),X_a> (abelian) from <T(0,1),X_a>
    s1 = signature(alg(T(1, 0), X_ALPHA))
    s2 = signature(alg(T(0, 1), X_ALPHA))
    assert "derived_dims" in s1.differing_fields(s2)
    # rank-1 line counts separate the two nilpotent planes
    s1 = signature(alg(X_ALPHA, X_AB))
    s2 = signature(alg(X_ALPHA, X_A2B))
    assert "nilpotent_strata" in s1.differing_fields(s2)
    # ad-eigenvalue data separates <T(0,1),X_a> from <T(0,1),X_b>
    s1 = signature(alg(T(0, 1), X_ALPHA))
    s2 = signature(alg(T(0, 1), X_BETA))
    assert "probe" in s1.differing_fields(s2)
    # parameter families: a = 2 vs 3 differ, a = 2 vs -2 agree (conjugate)
    s2a = signature(alg(T(2, 1), X_ALPHA))
    assert s2a.differing_fields(signature(alg(T(3, 1), X_ALPHA)))
    assert not s2a.differing_fields(signature(alg(T(-2, 1), X_ALPHA)))
    # <T_{a,1},X_b>: a ~ 1/a but not a ~ -a
    s2b = signature(alg(T(2, 1), X_BETA))
    assert not s2b.differing_fields(signature(alg(T(Q(1, 2), 1), X_BETA)))
    assert s2b.differing_fields(signature(alg(T(-2, 1), X_BETA)))


def test_signature_conjugation_invariance(rng):
    rows = [alg(T(2, 1), X_ALPHA), alg(T(1, -1), X_ALPHA, X_A2B),
            alg(T(1, 1) + X_BETA, X_AB, X_A2B),
            alg(T(3, 1), X_ALPHA + X_BETA),
            alg(T(0, 1), X_ALPHA, X_AB, X_A2B),
            alg(X_BETA, X_ALPHA, X_AB, X_A2B),
            alg(X_ALPHA + X_BETA, X_AB, X_A2B),
            alg(T(1, 0), T(0, 1), X_ALPHA),
            alg(T(2, 1), X_BETA, X_AB, X_A2B)]
    pool = conjugator_pool(rng, 8)
    for row in rows:
        base = signature(row)
        for g in pool:
            img = Subalgebra(conjugate_subalgebra(g, row.space))
            assert signature(img) == base


def test_signature_on_random_generated(rng):
    pool = conjugator_pool(rng, 4)
    count = 0
    while count < 10:
        g = generated_subalgebra([random_borel_element(rng, span=2)])
        try:
            base = signature(g)
        except IrrationalSpectrum:
            continue
        count += 1
        for c in pool:
            img = Subalgebra(conjugate_subalgebra(c, g.space))
            assert signature(img) == base


def _has_invertible_by_determinant(s: Subalgebra) -> bool:
    """Oracle: the symbolic determinant over the basis is not identically 0."""
    return not det_mpoly(symbolic_combo(list(s.basis))).is_zero()


# every parameter n/d with 0 < |n| <= 12 and 1 <= d <= 7 (114 values)
_GRID = sorted({Q(n, d) for n in range(-12, 13) if n for d in range(1, 8)})


def test_the_fields_left_out_are_functions_of_the_signature():
    """Over every row, the parameterized ones at each admissible value of
    `_GRID`: the abelian flag, the lower central dimensions, the nilpotent
    flag and whether g holds an invertible element, each recomputed on its
    own, are constant on each class of equal signatures, and no class
    holds two rows.  The invertible element is read off the probe as the
    module docstring says: a codimension-1 g holds one iff det(x0), the
    constant term of x0's char poly, is not ("z", 4)."""
    classes: dict = {}
    count = 0
    for e in load_catalog():
        for a in e.samples(_GRID) if e.param else e.samples():
            s = Subalgebra(e.space_at(a))
            sig = signature(s)
            lower = tuple(len(rows) for rows in structure._series(s, lower=True))
            invertible = _has_invertible_by_determinant(s)
            codim = sig.dim - sig.nilpotent_dim
            assert invertible == (codim == 2 or codim == 1 and sig.probe[6] != ("z", 4)), \
                (e.row_id, a)
            left_out = (s.constants.is_abelian(), lower, lower[-1] == 0, invertible)
            rows, values = classes.setdefault(sig, (set(), set()))
            rows.add(e.row_id)
            values.add(left_out)
            count += 1
    assert count > 900
    assert all(len(rows) == 1 and len(values) == 1 for rows, values in classes.values())


def _max_grid_rank(mats) -> int:
    """Oracle: the largest rank of mats[0] + sum_{i>=1} c_i mats[i] over
    c in {0,...,4}^(d-1).  Exact: a nonzero minor of the generic
    combination, dehomogenized at t_0 = 1, has total degree <= 4, so it
    cannot vanish on a grid of side 5 (Schwartz, J. ACM 27, 1980)."""
    if not mats:
        return 0
    best = 0
    for cs in product(range(5), repeat=len(mats) - 1):
        m = mats[0]
        for c, x in zip(cs, mats[1:]):
            m = m + x * c
        best = max(best, rank(m))
    return best


def test_generic_rank_matches_the_grid_oracle(rng):
    spans = []
    for e in load_catalog():
        for a in e.samples():
            s = Subalgebra(e.space_at(a))
            spans.append(list(nilpotent_subspace(s).basis))
            if s.dim <= 4:
                spans.append(list(s.basis))
    for _ in range(50):
        spans.append([Mat4([[rng.randint(-2, 2) if rng.random() < 0.3 else 0
                             for _ in range(4)] for _ in range(4)])
                      for _ in range(rng.randint(1, 4))])
    assert len(spans) > 250
    for mats in spans:
        assert generic_rank(mats) == _max_grid_rank(mats), [repr(m) for m in mats]


def test_signatures_expand_no_minor(monkeypatch):
    """Pencil strata and generic ranks come from integer elimination: no
    signature of a catalog instance expands a determinant by cofactors."""
    from sp4solvable import linalg
    subs = [Subalgebra(e.space_at(a)) for e in load_catalog() for a in e.samples()]
    assert len(subs) == 120

    def refuse(*_):
        raise AssertionError("det_mpoly called")
    monkeypatch.setattr(linalg, "det_mpoly", refuse)
    strata = {sig.nilpotent_strata[0][0] for sig in map(signature, subs)
              if sig.nilpotent_strata}
    assert strata == {"rank", "pencil", "generic"}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_the_probe_char_poly_on_the_derived_algebra_reads_ints(rnd, data):
    # the probe's int route: ad(y) on [g, g] read at the pivots of the int
    # series rows, against the cofactor char poly of ad(y) solved by
    # `Fraction` elimination on the RREF rows
    g = generated_subalgebra([random_borel_element(rnd) for _ in range(rnd.randint(1, 2))])
    sc, d = g.constants, g.dim
    if len(g.derived) < 2 or not g.derived[1]:
        return
    y = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    rows = fraction_rows(g.derived[1])
    cols = solve_in_span(rows, [bracket_coords_fraction(sc, y, v) for v in rows])
    assert _char_poly_int(*_ad_num(sc, y, g.derived[1])) == char_poly_det(list(zip(*cols)))


def _assert_ad_on_g_is_a_power_of_l_times_ad_on_the_derived_algebra(g):
    # ad(x) maps g into [g, g]: for each basis element x, the char poly of
    # ad(x) on g, read directly off the table row and by cofactors, is
    # l^(d - dd) times the one on [g, g]
    sc, d = g.constants, g.dim
    derived = g.derived[1] if len(g.derived) > 1 else []
    power = Poly([0] * (d - len(derived)) + [1])
    for i in range(d):
        on_g = _char_poly_int(sc.num[i], sc.den)
        assert on_g == char_poly_det([[Q(x, sc.den) for x in row] for row in sc.num[i]])
        on_derived = (_char_poly_int(*_ad_num(sc, [int(k == i) for k in range(d)], derived))
                      if derived else Poly([1]))
        assert on_g == power * on_derived


def _direct_probe(work):
    """The probe from two char polys, each computed on its own: x0's, and
    ad(x0)'s on [g, g] by cofactors on the matrix that `Fraction`
    elimination solves for.  The char poly of ad(x0) on g is not in it: it
    is l^(d - dd) times the one on [g, g]
    (`_assert_ad_on_g_is_a_power_of_l_times_ad_on_the_derived_algebra`)."""
    s, i0 = work.sub, work.i0
    sc, d = s.constants, s.dim
    derived = s.derived[1] if len(s.derived) > 1 else []
    polys = [char_poly(work.x0)]
    if derived:
        rows = fraction_rows(derived)
        y = [int(k == i0) for k in range(d)]
        cols = solve_in_span(rows, [bracket_coords_fraction(sc, y, v) for v in rows])
        polys.append(char_poly_det(list(zip(*cols))))
    return (d, len(derived), d - 1) + _invariantize(
        [(p.num[j], p.den, p.degree - j) for p in polys for j in range(p.degree - 1, -1, -1)])


def test_each_catalog_probe_is_x0_and_ad_on_the_derived_algebra():
    count = probes = 0
    for e in load_catalog():
        for a in e.samples():
            work = invariants._SignatureWork(Subalgebra(e.space_at(a)))
            _assert_ad_on_g_is_a_power_of_l_times_ad_on_the_derived_algebra(work.sub)
            if work.probe is not None:
                assert work.probe == _direct_probe(work), (e.row_id, a)
                probes += 1
            count += 1
    assert (count, probes) == (120, 102)


@st.composite
def _borel_generated(draw):
    """The subalgebra generated by one or two Borel elements, or a conjugate
    of it."""
    rnd = draw(st.randoms(use_true_random=False))
    g = generated_subalgebra([random_borel_element(rnd) for _ in range(rnd.randint(1, 2))])
    recipe = draw(st.one_of(st.none(), sp4_recipes))
    if recipe is not None:
        g = Subalgebra(conjugate_subalgebra(parse_conjugator(recipe), g.space))
    return g


@settings(max_examples=60, deadline=None)
@given(_borel_generated())
def test_ad_on_g_is_a_power_of_l_times_ad_on_the_derived_algebra(g):
    if g.dim:
        _assert_ad_on_g_is_a_power_of_l_times_ad_on_the_derived_algebra(g)
        work = invariants._SignatureWork(g)
        if work.probe is not None:
            assert work.probe == _direct_probe(work)
