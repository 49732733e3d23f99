import itertools
import random
import time
from fractions import Fraction

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppalg.errors import InternalInvariantError, NotGeneric, NotInThetaD, RangeError, ShapeError, UsageError
from ppalg.quiver import DimensionVector, DoubleQuiver, standard_extended_dynkin
from ppalg.weyl import (
    StabilityParameter,
    WeylGroup,
    apply_word_to_theta,
    chamber_label,
    chamber_of,
    chamber_word,
    finite_root_system,
    is_generic,
    reflect_dimvec,
    reflect_theta,
)


def setup(tag, n):
    dq, d = standard_extended_dynkin(tag, n)
    rs = finite_root_system(dq, d)
    return dq, d, rs, WeylGroup(rs)


def test_reflection_on_unit_vectors():
    dq, d, rs, wg = setup("A", 2)
    assert reflect_dimvec(dq, 1, dq.unit(1)) == -1 * dq.unit(1)
    for i in range(3):
        assert reflect_dimvec(dq, i, d) == d


def test_theta_reflection_closed_form():
    dq, d, rs, wg = setup("A", 2)
    theta = StabilityParameter((Fraction(5), Fraction(-3), Fraction(7)))
    assert reflect_theta(dq, 1, theta) == StabilityParameter((2, 3, 4))


def test_reflections_are_involutive():
    dq, d, rs, wg = setup("D", 4)
    rng = random.Random(4)
    for _ in range(20):
        alpha = DimensionVector([rng.randint(-3, 3) for _ in range(5)])
        theta = StabilityParameter([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)])
        for i in range(5):
            assert reflect_dimvec(dq, i, reflect_dimvec(dq, i, alpha)) == alpha
            assert reflect_theta(dq, i, reflect_theta(dq, i, theta)) == theta


@pytest.mark.parametrize("tag,n", [("A", 2), ("D", 4)])
def test_pairing_compatibility(tag, n):
    dq, d, rs, wg = setup(tag, n)
    rng = random.Random(31)
    nv = dq.vertex_count
    for _ in range(100):
        alpha = DimensionVector([rng.randint(-4, 4) for _ in range(nv)])
        theta = StabilityParameter([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nv)])
        i = rng.randrange(nv)
        assert reflect_theta(dq, i, theta)(alpha) == theta(reflect_dimvec(dq, i, alpha))


def test_rank_two_root_system():
    dq, d, rs, wg = setup("A", 2)
    assert len(rs.roots) == 6
    assert set(rs.positive) == {(1, 0), (0, 1), (1, 1)}
    for r in rs.roots:
        assert dq.bilinear((0, *r), (0, *r)) == 2


@pytest.mark.parametrize(
    "tag,n,count",
    [("A", 1, 2), ("A", 3, 12), ("D", 5, 40), ("E", 6, 72), ("E", 7, 126), ("E", 8, 240)],
)
def test_root_system_cardinalities(tag, n, count):
    # classical counts pin down the underlying diagrams of every constructor
    dq, d = standard_extended_dynkin(tag, n)
    rs = finite_root_system(dq, d)
    assert len(rs.roots) == count
    assert len(rs.positive) * 2 == count


def test_d4_root_count_against_norm_enumeration_oracle():
    dq, d, rs, wg = setup("D", 4)
    # independent oracle: all norm-two lattice vectors with small coordinates
    span = range(-3, 4)
    norm_two = [
        x
        for x in itertools.product(span, repeat=4)
        if dq.bilinear((0, *x), (0, *x)) == 2
    ]
    assert len(norm_two) == 24
    assert set(rs.roots) == set(norm_two)


def test_genericity_examples():
    dq, d, rs, wg = setup("A", 2)
    assert is_generic(rs, StabilityParameter((-2, 1, 1)))
    assert not is_generic(rs, StabilityParameter((-1, 0, 1)))
    assert not is_generic(rs, StabilityParameter((0, 0, 0)))
    with pytest.raises(NotInThetaD):
        is_generic(rs, StabilityParameter((1, 1, 1)))
    with pytest.raises(NotInThetaD):
        chamber_word(dq, d, StabilityParameter((1, 1, 1)))


def test_chamber_of_fundamental_and_adjacent():
    dq, d, rs, wg = setup("A", 2)
    assert chamber_of(rs, StabilityParameter((-2, 1, 1))) == ()
    word = chamber_of(rs, StabilityParameter((-1, -1, 2)))
    assert wg.matrix_of(word) == wg.matrix_of((1,))
    # oracle: both defining inequalities of that chamber hold
    theta = StabilityParameter((-1, -1, 2))
    for i in (1, 2):
        image = wg.act_on_root((1,), rs.simple[i - 1])
        assert theta.scaled((0, *image)) > 0


def test_parameter_from_tail():
    # the head makes the value on d zero; a tail of the wrong length is a usage error
    d4 = (1, 1, 2, 1, 1)
    theta = StabilityParameter.from_tail(d4, (1, Fraction(1, 2), 1, 1))
    assert theta == (-4, 1, Fraction(1, 2), 1, 1) and theta(d4) == 0
    assert StabilityParameter.from_tail((2, 1, 1), (1, 1)) == (-1, 1, 1)
    for tail in ((1,), (1, 1, 1)):
        with pytest.raises(UsageError):
            StabilityParameter.from_tail((1, 1, 1), tail)
    # no head makes the value zero on a d that is zero at vertex 0
    with pytest.raises(ShapeError, match="extending vertex 0"):
        StabilityParameter.from_tail((0, 1, 0), [1, 1])


WRONG_LENGTH_THETAS = [(-1, 1), (-2, 1, 1, 0)]


def test_is_generic_refuses_theta_of_the_wrong_length():
    dq, d, rs, wg = setup("A", 2)
    with pytest.raises(ShapeError):
        is_generic(rs, StabilityParameter((-1, 1)))


@pytest.mark.parametrize("theta", WRONG_LENGTH_THETAS)
def test_chamber_word_refuses_theta_of_the_wrong_length(theta):
    dq, d = standard_extended_dynkin("A", 2)
    with pytest.raises(ShapeError):
        chamber_word(dq, d, StabilityParameter(theta))


@pytest.mark.parametrize("theta", WRONG_LENGTH_THETAS)
def test_reflect_theta_refuses_theta_of_the_wrong_length(theta):
    dq, d = standard_extended_dynkin("A", 2)
    with pytest.raises(ShapeError):
        reflect_theta(dq, 1, StabilityParameter(theta))
    with pytest.raises(RangeError):  # the vertex is checked first
        reflect_theta(dq, 3, StabilityParameter(theta))


@pytest.mark.parametrize("i,alpha", [(0, (1, 1)), (1, (1, 1, 1, 5))])
def test_reflect_dimvec_refuses_vectors_of_the_wrong_length(i, alpha):
    # a zip against the Cartan row would quietly drop entries or ignore the extra one
    dq, d = standard_extended_dynkin("A", 2)
    with pytest.raises(ShapeError):
        reflect_dimvec(dq, i, alpha)


def test_chamber_of_rejects_walls():
    dq, d, rs, wg = setup("A", 2)
    with pytest.raises(NotGeneric):
        chamber_of(rs, StabilityParameter((-1, 0, 1)))


def test_all_six_chambers_realized_by_random_sampling():
    dq, d, rs, wg = setup("A", 2)
    rng = random.Random(77)
    labels = set()
    checked = 0
    while checked < 500:
        t1 = Fraction(rng.randint(-9, 9))
        t2 = Fraction(rng.randint(-9, 9))
        theta = StabilityParameter((-t1 - t2, t1, t2))
        if not all(theta.scaled((0, *r)) != 0 for r in rs.roots):
            continue
        checked += 1
        word = chamber_of(rs, theta)
        for i in range(1, 3):
            assert theta.scaled((0, *wg.act_on_root(word, rs.simple[i - 1]))) > 0
        labels.add(wg.matrix_of(word))
    assert len(labels) == 6


def test_every_d4_chamber_is_identified():
    dq, d, rs, wg = setup("D", 4)
    base = StabilityParameter((-7, 1, 2, 1, 1))
    assert is_generic(rs, base)
    assert chamber_of(rs, base) == ()
    for mat, word in wg.all_elements().items():
        theta = apply_word_to_theta(dq, word, base)
        got = chamber_of(rs, theta)
        assert wg.matrix_of(got) == mat


@pytest.mark.parametrize("tag,n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)])
def test_descent_word_is_the_breadth_first_word(tag, n):
    """The descent word is the lexicographically first reduced word of its element.

    That is the word the breadth-first enumeration keeps, so ``chamber``
    prints the same spelling as a lookup in the whole group would.
    """
    dq, d, rs, wg = cached_setup(tag, n)
    base = StabilityParameter([-sum(d[1:])] + [1] * rs.rank)
    elements = wg.all_elements()
    for word in wg.canonical_words():
        theta = apply_word_to_theta(dq, word, base)
        assert chamber_word(dq, d, theta) == elements[wg.matrix_of(word)]
    assert len(elements) == {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("D", 4): 192}[tag, n]


def test_random_d4_parameters_satisfy_their_chamber_inequalities():
    dq, d, rs, wg = setup("D", 4)
    rng = random.Random(41)
    checked = 0
    labels = set()
    while checked < 500:
        tail = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        head = -sum(t * di for t, di in zip(tail, d[1:]))
        theta = StabilityParameter([head] + tail)
        if not all(theta.scaled((0, *r)) != 0 for r in rs.roots):
            continue
        checked += 1
        word = chamber_of(rs, theta)
        labels.add(wg.matrix_of(word))
        for i in range(1, 5):
            assert theta.scaled((0, *wg.act_on_root(word, rs.simple[i - 1]))) > 0
    assert len(labels) > 50  # many distinct cells show up in 500 draws


def test_canonical_words_are_reduced():
    dq, d, rs, wg = setup("D", 4)
    for word in wg.canonical_words():
        assert wg.is_reduced(word)


def test_word_tools():
    dq, d, rs, wg = setup("A", 2)
    assert wg.length((1, 2, 1)) == 3
    assert wg.matrix_of((1, 2, 1)) == wg.matrix_of((2, 1, 2))
    assert wg.matrix_of((1, 1)) == wg.matrix_of(())
    assert wg.length((1, 1)) == 0
    assert wg.is_reduced((1, 2, 1))
    assert not wg.is_reduced((1, 1, 2))
    assert len(wg.all_elements()) == 6


def test_d4_group_order():
    dq, d, rs, wg = setup("D", 4)
    assert len(wg.all_elements()) == 192


def recomputed_elements(wg):
    """The breadth-first search with each matrix recomputed from its whole word by ``matrix_of``."""
    found = {wg.matrix_of(()): ()}
    queue = [()]
    while queue:
        nxt = []
        for word in queue:
            for i in range(1, wg.rank + 1):
                longer = word + (i,)
                mat = wg.matrix_of(longer)
                if mat not in found:
                    found[mat] = longer
                    nxt.append(longer)
        queue = nxt
    return found


@pytest.mark.parametrize("tag,n", [("A", 3), ("D", 4)])
def test_all_elements_match_the_recomputed_matrices_in_order(tag, n):
    wg = setup(tag, n)[3]
    assert list(wg.all_elements().items()) == list(recomputed_elements(wg).items())


def test_d5_group_order():
    assert len(setup("D", 5)[3].all_elements()) == 1920


@pytest.mark.parametrize("tag,n,sample", [("A", 2, None), ("D", 4, 24)])
def test_length_increase_matches_chamber_sign(tag, n, sample):
    dq, d, rs, wg = setup(tag, n)
    base = (
        StabilityParameter((-2, 1, 1))
        if tag == "A"
        else StabilityParameter((-7, 1, 2, 1, 1))
    )
    words = wg.canonical_words()
    if sample:
        words = random.Random(13).sample(words, sample)
    for word in words:
        theta = apply_word_to_theta(dq, word, base)
        for i in range(1, wg.rank + 1):
            grows = wg.length((i,) + tuple(word)) > wg.length(word)
            assert grows == (theta[i] > 0)


def test_chamber_label_format():
    assert chamber_label(()) == "C(1)"
    assert chamber_label((1, 2, 1)) == "C(s1s2s1)"


# -- the Cartan-matrix operations against the earlier unit-vector ones --------

STANDARD_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]


@functools.lru_cache(maxsize=None)
def cached_setup(tag, n):
    return setup(tag, n)


def reference_reflect_dimvec(dq, i, alpha):
    alpha = DimensionVector(alpha)
    return alpha - dq.bilinear(alpha, dq.unit(i)) * dq.unit(i)


def reference_reflect_theta(dq, i, theta):
    return StabilityParameter(
        theta[j] - theta[i] * dq.bilinear(dq.unit(i), dq.unit(j)) for j in range(dq.vertex_count)
    )


def reference_cartan(dq):
    """The rank x rank Gram matrix of the simple roots, one form call per entry."""
    n = dq.vertex_count - 1
    return [[dq.bilinear(dq.unit(i), dq.unit(j)) for j in range(1, n + 1)] for i in range(1, n + 1)]


def reference_form(cartan, x, y):
    return sum(x[i] * y[j] * cartan[i][j] for i in range(len(cartan)) for j in range(len(cartan)))


def reference_reflect(cartan, i, x):
    simple = [1 if k == i - 1 else 0 for k in range(len(cartan))]
    c = reference_form(cartan, x, simple)
    return tuple(x[k] - c * simple[k] for k in range(len(cartan)))


def reference_theta_at(theta, x):
    return sum((Fraction(x[i]) * theta[i + 1] for i in range(len(x))), Fraction(0))


RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("tag,n", STANDARD_TYPES)
def test_reflections_match_the_unit_vector_formulas(tag, n, data):
    dq, _ = standard_extended_dynkin(tag, n)
    nv = dq.vertex_count
    alpha = data.draw(st.lists(st.integers(-6, 6), min_size=nv, max_size=nv))
    theta = StabilityParameter(data.draw(st.lists(RATIONALS, min_size=nv, max_size=nv)))
    i = data.draw(st.integers(0, nv - 1))
    assert reflect_dimvec(dq, i, alpha) == reference_reflect_dimvec(dq, i, alpha)
    # denominators from distinct primes, with numerators prime to them, do not cancel
    coprime = StabilityParameter(
        Fraction(data.draw(st.sampled_from((-1, 1))) * data.draw(st.integers(1, p - 1)), p)
        for p in PRIMES[:nv]
    )
    for th in (theta, coprime):
        got, want = reflect_theta(dq, i, th), reference_reflect_theta(dq, i, th)
        assert got == want
        assert got.format() == want.format()
        assert got.numerators == want.numerators
        assert got.denominator == want.denominator


def assert_same_parameter(got, want):
    assert tuple(got) == tuple(want)
    assert all(type(x) is Fraction for x in got)
    assert got.numerators == want.numerators
    assert got.denominator == want.denominator


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(RATIONALS, min_size=5, max_size=5))
@example(entries=[Fraction(-5, 6), Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0)])
@example(entries=[Fraction(1, 6), Fraction(-1, 4), Fraction(3, 2), Fraction(-2, 3), Fraction(5)])
@pytest.mark.parametrize("tag,n", [("A", 2), ("D", 4)])
def test_reflect_theta_stays_canonical_and_is_an_involution(tag, n, entries):
    # the result is built without the constructor's lcm; it must be the
    # parameter the constructor makes from its entries, and reflecting twice
    # must give theta back with the same cleared numerators
    dq, _ = standard_extended_dynkin(tag, n)
    theta = StabilityParameter(entries[: dq.vertex_count])
    for i in range(dq.vertex_count):
        once = reflect_theta(dq, i, theta)
        assert_same_parameter(once, StabilityParameter(list(once)))
        assert_same_parameter(reflect_theta(dq, i, once), theta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("tag,n", STANDARD_TYPES)
def test_root_system_matches_the_quotient_cartan_formulas(tag, n, data):
    dq, d, rs, wg = cached_setup(tag, n)
    cartan = reference_cartan(dq)
    vectors = st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank).map(tuple)
    x, y = data.draw(vectors), data.draw(vectors | st.sampled_from(rs.roots))
    theta = StabilityParameter(data.draw(st.lists(RATIONALS, min_size=rs.rank + 1, max_size=rs.rank + 1)))
    i = data.draw(st.integers(1, rs.rank))
    assert dq.bilinear((0, *x), (0, *y)) == reference_form(cartan, x, y)
    assert reflect_dimvec(dq, i, (0, *x))[1:] == reference_reflect(cartan, i, x)
    assert theta.scaled((0, *y)) == reference_theta_at(theta, y) * theta.denominator


@pytest.mark.parametrize("tag,n", STANDARD_TYPES)
def test_roots_are_closed_under_the_reference_reflections(tag, n):
    dq, d, rs, wg = cached_setup(tag, n)
    cartan = reference_cartan(dq)
    roots = set(rs.roots)
    for r in rs.roots:
        assert reference_form(cartan, r, r) == 2
        for i in range(1, rs.rank + 1):
            assert reference_reflect(cartan, i, r) in roots


@pytest.mark.parametrize("tag,n", [("A", 2), ("D", 4), ("E", 8)])
def test_reflections_reject_vertices_outside_the_quiver(tag, n):
    dq, d = standard_extended_dynkin(tag, n)
    theta = StabilityParameter([1] * dq.vertex_count)
    for i in (-1, dq.vertex_count):
        with pytest.raises(RangeError):
            reflect_dimvec(dq, i, d)
        with pytest.raises(RangeError):
            reflect_theta(dq, i, theta)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), entries=st.lists(RATIONALS, min_size=1, max_size=9))
def test_integer_form_agrees_with_the_fraction_sum(data, entries):
    theta = StabilityParameter(entries)
    alpha = data.draw(st.lists(st.integers(-8, 8), min_size=len(theta), max_size=len(theta)))
    value = sum((t * a for t, a in zip(theta, alpha)), Fraction(0))
    assert theta(alpha) == value
    assert theta.scaled(alpha) == value * theta.denominator
    assert all(t == Fraction(k, theta.denominator) for t, k in zip(theta, theta.numerators))
    with pytest.raises(ShapeError):
        theta.scaled([*alpha, 1])


@pytest.mark.parametrize("tag,n", [("A", 1), ("A", 2), ("D", 4), ("E", 8)])
def test_broken_reflection_stops_the_root_closure(tag, n, monkeypatch):
    """A form that reads Cartan row i - 1 has an infinite orbit; the closure must fail, not grow."""
    dq, d = standard_extended_dynkin(tag, n)
    cartan_row = DoubleQuiver.cartan_row
    monkeypatch.setattr(DoubleQuiver, "cartan_row", lambda self, i: cartan_row(self, i - 1))
    t0 = time.perf_counter()
    with pytest.raises(InternalInvariantError):
        finite_root_system(dq, d)
    assert time.perf_counter() - t0 < 10



def reference_chamber_of(rs, theta):
    """The descent with the root count as its bound and the unit-vector reflection formula."""
    if theta(rs.d) != 0:
        raise NotInThetaD("parameter does not kill the imaginary root vector")
    cur = StabilityParameter(theta)
    letters = []
    for _ in range(len(rs.roots) + 1):
        neg = [i for i in range(1, rs.rank + 1) if cur[i] < 0]
        if any(cur[i] == 0 for i in range(1, rs.rank + 1)):
            raise NotGeneric("parameter lies on a wall")
        if not neg:
            return tuple(letters)
        cur = reference_reflect_theta(rs.dq, neg[0], cur)
        letters.append(neg[0])
    raise NotGeneric("descent did not terminate; parameter is not generic")


CHAMBER_TYPES = [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 8)] + [("E", 6)]


@pytest.mark.parametrize("tag,n", CHAMBER_TYPES)
def test_chamber_word_matches_the_root_count_descent(tag, n):
    dq, d, rs, wg = cached_setup(tag, n)
    # the descent bound rank . sum(d) is the number of roots
    assert len(rs.roots) == rs.rank * sum(d)
    rng = random.Random(f"{tag}{n}")
    generic = 0
    for _ in range(40):
        tail = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(rs.rank)]
        theta = StabilityParameter([-sum(t * x for t, x in zip(tail, d[1:]))] + tail)
        if not is_generic(rs, theta):
            with pytest.raises(NotGeneric):
                reference_chamber_of(rs, theta)
            with pytest.raises(NotGeneric):
                chamber_word(dq, d, theta)
            continue
        generic += 1
        want = chamber_label(reference_chamber_of(rs, theta))
        assert chamber_label(chamber_word(dq, d, theta)) == want
        assert chamber_label(chamber_of(rs, theta)) == want
    assert generic >= 25
