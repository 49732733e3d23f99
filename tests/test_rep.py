import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppalg.rep as rep_module
from ppalg.errors import FieldMismatch, Inconclusive, ShapeError
from ppalg.fields import GF, QQ
from ppalg.linalg import Matrix
from ppalg.quiver import Arrow, DimensionVector, Quiver, build_double, standard_extended_dynkin
from ppalg.rep import (
    Representation,
    block_module,
    hom_basis,
    hom_dim,
    is_isomorphic,
    nonzero_morphisms,
)
from ppalg.stability import _thin_rep, enumerate_thin_reps, submodule_dimvecs, thin_canonical_values
from ppalg.verify import random_nilpotent
from relation_maps import (
    arrows_out,
    dual,
    in_map,
    is_zero,
    negated,
    out_map,
    relation_matrix,
    socle_multiplicities,
    top_multiplicities,
    vstack_all,
)


def a2(field):
    dq, d = standard_extended_dynkin("A", 2)
    return dq, d, field


def thin(dq, field, d, values):
    mats = {aid: Matrix(field, 1, 1, [[v]]) for aid, v in values.items()}
    return Representation.build(dq, field, d, mats)


def rescaled(m, gauge):
    """The thin module m with vertex v rescaled by gauge[v]: an isomorphic copy."""
    f = m.field
    mats = {}
    for a in m.dq.arrows:
        x = m.mats[a.aid].data[0][0]
        mats[a.aid] = Matrix(f, 1, 1, [[f.mul(gauge[a.dst], f.mul(x, f.inv(gauge[a.src])))]])
    return Representation.build(m.dq, f, m.dims, mats)


def curve_member(dq, field, d, a, b):
    # arrows 0->1 = a, 0->2 = 1, 2->1 = b, everything else zero
    return thin(dq, field, d, {"a1": a, "a3s": field.one(), "a2s": b})


def test_simples_satisfy_relations():
    dq, d, f = a2(GF(3))
    for i in range(3):
        s = Representation.simple(dq, f, i)
        assert s.check_relations() == []
        assert s.dims == dq.unit(i)


@pytest.mark.parametrize("tag,n", [("A", 2), ("D", 4)])
@pytest.mark.parametrize("field", [GF(2), GF(4), QQ], ids=["GF2", "GF4", "QQ"])
def test_simple_equals_the_built_simple(tag, n, field):
    dq, _ = standard_extended_dynkin(tag, n)
    for i in range(dq.vertex_count):
        s = Representation.simple(dq, field, i)
        built = Representation.build(dq, field, dq.unit(i))
        assert s == built and s.to_json() == built.to_json()


def test_block_module_refuses_a_corner_of_the_wrong_shape_or_field():
    dq, d, f = a2(GF(3))
    s1, s2 = Representation.simple(dq, f, 1), Representation.simple(dq, f, 2)
    # a2 runs 1 -> 2, so its corner in the extension of s1 by s2 is 1x1
    assert block_module(s2, s1, {"a2": Matrix(f, 1, 1, [[1]])}).check_relations() == []
    with pytest.raises(ShapeError, match="a2 corner"):
        block_module(s2, s1, {"a2": Matrix(f, 1, 2, [[1, 0]])})
    with pytest.raises(FieldMismatch):
        block_module(s2, s1, {"a2": Matrix(GF(5), 1, 1, [[1]])})


@pytest.mark.parametrize("q", [2, 3])
def test_thin_module_equals_the_built_module_on_every_support(q):
    dq, _, f = a2(GF(q))
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
        for m in enumerate_thin_reps(dq, DimensionVector(d), f):
            values = [m.mats[a.aid].data[0][0] for a in live]
            built = Representation.build(dq, f, d, {a.aid: Matrix(f, 1, 1, [[x]]) for a, x in zip(live, values)})
            trusted = _thin_rep(dq, f, d, live, values)
            assert trusted == built and trusted.to_json() == built.to_json()
            assert type(trusted.dims) is DimensionVector


def test_thin_enumeration_refuses_a_longer_or_negative_dimension_vector():
    dq, d, f = a2(GF(2))
    for bad in ((1, 1, 1, 0), (0, 1, 1, 1), (1, -1, 1)):
        with pytest.raises(ShapeError):
            next(enumerate_thin_reps(dq, bad, f))


def test_curve_family_satisfies_relations_for_all_parameters():
    dq, d, f = a2(GF(3))
    for a in f.elements():
        for b in f.elements():
            m = curve_member(dq, f, d, a, b)
            # oracle: every relation term contains a zero factor, so each
            # vertex relation matrix must vanish identically
            assert m.check_relations() == []


def test_extra_arrow_breaks_relations():
    dq, d, f = a2(GF(3))
    m = thin(dq, f, d, {"a1": 1, "a3s": 1, "a2s": 1, "a1s": 1})
    assert m.check_relations() != []


def test_direct_sum_dims_and_hom_additivity():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    s2 = Representation.simple(dq, f, 2)
    both = s1.direct_sum(s2)
    assert both.dims == DimensionVector([0, 1, 1])
    assert all(is_zero(m) for m in both.mats.values())
    assert hom_dim(s1.direct_sum(s1), s1) == 2


def test_top_and_socle_of_intersection_member():
    dq, d, f = a2(GF(2))
    m = thin(dq, f, d, {"a1": 1, "a3s": 1})
    assert top_multiplicities(m) == DimensionVector([1, 0, 0])
    assert socle_multiplicities(m) == DimensionVector([0, 1, 1])
    assert m.is_nilpotent()


def test_simple_socle_and_nilpotency():
    dq, d, f = a2(GF(5))
    s = Representation.simple(dq, f, 1)
    assert socle_multiplicities(s) == dq.unit(1)
    assert s.is_nilpotent()


def test_full_cycle_rep_is_not_nilpotent():
    dq, d, f = a2(GF(2))
    m = thin(dq, f, d, {aid: 1 for aid in ("a1", "a2", "a3", "a1s", "a2s", "a3s")})
    assert m.check_relations() == []
    assert not m.is_nilpotent()
    assert m.is_zero_generated()


def test_zero_generation_needs_a_one_dimensional_space_at_the_extending_vertex():
    dq, d, f = a2(GF(2))
    s0 = Representation.simple(dq, f, 0)
    assert s0.is_zero_generated()
    assert not Representation.simple(dq, f, 1).is_zero_generated()  # dims[0] = 0
    assert not s0.direct_sum(s0).is_zero_generated()  # dims[0] = 2


def test_iso_reflexive_and_distinguishes_support_lattices():
    dq, d, f = a2(GF(2))
    m10 = curve_member(dq, f, d, f.one(), f.zero())
    m01 = curve_member(dq, f, d, f.zero(), f.one())
    assert is_isomorphic(m10, m10)
    # oracle: the submodule support lattices already differ
    assert len(submodule_dimvecs(m10)) != len(submodule_dimvecs(m01))
    assert not is_isomorphic(m10, m01)


def test_iso_invariant_under_vertex_rescaling():
    dq, d, f = a2(GF(5))
    m = curve_member(dq, f, d, 2, 3)
    copy = rescaled(m, {0: 2, 1: 4, 2: 3})
    assert is_isomorphic(m, copy)
    # gauge-canonical values agree, the other half of the same oracle
    assert thin_canonical_values(m) == thin_canonical_values(copy)


def reference_is_isomorphic(a, b):
    """The hom-basis search: some nonzero map a -> b is invertible at every vertex.

    Over a finite field one nonzero combination of the basis per line is
    tried, which meets every map up to a nonzero scalar.  Over QQ it is only
    used where Hom has dimension at most one, so a basis map is invertible
    exactly when some map is.
    """
    basis = hom_basis(a, b)
    if a.field.is_finite:
        maps = nonzero_morphisms(a.field, basis, 10**6)
    else:
        assert len(basis) <= 1
        maps = basis
    return any(all(x.rows == x.cols and x.rank() == x.rows for x in phi.values()) for phi in maps)


def cycle_modules(dq, rng, count):
    """Seeded thin modules over QQ at the all-ones vector of a cycle quiver.

    Each edge of the cycle carries a random nonzero rational on its arrow or
    on its star, and at most one edge carries neither, so the nonzero arrows
    connect every vertex (Hom between two such modules has dimension at most
    one) and no arrow meets its star (every relation term vanishes).  Each
    module comes with a flag that is true when no edge was dropped.
    """
    d = [1] * dq.vertex_count
    base = list(dq.base.arrows)
    out = []
    for _ in range(count):
        dropped = rng.choice([None] + base)
        mats = {}
        for a in base:
            if a is dropped:
                continue
            aid = a.aid if rng.random() < 0.5 else dq.star[a.aid]
            value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            mats[aid] = Matrix(QQ, 1, 1, [[value]])
        m = Representation.build(dq, QQ, d, mats)
        assert m.check_relations() == []
        out.append((m, dropped is None))
    return out


def test_thin_canonical_values_and_is_isomorphic_agree():
    # is_isomorphic decides thin pairs by canonical values; the reference
    # searches the hom space, so the two deciders are independent
    def agree(a, b):
        same = reference_is_isomorphic(a, b)
        assert same == is_isomorphic(a, b), (a.mats, b.mats)
        assert same == (thin_canonical_values(a) == thin_canonical_values(b)), (a.mats, b.mats)
        return same

    cases = [("A", 1, 2), ("A", 1, 3), ("A", 1, 4), ("A", 1, 5), ("A", 2, 2), ("A", 3, 2)]
    for tag, n, q in cases:
        dq, d = standard_extended_dynkin(tag, n)
        mods = list(enumerate_thin_reps(dq, d, GF(q)))
        for a, b in itertools.product(mods, repeat=2):
            agree(a, b)
    rng = random.Random(12)
    for n, q in [(2, 3), (2, 4), (2, 5), (3, 3)]:
        dq, d = standard_extended_dynkin("A", n)
        f = GF(q)
        nonzero = list(f.nonzero_elements())
        mods = list(enumerate_thin_reps(dq, d, f))
        for m in mods:
            assert agree(m, rescaled(m, [rng.choice(nonzero) for _ in range(n + 1)]))
            for other in rng.sample(mods, 3):
                agree(m, other)
    # over QQ: a rescaled copy is isomorphic; changing one value of a full
    # cycle changes its cycle value, so the copy is not
    for n in (2, 3):
        dq, _ = standard_extended_dynkin("A", n)
        for m, full_cycle in cycle_modules(dq, rng, 40):
            gauge = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            assert agree(m, rescaled(m, gauge))
            if full_cycle:
                aid = rng.choice([aid for aid, x in m.mats.items() if not is_zero(x)])
                changed = dict(m.mats, **{aid: m.mats[aid].scale(Fraction(2))})
                assert not agree(m, Representation.build(dq, QQ, m.dims, changed))


@st.composite
def gauge_patterns(draw):
    """A thin support, live arrows between its vertices (parallel ones likely) and a nonzero pattern."""
    support = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=6)))
    live = []
    if len(support) > 1:
        ends = st.lists(st.sampled_from(support), min_size=2, max_size=2, unique=True)
        live = [Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(draw(st.lists(ends, max_size=12)))]
    nonzero = draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
    return support, live, nonzero


@settings(max_examples=400, deadline=None)
@given(gauge_patterns())
def test_gauge_walk_is_the_minimum_spanning_forest_rooted_at_smallest_vertices(pattern):
    support, live, nonzero = pattern
    steps = rep_module._pattern_walk(tuple(support), rep_module._pattern(live, nonzero))
    parent = {}  # vertex -> (the vertex its step starts from, live index)
    entered = {w for w, _, _, _ in steps}
    for w, v, i, forward in steps:
        a = live[i]
        assert nonzero[i] and (a.src, a.dst) == ((v, w) if forward else (w, v))
        assert {v, w} <= set(support) and w not in parent and (v in parent or v not in entered)
        parent[w] = (v, i)

    def climb(x):
        """The forest arrows from x up to its tree root, and that root."""
        used = set()
        while x in parent:
            x, i = parent[x]
            used.add(i)
        return used, x

    root = {x: climb(x)[1] for x in support}
    assert all(r == min(x for x in support if root[x] == r) for r in root.values())
    forest = {i for _, i in parent.values()}
    for j, a in enumerate(live):
        if nonzero[j] and j not in forest:
            (up_src, root_src), (up_dst, root_dst) = climb(a.src), climb(a.dst)
            # the arrow closes a cycle, and each arrow of its forest path comes earlier
            assert root_src == root_dst and all(i < j for i in up_src ^ up_dst)


def test_top_socle_agree_with_hom_dimensions():
    dq, d, f = a2(GF(3))
    rng = random.Random(17)
    reps = list(enumerate_thin_reps(dq, d, f))
    for m in rng.sample(reps, 20):
        top = top_multiplicities(m)
        soc = socle_multiplicities(m)
        for i in range(3):
            s = Representation.simple(dq, f, i)
            assert top[i] == hom_dim(m, s)
            assert soc[i] == hom_dim(s, m)


def test_zero_module_and_shape_errors():
    dq, d, f = a2(GF(2))
    z = Representation.build(dq, f, [0] * dq.vertex_count)
    assert z.is_zero_module()
    assert is_isomorphic(z, z)  # the thin branch compares two empty canonical tuples
    dq4, _ = standard_extended_dynkin("D", 4)
    assert is_isomorphic(Representation.build(dq4, QQ, [0] * 5), Representation.build(dq4, QQ, [0] * 5))
    with pytest.raises(ShapeError):
        Representation.build(dq, f, [1, 1], {})
    with pytest.raises(ShapeError):
        Representation.build(dq, f, d, {"a1": Matrix.zero(f, 2, 2)})
    with pytest.raises(ShapeError, match="zz"):
        Representation.build(dq, f, d, {"zz": Matrix(f, 1, 1, [[1]])})


@pytest.mark.parametrize("dims", [(1.9, True, "1"), (1, 1, 1.0), (True, 1, 1), (1, "1", 1)])
def test_build_refuses_a_dims_entry_that_is_not_an_integer(dims):
    # int() once read (1.9, True, "1") as the dims (1, 1, 1)
    dq, _, f = a2(GF(2))
    with pytest.raises(ShapeError):
        Representation.build(dq, f, dims)


def test_isomorphism_refuses_pairs_that_do_not_match():
    # S1 of the cycle against S1 of the path 0 - 1 - 2: the thin branch once answered True
    dq, d, f = a2(GF(2))
    path = build_double(Quiver(3, [Arrow("a1", 0, 1), Arrow("a2", 1, 2)]))
    s1 = Representation.simple(dq, f, 1)
    with pytest.raises(ShapeError):
        is_isomorphic(s1, Representation.simple(path, f, 1))
    with pytest.raises(FieldMismatch):
        is_isomorphic(s1, Representation.simple(dq, GF(3), 1))
    assert is_isomorphic(s1, Representation.from_json(s1.to_json()))


def test_module_equality_includes_the_quiver():
    # equal field, dims and zero matrices over the cycle with every base arrow reversed
    dq, d, f = a2(GF(2))
    reversed_cycle = build_double(Quiver(3, [Arrow("a1", 1, 0), Arrow("a2", 2, 1), Arrow("a3", 0, 2)]))
    m, n = Representation.build(dq, f, d), Representation.build(reversed_cycle, f, d)
    assert m != n and len({m, n}) == 2
    copy = Representation.from_json(m.to_json())
    assert copy.dq is not m.dq and copy == m and hash(copy) == hash(m)


def test_json_round_trip_is_bit_exact():
    dq, d, _ = a2(GF(3))
    f = GF(3)
    m = curve_member(dq, f, d, 2, 1)
    s = json.dumps(m.to_json(), sort_keys=True)
    again = Representation.from_json(json.loads(s))
    assert json.dumps(again.to_json(), sort_keys=True) == s
    assert again == m


def test_json_round_trip_over_rationals():
    dq, d, _ = a2(QQ)
    m = curve_member(dq, QQ, d, QQ.parse_scalar("3/7"), QQ.parse_scalar("-2"))
    again = Representation.from_json(json.loads(json.dumps(m.to_json(), sort_keys=True)))
    assert again == m


def test_non_nilpotent_thin_full_cycles_are_simple():
    dq, d, f = a2(GF(3))
    for m in enumerate_thin_reps(dq, d, f):
        if m.is_nilpotent():
            continue
        proper = [b for b in submodule_dimvecs(m) if 0 < sum(b) < 3]
        assert proper == []  # no proper nonzero submodule, so simple
        assert m.dims == d  # dims are the minimal imaginary root


def test_isomorphism_raises_inconclusive_when_search_is_disabled(monkeypatch):
    # a non-thin pair: thin pairs are decided by canonical values and never
    # reach the hom-space search
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    m = s1.direct_sum(s1)
    monkeypatch.setattr(rep_module, "MORPHISM_SCAN_BUDGET", 0)
    with pytest.raises(Inconclusive, match="budget 0"):
        is_isomorphic(m, m)


def test_thin_pairs_are_decided_without_the_hom_space_search(monkeypatch):
    dq, d, _ = a2(QQ)
    m = curve_member(dq, QQ, d, Fraction(3, 7), Fraction(-2))
    copy = rescaled(m, {0: Fraction(5), 1: Fraction(-1, 3), 2: Fraction(2, 9)})
    monkeypatch.setattr(rep_module, "MORPHISM_SCAN_BUDGET", 0)
    assert is_isomorphic(m, copy)
    assert not is_isomorphic(m, curve_member(dq, QQ, d, Fraction(3, 7), Fraction(0)))


def blocks(dq, field, dims, rows):
    """The module of ``dims`` whose arrows carry the integer matrices ``rows``, zero elsewhere."""
    mats = {aid: Matrix(field, len(r), len(r[0]), r) for aid, r in rows.items()}
    return Representation.build(dq, field, dims, mats)


def test_isomorphism_answers_false_on_unequal_dims_or_hom_data_without_a_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the morphism scan ran")

    monkeypatch.setattr(rep_module, "nonzero_morphisms", no_scan)
    dq, d, f = a2(GF(2))
    s1, s2 = Representation.simple(dq, f, 1), Representation.simple(dq, f, 2)
    assert not is_isomorphic(s1, s2)
    assert not is_isomorphic(s1.direct_sum(s1), s2.direct_sum(s2))
    # three nilpotents of dims (1, 1, 2): x and z share no map, y and z have End and Hom of dimensions 3, 2, 2
    x = blocks(dq, f, (1, 1, 2), {"a1": [[1]], "a3": [[1, 0]], "a2s": [[0, 1]]})
    y = blocks(dq, f, (1, 1, 2), {"a2s": [[0, 1]], "a3s": [[1], [0]]})
    z = blocks(dq, f, (1, 1, 2), {"a1": [[1]], "a2s": [[1, 0]], "a3s": [[1], [0]]})
    assert x.check_relations() == y.check_relations() == z.check_relations() == []
    assert hom_dim(z, x) == 0 and not is_isomorphic(z, x)
    assert (hom_dim(y, y), hom_dim(y, z), hom_dim(z, z)) == (3, 2, 2) and not is_isomorphic(y, z)


def semisimple(dq, field, multiplicities):
    """The direct sum of multiplicities[v] copies of the vertex simple at each v."""
    m = Representation.build(dq, field, [0] * dq.vertex_count)
    for v, k in enumerate(multiplicities):
        for _ in range(k):
            m = m.direct_sum(Representation.simple(dq, field, v))
    return m


def test_isomorphism_is_reflexive_on_a_semisimple_star_module():
    # End X has dimension 1 + 3 * 4 = 13: of the 8,191 nonzero maps in the
    # GF(2) grid, 1 * 6^3 = 216 are invertible
    dq, _ = standard_extended_dynkin("D", 4)
    x = semisimple(dq, GF(2), [0, 1, 2, 2, 2])
    assert hom_dim(x, x) == 13
    assert is_isomorphic(x, x)


def first_pair(field, hom_ok, unlike):
    """The first pair of 120 seeded A2~ nilpotents with equal dims (one >= 2), equal hom data and both tests."""
    dq, _, _ = a2(field)
    rng = random.Random(1)
    mods = [random_nilpotent(dq, field, rng, steps=rng.randrange(1, 4)) for _ in range(120)]
    for a, b in itertools.combinations(mods, 2):
        if a.dims == b.dims and max(a.dims) >= 2 and hom_dim(a, a) == hom_dim(b, b) == hom_dim(a, b):
            if hom_ok(hom_dim(a, b)) and unlike(a, b):
                return a, b


def unlike_ends(a, b):
    """Unequal tops or socles, which certify that a and b are not isomorphic."""
    return (top_multiplicities(a), socle_multiplicities(a)) != (top_multiplicities(b), socle_multiplicities(b))


def test_isomorphism_over_rationals_answers_false_on_equal_hom_data():
    # a one-dimensional Hom: the reference is exact there
    a, b = first_pair(QQ, lambda h: h == 1, lambda a, b: not reference_is_isomorphic(a, b))
    assert tuple(a.dims) == (2, 1, 1)
    assert not is_isomorphic(a, b)
    dq, _, f = a2(QQ)
    s1 = Representation.simple(dq, f, 1)
    assert is_isomorphic(s1.direct_sum(s1), s1.direct_sum(s1))


# a source of dimension 4 gives QQ the grid 0..4, whose 6 lines hold no
# invertible map; over GF(317) the 317^2 - 1 nonzero maps exceed the budget,
# but their 318 lines do not
@pytest.mark.parametrize("field,lines", [(QQ, 6), (GF(317), 318)], ids=["QQ", "GF317"])
def test_isomorphism_answers_false_on_a_two_dimensional_hom(monkeypatch, field, lines):
    a, b = first_pair(field, lambda h: h >= 2, unlike_ends)
    assert tuple(a.dims) == (1, 1, 2) and hom_dim(a, b) == 2
    assert not is_isomorphic(a, b)
    monkeypatch.setattr(rep_module, "MORPHISM_SCAN_BUDGET", lines - 1)
    with pytest.raises(Inconclusive, match=f"{lines} nonzero combinations"):
        is_isomorphic(a, b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_relation_sum_matches_the_dense_products(data):
    # sum eps(a) M_{a*} . M_a through Matrix.mul, Matrix.add and negated; n = 0 and width 0 are drawn too
    field = data.draw(st.sampled_from([GF(2), GF(3), GF(4), GF(5), QQ]), label="field")
    if field.is_finite:
        entry = st.sampled_from(list(field.elements()))
    else:
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    n = data.draw(st.integers(0, 3), label="n")

    def block(rows, cols):
        cells = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return Matrix(field, rows, cols, [cells[r * cols : (r + 1) * cols] for r in range(rows)])

    terms, ref = [], Matrix.zero(field, n, n)
    for _ in range(data.draw(st.integers(0, 3), label="terms")):
        sign, width = data.draw(st.sampled_from([1, -1])), data.draw(st.integers(0, 3))
        arrow, star = block(width, n), block(n, width)
        product = star.mul(arrow)
        ref = ref.add(product if sign > 0 else negated(product))
        terms.append((sign, arrow.data, star.data))
    got = rep_module._relation_sum(field, n, terms)
    assert [list(row) for row in got] == [list(row) for row in ref.data]


# (field, largest basis size): grids of at most about 2,000 points; over QQ
# the grid also grows with the source dimension n, at most 2 here
SCAN_GRIDS = [(GF(2), 8), (GF(3), 5), (GF(4), 4), (QQ, 3)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_morphism_scan_yields_each_line_once_within_its_budget(data):
    field, largest = data.draw(st.sampled_from(SCAN_GRIDS))
    d, n = data.draw(st.integers(1, largest)), data.draw(st.integers(1, 2))
    # basis map i is the i-th matrix unit, so a map's entries spell its coefficients
    rows = -(-d // n)
    units = Matrix.identity(field, rows * n).data
    basis = [{0: Matrix(field, rows, n, [units[i][r * n:(r + 1) * n] for r in range(rows)])} for i in range(d)]
    grid = list(field.elements()) if field.is_finite else [Fraction(k) for k in range(n + 1)]
    last_nonzero = lambda coeffs: [x for x in coeffs if x != field.zero()][-1:]
    expected = {c for c in itertools.product(grid, repeat=d) if last_nonzero(c) == [field.one()]}
    budget = data.draw(st.integers(0, len(expected) + 1))
    scan = nonzero_morphisms(field, basis, budget)
    seen = [tuple(x for row in phi[0].data for x in row)[:d] for phi in itertools.islice(scan, budget)]
    assert len(set(seen)) == len(seen) == min(budget, len(expected))
    if budget < len(expected):
        assert set(seen) < expected
        with pytest.raises(Inconclusive):
            next(scan)
    else:
        assert set(seen) == expected
        assert next(scan, None) is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_isomorphism_never_answers_false_when_the_scan_is_cut(data):
    field, largest = data.draw(st.sampled_from(SCAN_GRIDS))
    dq, _ = standard_extended_dynkin("D", 4)
    # End X has dimension sum k^2 on a source of dimension sum k
    small = [
        ks
        for ks in itertools.product(range(3), repeat=dq.vertex_count)
        if 0 < sum(k * k for k in ks) <= largest and (field.is_finite or sum(ks) <= 2)
    ]
    x = semisimple(dq, field, data.draw(st.sampled_from(small)))
    size = sum(1 for _ in nonzero_morphisms(field, hom_basis(x, x), 10**4))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rep_module, "MORPHISM_SCAN_BUDGET", data.draw(st.integers(0, size - 1)))
        try:
            assert is_isomorphic(x, x)
        except Inconclusive:
            pass
    assert is_isomorphic(x, x)


def socle_by_outgoing_rank(m):
    """Reference socle: dims[v] minus the rank of the stacked outgoing arrow maps."""
    out = []
    for v in range(m.dq.vertex_count):
        outgoing = [m.mats[a.aid] for a in arrows_out(m.dq, v)]
        out.append(m.dims[v] - vstack_all(m.field, m.dims[v], outgoing).rank())
    return DimensionVector(out)


def random_matrices(m, rng):
    """Same quiver and dims as m, every arrow a random matrix: relations mostly fail."""
    f = m.field
    pool = list(f.elements()) if f.is_finite else [f.from_int(k) for k in range(-3, 4)]
    mats = {
        a.aid: Matrix(
            f,
            m.dims[a.dst],
            m.dims[a.src],
            [[rng.choice(pool) for _ in range(m.dims[a.src])] for _ in range(m.dims[a.dst])],
        )
        for a in m.dq.arrows
    }
    return Representation.build(m.dq, f, m.dims, mats)


@settings(max_examples=30, deadline=None)
@given(
    tag=st.sampled_from([("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_dual_is_an_involution_that_transposes_relations_and_hom(tag, field, seed, steps):
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    noise = random_matrices(m, rng)
    for x in (m, n, noise):
        assert dual(dual(x)) == x
        assert dual(x).check_relations() == x.check_relations()
        for v in range(dq.vertex_count):
            assert relation_matrix(dual(x), v) == relation_matrix(x, v).transpose()
        assert socle_multiplicities(x) == socle_by_outgoing_rank(x)
    assert hom_dim(m, n) == hom_dim(dual(n), dual(m))



def reference_relation_matrix(m, v):
    """The term-by-term relation sum: a fresh zero, mul, neg and add per arrow out of v."""
    acc = Matrix.zero(m.field, m.dims[v], m.dims[v])
    for a in arrows_out(m.dq, v):
        term = m.mats[m.dq.star[a.aid]].mul(m.mats[a.aid])
        if m.dq.epsilon[a.aid] < 0:
            term = negated(term)
        acc = acc.add(term)
    return acc


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(4), GF(5), QQ]),
    data=st.data(),
)
def test_relation_matrix_matches_the_term_by_term_sum(tag, field, data):
    dq, _ = standard_extended_dynkin(*tag)
    dims = data.draw(st.lists(st.integers(0, 2), min_size=dq.vertex_count, max_size=dq.vertex_count))
    pool = list(field.elements()) if field.is_finite else [field.from_int(k) for k in range(-3, 4)]
    entry = st.sampled_from(pool)
    mats = {
        a.aid: Matrix(
            field,
            dims[a.dst],
            dims[a.src],
            [[data.draw(entry) for _ in range(dims[a.src])] for _ in range(dims[a.dst])],
        )
        for a in dq.arrows
    }
    m = Representation.build(dq, field, dims, mats)
    reference = [reference_relation_matrix(m, v) for v in range(dq.vertex_count)]
    for v in range(dq.vertex_count):
        assert relation_matrix(m, v) == reference[v]
        assert in_map(m, v).cols == out_map(m, v).rows == sum(dims[a.dst] for a in arrows_out(dq, v))
        assert in_map(m, v).mul(out_map(m, v)) == reference[v]
    assert m.check_relations() == [v for v, r in enumerate(reference) if not is_zero(r)]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_the_verdicts_written_for_simples_and_direct_sums_agree_with_the_full_check(field):
    # a vertex simple has no acting arrow, and a direct sum's relation sums are
    # block diagonal; the same blocks in a fresh module, built with no verdict, must agree
    dq, _ = standard_extended_dynkin("D", 4)
    column = Matrix(field, 2, 1, [[field.one()], [field.zero()]])
    broken = Representation.build(
        dq, field, (1, 0, 2, 1, 0),
        {"a1": column, "a3": column, "a1s": Matrix(field, 1, 2, [[field.one(), field.zero()]]),
         "a3s": Matrix(field, 1, 2, [[field.from_int(2), field.zero()]])},
    )
    rng = random.Random(5)
    simples = [Representation.simple(dq, field, v) for v in range(dq.vertex_count)]
    mods = [broken, *simples, *(random_nilpotent(dq, field, rng, steps=k) for k in (1, 3))]
    for m in mods[1:]:
        assert m.check_relations() == []
    for a, b in itertools.product(mods, repeat=2):
        out = a.direct_sum(b)
        fresh = Representation(dq, field, out.dims, dict(out.mats))
        assert out.check_relations() == fresh.check_relations()
    assert broken.check_relations() and broken.direct_sum(broken).check_relations() == broken.check_relations()
    for m in simples:
        assert Representation(dq, field, m.dims, dict(m.mats)).check_relations() == []
