import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppalg.errors import ConnectivityError, LoopError, RangeError, ShapeError, UsageError
from ppalg.quiver import (
    MAX_VERTICES,
    Arrow,
    DimensionVector,
    DoubleQuiver,
    Quiver,
    build_double,
    parse_type,
    standard_extended_dynkin,
)

ALL_TYPES = [("A", 1), ("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]


def test_double_of_single_arrow():
    dq = build_double(Quiver(2, [Arrow("a", 0, 1)]))
    ids = {a.aid for a in dq.arrows}
    assert ids == {"a", "as"}
    assert dq.epsilon["a"] == 1 and dq.epsilon["as"] == -1
    star = next(a for a in dq.arrows if a.aid == "as")
    assert (star.src, star.dst) == (1, 0)


def test_double_refuses_a_star_id_that_is_taken():
    with pytest.raises(RangeError, match="duplicate arrow ids"):
        build_double(Quiver(2, [Arrow("a", 0, 1), Arrow("as", 0, 1)]))
    assert [a.aid for a in build_double(Quiver(2, [Arrow("as", 0, 1)])).arrows] == ["as", "ass"]


def test_star_is_involution_and_swaps_endpoints():
    dq, _ = standard_extended_dynkin("D", 4)
    by_id = {a.aid: a for a in dq.arrows}
    for a in dq.arrows:
        assert dq.star[dq.star[a.aid]] == a.aid
        s = by_id[dq.star[a.aid]]
        assert (s.src, s.dst) == (a.dst, a.src)
        assert dq.epsilon[s.aid] == -dq.epsilon[a.aid]


def test_a2_double_matches_three_cycle():
    dq, d = standard_extended_dynkin("A", 2)
    assert dq.vertex_count == 3
    assert d == DimensionVector([1, 1, 1])
    assert len(dq.arrows) == 6
    base = [(a.src, a.dst) for a in dq.arrows if dq.epsilon[a.aid] == 1]
    assert base == [(0, 1), (1, 2), (2, 0)]


def test_loop_and_disconnected_are_rejected():
    with pytest.raises(LoopError):
        Quiver(2, [Arrow("a", 0, 0)])
    with pytest.raises(ConnectivityError):
        Quiver(3, [Arrow("a", 0, 1)])


def test_relation_terms_at_a2_vertex_zero():
    dq, _ = standard_extended_dynkin("A", 2)
    rels = {r.vertex: r for r in dq.relations}
    # outgoing arrows at 0: the base arrow a1 and the reversed a3
    assert rels[0].terms == ((1, "a1", "a1s"), (-1, "a3s", "a3"))


def test_single_edge_relation():
    dq = build_double(Quiver(2, [Arrow("a", 0, 1)]))
    rels = dq.relations
    assert rels[0].terms == ((1, "a", "as"),)
    assert rels[1].terms == ((-1, "as", "a"),)


def test_relation_count_matches_out_degree():
    dq, _ = standard_extended_dynkin("D", 4)
    rels = {r.vertex: r for r in dq.relations}
    assert len(rels[2].terms) == 4  # center of the star
    for v, r in rels.items():
        assert len(r.terms) == len([a for a in dq.arrows if a.src == v])


def test_every_arrow_in_exactly_two_relations():
    dq, _ = standard_extended_dynkin("E", 6)
    leading = {}
    trailing = {}
    for r in dq.relations:
        for _, first, then in r.terms:
            leading[first] = leading.get(first, 0) + 1
            trailing[then] = trailing.get(then, 0) + 1
    for a in dq.arrows:
        assert leading.get(a.aid, 0) == 1
        assert trailing.get(a.aid, 0) == 1


@pytest.mark.parametrize("tag,n", ALL_TYPES)
def test_imaginary_root_is_killed_by_the_form(tag, n):
    dq, d = standard_extended_dynkin(tag, n)
    for i in range(dq.vertex_count):
        assert dq.bilinear(d, dq.unit(i)) == 0


def test_bilinear_refuses_vectors_of_the_wrong_length():
    # a zip against the Cartan rows would quietly drop entries or rows
    dq, d = standard_extended_dynkin("A", 2)
    for alpha, beta in (((1, 1), d), (d, (1, 1)), (d, (1, 1, 1, 5))):
        with pytest.raises(ShapeError):
            dq.bilinear(alpha, beta)


def reference_bilinear(dq, alpha, beta):
    """The form summed over the arrows of the double, without the Cartan matrix."""
    total = 2 * sum(alpha[i] * beta[i] for i in range(dq.vertex_count))
    for a in dq.arrows:
        total -= alpha[a.src] * beta[a.dst]
    return total


STANDARD_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("tag,n", STANDARD_TYPES)
def test_cartan_matrix_is_symmetric_with_two_on_the_diagonal(tag, n):
    dq, _ = standard_extended_dynkin(tag, n)
    nv = dq.vertex_count
    assert len(dq.cartan) == nv and all(len(row) == nv for row in dq.cartan)
    for i in range(nv):
        assert dq.cartan[i][i] == 2
        assert dq.cartan_row(i) == dq.cartan[i]
        for j in range(nv):
            assert dq.cartan[i][j] == dq.cartan[j][i] == reference_bilinear(dq, dq.unit(i), dq.unit(j))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("tag,n", STANDARD_TYPES)
def test_bilinear_matches_the_arrow_sum(tag, n, data):
    dq, _ = standard_extended_dynkin(tag, n)
    vectors = st.lists(st.integers(-6, 6), min_size=dq.vertex_count, max_size=dq.vertex_count)
    alpha, beta = data.draw(vectors), data.draw(vectors)
    assert dq.bilinear(alpha, beta) == reference_bilinear(dq, alpha, beta)


def test_unit_vectors_are_built_once_and_range_checked():
    dq, _ = standard_extended_dynkin("D", 4)
    for i in range(dq.vertex_count):
        assert dq.unit(i) == DimensionVector.unit(dq.vertex_count, i)
        assert dq.unit(i) is dq.unit(i)
    for i in (-1, dq.vertex_count):
        with pytest.raises(RangeError):
            dq.unit(i)
        with pytest.raises(RangeError):
            dq.cartan_row(i)


def test_dimension_vector_arithmetic_refuses_another_length():
    # both once zipped the shorter length: (1, 2, 3) + (1, 1) gave (2, 3)
    # with a tuple on the left, + once concatenated and - raised TypeError
    long, short = DimensionVector((1, 2, 3)), DimensionVector((1, 1))
    for a, b in [(long, short), (short, long), (tuple(short), long), (tuple(long), short)]:
        with pytest.raises(ShapeError):
            a + b
        with pytest.raises(ShapeError):
            a - b
    assert long + (1, 0, 1) == DimensionVector((2, 2, 4))
    assert long - (1, 0, 1) == DimensionVector((0, 2, 2))
    for got, want in [((1, 0, 1) + long, (2, 2, 4)), ((1, 0, 1) - long, (0, -2, -2))]:
        assert type(got) is DimensionVector and got == want


@pytest.mark.parametrize("entries", [(1.9, 1, 1), (True, 1, 1), (1, "2", 1), (1, 1, None)])
def test_dimension_vector_refuses_an_entry_that_is_not_an_integer(entries):
    # int() once read (1.9, True, "2") as (1, 1, 2)
    with pytest.raises(ShapeError):
        DimensionVector(entries)


@pytest.mark.parametrize("scalar", [1.5, 0.5, "2", True])
def test_dimension_vector_refuses_a_scalar_that_is_not_an_integer(scalar):
    # (1, 2) * 1.5 was once truncated to (1, 3), and (1, 2) * True read as (1, 2)
    with pytest.raises(ShapeError):
        DimensionVector((1, 2)) * scalar
    with pytest.raises(ShapeError):
        scalar * DimensionVector((1, 2))
    assert DimensionVector((1, 2)) * 3 == 3 * DimensionVector((1, 2)) == DimensionVector((3, 6))


def test_standard_dimension_vectors():
    _, d = standard_extended_dynkin("D", 4)
    assert d == DimensionVector([1, 1, 2, 1, 1])
    dq, d8 = standard_extended_dynkin("E", 8)
    trivalent = [v for v in range(dq.vertex_count) if len(dq.base.arrows) and
                 sum(1 for a in dq.base.arrows if v in (a.src, a.dst)) == 3]
    assert [d8[v] for v in trivalent] == [6]
    assert max(d8) == 6


def test_illegal_ranks():
    with pytest.raises(RangeError):
        standard_extended_dynkin("A", 0)
    with pytest.raises(RangeError):
        standard_extended_dynkin("D", 3)
    with pytest.raises(RangeError):
        standard_extended_dynkin("E", 9)


def test_vertex_count_is_capped_before_building():
    with pytest.raises(RangeError):
        Quiver(MAX_VERTICES + 1, [])
    with pytest.raises(RangeError):
        DoubleQuiver.from_json({"vertices": MAX_VERTICES + 1, "arrows": []})
    for tag in "AD":
        with pytest.raises(RangeError):
            standard_extended_dynkin(tag, MAX_VERTICES)
        assert standard_extended_dynkin(tag, MAX_VERTICES - 1)[0].vertex_count == MAX_VERTICES


def test_doubling_preserves_base():
    q = Quiver(3, [Arrow("x", 0, 1), Arrow("y", 1, 2)])
    dq = build_double(q)
    assert dq.base is q
    base_arrows = [a for a in dq.arrows if dq.epsilon[a.aid] == 1]
    assert [(a.aid, a.src, a.dst) for a in base_arrows] == [("x", 0, 1), ("y", 1, 2)]


def test_json_round_trip_and_dot():
    dq, _ = standard_extended_dynkin("A", 2)
    data = json.loads(json.dumps(dq.to_json()))
    again = DoubleQuiver.from_json(data)
    assert again.to_json() == dq.to_json()
    dot = dq.to_dot()
    assert 'a1 (+)' in dot and 'a1s (-)' in dot


def test_parse_type_variants():
    assert parse_type("A2") == ("A", 2)
    assert parse_type("Ã2") == ("A", 2)  # A with tilde
    assert parse_type("d4") == ("D", 4)
    # decoration around the letter and the number is dropped
    assert parse_type("A 2") == parse_type("A_2") == parse_type(" ~A2 ") == ("A", 2)
    assert parse_type("Ẽ6") == ("E", 6)
    # anything but decoration is refused; the first five once read as other quivers, A2.5 as Ã25
    for text in ["A2.5", "A1,2", "D4-5", "E(6)", "A1 2", "A1_2", "A٢", "A²", "Ａ2", "A", "", "Z3", "A" + "9" * 5000]:
        with pytest.raises(RangeError):
            parse_type(text)


def test_standard_quivers_keep_their_bytes():
    # vertex numbering, arrow ids and arrow order of every standard quiver, with its imaginary root
    digest = hashlib.sha256()
    for tag, ns in (("A", range(1, 9)), ("D", range(4, 10)), ("E", range(6, 9))):
        for n in ns:
            dq, d = standard_extended_dynkin(tag, n)
            digest.update((json.dumps({**dq.to_json(), "d": list(d)}, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == "ca8d667744ad1453b8d160ed430c6ec6bae8b2eaf864ba4aede2c9e3ce84ef38"


def test_from_json_rejects_inconsistent_star_data():
    dq, _ = standard_extended_dynkin("A", 2)
    data = dq.to_json()
    data["arrows"][3]["dst"] = 2  # break the doubled copy of a1
    with pytest.raises(RangeError):
        DoubleQuiver.from_json(data)


def _a2_with(edit):
    data = standard_extended_dynkin("A", 2)[0].to_json()
    edit(data)
    return data


MALFORMED_QUIVERS = {
    "not an object": [],
    "null": None,
    "missing vertices": {"arrows": []},
    "missing arrows": {"vertices": 3},
    "vertices as string": {"vertices": "3", "arrows": []},
    "vertices as bool": {"vertices": True, "arrows": []},
    "vertices as float": {"vertices": 3.0, "arrows": []},
    "arrows not a list": {"vertices": 3, "arrows": 7},
    "arrow not an object": _a2_with(lambda d: d["arrows"].__setitem__(0, ["a0", 0, 1])),
    "arrow without dst": _a2_with(lambda d: d["arrows"][0].pop("dst")),
    "arrow without id": _a2_with(lambda d: d["arrows"][4].pop("id")),
    "id not a string": _a2_with(lambda d: d["arrows"][0].__setitem__("id", 0)),
    "src as string": _a2_with(lambda d: d["arrows"][1].__setitem__("src", "1")),
    "dst as float": _a2_with(lambda d: d["arrows"][3].__setitem__("dst", 1.0)),
    "src as list": _a2_with(lambda d: d["arrows"][2].__setitem__("src", [1])),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_QUIVERS))
def test_from_json_raises_usage_error_for_malformed_payloads(name):
    with pytest.raises(UsageError):
        DoubleQuiver.from_json(MALFORMED_QUIVERS[name])


@pytest.mark.parametrize("vertices", [0, -2, 2])
def test_from_json_keeps_range_errors_for_bad_values(vertices):
    # well-typed but impossible: no vertex, or an endpoint past the last vertex
    with pytest.raises(RangeError):
        DoubleQuiver.from_json(_a2_with(lambda d: d.__setitem__("vertices", vertices)))
