import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppalg.errors import FieldMismatch, ShapeError, UsageError
from ppalg.fields import GF, QQ
from ppalg.linalg import Matrix, back_substitute, forward_pass, hstack_all, null_space
from ppalg.quiver import standard_extended_dynkin
from ppalg.rep import Representation
from reference_linalg import reference_kernel_columns, reference_rref
from relation_maps import is_zero, right_inverse, vstack_all


def ints(field, rows):
    """The matrix of the integer rows, each entry read through ``field.from_int``."""
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, [[field.from_int(x) for x in r] for r in rows])


def minor_rank_oracle(a: Matrix) -> int:
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    f = a.field

    def det(rows, cols):
        if not rows:
            return f.one()
        total = f.zero()
        r = rows[0]
        for pos, c in enumerate(cols):
            x = a.data[r][c]
            if x == f.zero():
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = f.mul(x, sub)
            if pos % 2:
                term = f.neg(term)
            total = f.add(total, term)
        return total

    for k in range(min(a.rows, a.cols), 0, -1):
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                if det(list(rows), list(cols)) != f.zero():
                    return k
    return 0


def kernel(a: Matrix) -> Matrix:
    """The kernel basis ``null_space`` reads off the reduced form of a, as the columns of a matrix."""
    f = a.field
    vectors = null_space(f, *a._reduced(), a.cols)
    return Matrix(f, a.cols, len(vectors), [[v.get(j, f.zero()) for v in vectors] for j in range(a.cols)])


def random_matrix(field, rows, cols, rng):
    if field.is_finite:
        pool = list(field.elements())
        data = [[pool[rng.randrange(len(pool))] for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[field.from_int(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, rows, cols, data)


def test_rank_against_minor_oracle_f5():
    rng = random.Random(5)
    f5 = GF(5)
    for _ in range(50):
        a = random_matrix(f5, 4, 5, rng)
        assert a.rank() == minor_rank_oracle(a)


def test_zero_matrix_decomposition():
    a = Matrix.zero(GF(3), 2, 2)
    assert a.rank() == 0
    assert kernel(a) == Matrix.identity(GF(3), 2)
    assert a.image_basis().cols == 0
    assert kernel(a.transpose()).transpose() == Matrix.identity(GF(3), 2)


def test_rational_kernel_of_rank_one_matrix():
    a = ints(QQ, [[1, 1], [0, 0]])
    assert a.rank() == 1
    assert kernel(a).cols == 1
    x = kernel(a).transpose().data[0]
    # forced by row reduction: free variable set to one
    assert x == (QQ.from_int(-1), QQ.from_int(1))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(4)])
def test_kernel_and_cokernel_annihilate_exactly(field):
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(field, rng.randrange(4), rng.randrange(4), rng)
        rank, ker, coker = a.rank(), kernel(a), kernel(a.transpose()).transpose()
        assert is_zero(a.mul(ker))
        assert is_zero(coker.mul(a))
        assert rank + ker.cols == a.cols
        assert coker.rows == a.rows - rank
        assert a.image_basis().cols == rank


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_rank_equals_transpose_rank(field):
    rng = random.Random(23)
    for _ in range(100):
        a = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        assert a.rank() == a.transpose().rank()


def test_decomposition_deterministic():
    rng = random.Random(3)
    a = random_matrix(GF(5), 4, 6, rng)
    assert kernel(a) == kernel(a)
    assert a.image_basis() == a.image_basis()
    assert kernel(a.transpose()) == kernel(a.transpose())


def test_field_mismatch_and_shape_errors():
    a = Matrix.identity(GF(3), 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(FieldMismatch):
        a.mul(b)
    with pytest.raises(ShapeError):
        a.mul(Matrix.identity(GF(3), 3))
    with pytest.raises(FieldMismatch):
        Matrix(GF(3), 1, 1, [[7]])
    with pytest.raises(ShapeError, match="addition shape mismatch"):
        a.add(Matrix.zero(GF(3), 2, 3))
    with pytest.raises(ShapeError, match="hstack row mismatch"):
        hstack_all(GF(3), 2, [a, Matrix.zero(GF(3), 3, 1)])


def test_empty_matrix_edge_cases():
    f = GF(2)
    a = Matrix.zero(f, 0, 3)
    assert a.rank() == 0
    assert kernel(a) == Matrix.identity(f, 3)
    tall = Matrix.zero(f, 3, 0)
    assert kernel(tall.transpose()).transpose() == Matrix.identity(f, 3)
    assert tall.image_basis().cols == 0


def test_right_inverse():
    f = GF(7)
    a = ints(f, [[1, 2, 3], [0, 1, 4]])
    r = right_inverse(a)
    assert a.mul(r) == Matrix.identity(f, 2)


# -- the fast echelon core against the plain one -----------------------------


ORACLE_FIELDS = [GF(2), GF(3), GF(4), GF(9), QQ]


@st.composite
def matrices(draw, fields=ORACLE_FIELDS, rows=None, max_side=6):
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_side)) if rows is None else rows
    cols = draw(st.integers(0, max_side))
    if field.is_finite:
        entry = st.integers(0, field.order - 1)
    else:
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    # many zeros: sparse rows are where the zero-skip shortcut acts
    entry = st.one_of(st.just(field.zero()), entry)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(field, rows, cols, data)


def all_entries_valid(m: Matrix) -> bool:
    return len(m.data) == m.rows and all(
        len(row) == m.cols and all(m.field.is_element(x) for x in row) for row in m.data
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rref_kernel_and_solve_match_the_reference(data):
    a = data.draw(matrices(), label="a")
    R, pivots = a.rref()
    ref_R, ref_pivots = reference_rref(a)
    assert (R.rows, R.cols, R.data, pivots) == (a.rows, a.cols, ref_R.data, ref_pivots)
    ker = kernel(a)
    assert (ker.rows, ker.cols) == (a.cols, a.cols - len(pivots))
    assert list(ker.transpose().data) == reference_kernel_columns(a)
    assert a.rank() == len(pivots)
    results = [R, ker, a.transpose(), a.image_basis()]
    assert all(all_entries_valid(m) for m in results)


@st.composite
def sparse_systems(draw, field, max_side=24, integral=False):
    """A matrix shaped like a hom system: at least 85% zeros, and over QQ
    numerators and denominators up to 10^6, so that coefficient growth shows
    (with ``integral``, denominators 1, as in the hom and Ext systems)."""
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    count = draw(st.integers(0, len(cells) * 15 // 100))
    numerator = st.integers(1, 10**6) | st.integers(-(10**6), -1)
    if field.is_finite:
        value = st.integers(1, field.order - 1)
    elif integral:
        value = st.builds(Fraction, numerator)
    else:
        value = st.builds(Fraction, numerator, st.integers(1, 10**6))
    data = [[field.zero()] * cols for _ in range(rows)]
    for r, c in draw(st.lists(st.sampled_from(cells), min_size=count, max_size=count, unique=True)) if cells else ():
        data[r][c] = draw(value)
    return Matrix(field, rows, cols, data)


def assert_decompositions_match_the_reference(a: Matrix):
    R, pivots = a.rref()
    ref_R, ref_pivots = reference_rref(a)
    assert (R.rows, R.cols, R.data, pivots) == (ref_R.rows, ref_R.cols, ref_R.data, ref_pivots)
    assert [type(x) for row in R.data for x in row] == [type(x) for row in ref_R.data for x in row]
    nonzero_rows = [{j: x for j, x in enumerate(row) if x} for row in a.data]
    assert tuple(sorted(forward_pass(a.field, nonzero_rows, a.cols))) == ref_pivots
    assert a.rank() == len(ref_pivots)
    ker = kernel(a)
    assert (ker.rows, ker.cols) == (a.cols, a.cols - len(ref_pivots))
    assert list(ker.transpose().data) == reference_kernel_columns(a)
    img = a.image_basis()
    ref_T, ref_T_pivots = reference_rref(a.transpose())
    assert (img.rows, img.cols) == (a.rows, len(ref_T_pivots))
    assert list(img.transpose().data) == list(ref_T.data[: len(ref_T_pivots)])


@pytest.mark.parametrize("field", ORACLE_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_systems_match_the_reference(field, data):
    assert_decompositions_match_the_reference(data.draw(sparse_systems(field), label="a"))


def assert_forward_then_back_is_the_reference(a: Matrix, rows: list[dict]):
    """forward_pass of ``rows``, whose span is the row space of a, then back_substitute, against reference_rref(a)."""
    field = a.field
    ref_R, ref_pivots = reference_rref(a)
    piv = forward_pass(field, rows, a.cols)
    assert tuple(sorted(piv)) == ref_pivots
    tails, pivots = back_substitute(field, piv)
    one = field.one()
    got = [[{p: one, **tail}.get(j, field.zero()) for j in range(a.cols)] for p, tail in zip(pivots, tails)]
    assert pivots == ref_pivots
    assert got == [list(row) for row in ref_R.data[: len(ref_pivots)]]
    assert [type(x) for row in got for x in row] == [type(x) for row in ref_R.data[: len(ref_pivots)] for x in row]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), GF(5), GF(9), QQ], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forward_pass_then_back_substitution_is_the_reference_rref(field, data):
    a = data.draw(sparse_systems(field), label="a")
    assert_forward_then_back_is_the_reference(a, [{j: x for j, x in enumerate(row) if x} for row in a.data])


# GF(7) and GF(2^31 - 1): the residue kernel, whose products reach 2^62 before their one % p
@pytest.mark.parametrize(
    "field, integral",
    [(f, False) for f in ORACLE_FIELDS] + [(GF(7), False), (GF(2**31 - 1), False), (QQ, True)],
    ids=repr,
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forward_pass_is_blind_to_row_order_and_empty_rows(field, integral, data):
    # the echelon pivots and the reduced form are unique, so the order forward_pass takes rows in cannot show
    a = data.draw(sparse_systems(field, integral=integral), label="a")
    rows = [{j: x for j, x in enumerate(row) if x} for row in a.data]
    rows += [{} for _ in range(data.draw(st.integers(0, 4), label="empty rows"))]
    assert_forward_then_back_is_the_reference(a, data.draw(st.permutations(rows), label="rows"))


@pytest.mark.parametrize("field", ORACLE_FIELDS)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (6, 9)])
def test_empty_and_all_zero_matrices_match_the_reference(field, rows, cols):
    assert_decompositions_match_the_reference(Matrix.zero(field, rows, cols))


# -- validation stays at the public boundary ------------------------------------


@pytest.mark.parametrize("make", [
    lambda: Matrix.zero(GF(3), -1, 2),
    lambda: Matrix.zero(GF(3), 2, -1),
    lambda: Matrix.identity(GF(3), -1),
    lambda: Matrix(GF(3), -1, 0, []),
    lambda: Matrix(GF(3), 2, 2, [[1, 2], [1]]),
    lambda: hstack_all(GF(3), -1, []),
    lambda: vstack_all(GF(3), -1, []),
])
def test_negative_or_ragged_shapes_raise_shape_error(make):
    with pytest.raises(ShapeError):
        make()


@pytest.mark.parametrize("field, bad", [(GF(3), 3), (GF(3), -1), (GF(4), 4), (GF(3), True), (GF(5), Fraction(1)), (QQ, 1)])
def test_scale_rejects_a_foreign_scalar(field, bad):
    with pytest.raises(FieldMismatch):
        Matrix.identity(field, 2).scale(bad)


@pytest.mark.parametrize("field, bad", [(GF(3), 5), (GF(4), 7), (GF(2), 1.0), (QQ, 2), (GF(9), "1")])
def test_public_constructors_reject_a_foreign_entry(field, bad):
    with pytest.raises(FieldMismatch):
        Matrix(field, 1, 2, [[field.zero(), bad]])
    with pytest.raises(FieldMismatch):
        Matrix(field, 1, 1, [[bad]])


@pytest.mark.parametrize("field, payload", [
    (GF(3), [["5"]]), (GF(4), [["4"]]), (GF(3), [["x"]]), (QQ, [["1/0"]]),
    (GF(3), [[1.7]]), (GF(3), [[True]]), (QQ, [[0.1]]), (QQ, [[True]]), (QQ, [[1.0]]),
    # a string iterates as characters: it once read as the row [1] or the matrix [[1]]
    (GF(3), ["1"]), (GF(3), "1"), (QQ, ["1"]),
])
def test_from_json_rejects_a_foreign_entry(field, payload):
    # the module boundary turns these into UsageError
    with pytest.raises((FieldMismatch, ValueError, ZeroDivisionError)):
        Matrix.from_json(field, payload, 1, 1)
    quiver = standard_extended_dynkin("A", 1)[0].to_json()
    bad = {"quiver": quiver, "field": field.to_json(), "dims": [1, 1], "mats": {"a1": payload}}
    with pytest.raises(UsageError):
        Representation.from_json(bad)


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_from_json_reads_decimal_strings_and_integers(field):
    assert Matrix.from_json(field, [["2", 1], [0, "0"]], 2, 2) == ints(field, [[2, 1], [0, 0]])


# -- the nonzero entries a matrix keeps for the hom and Ext systems -------------

TRIPLE_FIELDS = [GF(2), GF(3), GF(4), GF(5), QQ]


def assert_entries_are_the_dense_scan(a: Matrix):
    f = a.field
    dense = [(r, c, a.data[r][c]) for r in range(a.rows) for c in range(a.cols) if a.data[r][c] != f.zero()]
    assert list(a.entries) == dense
    assert list(a.negated_entries) == [(r, c, f.neg(x)) for r, c, x in dense]
    assert a.negated_entries == a.scale(f.neg(f.one())).entries
    # a second read returns the triples the first one built
    assert a.entries is a.entries and a.negated_entries is a.negated_entries


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_entries_and_negated_entries_match_a_dense_scan(data):
    a = data.draw(matrices(fields=TRIPLE_FIELDS, max_side=5), label="a")
    assert_entries_are_the_dense_scan(a)
    # a trusted result (Matrix._of) starts with no triples, as the checked constructor does
    assert_entries_are_the_dense_scan(a.transpose())


@pytest.mark.parametrize("field", TRIPLE_FIELDS, ids=repr)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_entries_of_empty_and_zero_matrices_are_empty(field, rows, cols):
    for a in (Matrix.zero(field, rows, cols), Matrix(field, rows, cols, [[field.zero()] * cols] * rows)):
        assert a.entries == () and a.negated_entries == ()
        assert_entries_are_the_dense_scan(a)
