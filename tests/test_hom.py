import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppalg.rep as rep_module
import ppalg.stability as stability_module
from ppalg import hom, linalg
from ppalg.errors import CocycleError, FieldMismatch, PreconditionViolated, ShapeError
from ppalg.fields import GF, QQ
from ppalg.hom import (
    _delta2,
    bilinear_form,
    ext1_dim_via_complex,
    ext1_space,
    extension_from_cocycle,
    extension_splits,
    retraction_exists,
)
from ppalg.linalg import Matrix, hstack_all
from ppalg.quiver import Arrow, DoubleQuiver, Quiver, build_double, standard_extended_dynkin
from ppalg.rep import (
    Representation,
    block_module,
    combination,
    hom_basis,
    hom_dim,
    hom_system,
    morphism_is_injective,
    quotient_by_map,
)
from ppalg.stability import enumerate_thin_reps
from ppalg.verify import random_nilpotent
from reference_linalg import reference_kernel, reference_kernel_columns, reference_rref, reference_solve
from relation_maps import is_zero, negated, vstack_all


def a2(field):
    dq, d = standard_extended_dynkin("A", 2)
    return dq, d, field


def curve_member(dq, field, d, a, b):
    mats = {
        "a1": Matrix(field, 1, 1, [[a]]),
        "a3s": Matrix(field, 1, 1, [[field.one()]]),
        "a2s": Matrix(field, 1, 1, [[b]]),
    }
    return Representation.build(dq, field, d, mats)


def test_form_values_on_units():
    dq, d, _ = a2(GF(2))
    assert bilinear_form(dq, dq.unit(1), dq.unit(1)) == 2
    assert bilinear_form(dq, dq.unit(0), dq.unit(1)) == -1
    for i in range(3):
        assert bilinear_form(dq, d, dq.unit(i)) == 0


def test_form_symmetric_and_bilinear():
    dq, _ = standard_extended_dynkin("D", 4)
    rng = random.Random(2)
    for _ in range(50):
        x = [rng.randint(-3, 3) for _ in range(5)]
        y = [rng.randint(-3, 3) for _ in range(5)]
        z = [rng.randint(-3, 3) for _ in range(5)]
        assert bilinear_form(dq, x, y) == bilinear_form(dq, y, x)
        xz = [a + b for a, b in zip(x, z)]
        assert bilinear_form(dq, xz, y) == bilinear_form(dq, x, y) + bilinear_form(dq, z, y)


def test_hom_dimensions_of_simples():
    dq, d, f = a2(GF(3))
    s0 = Representation.simple(dq, f, 0)
    s1 = Representation.simple(dq, f, 1)
    s2 = Representation.simple(dq, f, 2)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s0, s1) == 0
    # vertex i's torsion classes hold M with no S_i in its top, or none in its socle:
    # S1 lies in neither for vertex 1 and in both for vertex 2
    assert hom_dim(s1, s2) == 0 and hom_dim(s2, s1) == 0


def test_hom_and_ext_refuse_pairs_that_do_not_match():
    dq, d, f = a2(GF(2))
    # the same arrow ids with every base arrow reversed
    reversed_cycle = build_double(Quiver(3, [Arrow("a1", 1, 0), Arrow("a2", 2, 1), Arrow("a3", 0, 2)]))
    entries = (hom_dim, hom_basis, ext1_dim_via_complex, ext1_space, lambda m, n: extension_from_cocycle(m, n, {}))
    cases = [
        (FieldMismatch, "mixed fields", Representation.simple(dq, f, 1), Representation.simple(dq, GF(3), 1)),
        (
            ShapeError,
            "different quivers",
            Representation.simple(dq, f, 1),
            Representation.simple(standard_extended_dynkin("D", 4)[0], f, 1),
        ),
        # equal dims and zero matrices: only the quiver check tells these apart
        (ShapeError, "different quivers", Representation.build(dq, f, d), Representation.build(reversed_cycle, f, d)),
    ]
    for error, message, m, other in cases:
        for pair in ((m, other), (other, m)):
            for entry in entries:
                with pytest.raises(error, match=message):
                    entry(*pair)


def test_hom_accepts_a_quiver_read_back_from_json():
    dq, d, f = a2(GF(2))
    m = curve_member(dq, f, d, f.one(), f.zero())
    copy = Representation.from_json(m.to_json())
    assert copy.dq is not m.dq
    assert hom_dim(m, copy) == hom_dim(m, m) and ext1_space(copy, m).dim == ext1_space(m, m).dim


def test_hom_from_vertex_simple_into_curve_members():
    dq, d, f = a2(GF(3))
    s1 = Representation.simple(dq, f, 1)
    reps = [curve_member(dq, f, d, a, f.one()) for a in f.elements()]
    reps.append(curve_member(dq, f, d, f.one(), f.zero()))
    for m in reps:
        assert hom_dim(s1, m) == 1


def test_ext_dimensions_between_simples():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    s2 = Representation.simple(dq, f, 2)
    assert ext1_space(s1, s1).dim == 0
    assert ext1_space(s1, s2).dim == 1
    # independent reading straight off the complex
    assert ext1_dim_via_complex(s1, s2) == 1


def test_self_extensions_of_simples_vanish_on_star_shape():
    dq, _ = standard_extended_dynkin("D", 4)
    f = GF(2)
    for i in range(5):
        s = Representation.simple(dq, f, i)
        assert ext1_space(s, s).dim == 0


def test_hom_and_ext_spaces_serialize():
    import json

    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    s2 = Representation.simple(dq, f, 2)
    assert hom_dim(s1, s1) == 1
    es = ext1_space(s1, s2)
    basis = [{aid: mat.to_json() for aid, mat in sorted(phi.items())} for phi in es.cocycle_basis]
    payload = json.loads(json.dumps({"dim": es.dim, "cocycle_basis": basis}))
    assert payload["dim"] == 1 and len(payload["cocycle_basis"]) == 1


def test_ext_from_curve_member_to_socle_simple():
    dq, d, f = a2(GF(3))
    s1 = Representation.simple(dq, f, 1)
    m = curve_member(dq, f, d, f.one(), f.zero())
    assert ext1_space(m, s1).dim == 1


def dense(field, system):
    """The Matrix of a sparse system: its ``{column: coefficient}`` rows and column count first."""
    rows, cols = system[:2]
    return Matrix(field, len(rows), cols, [[row.get(j, field.zero()) for j in range(cols)] for row in rows])


def column(field, entries):
    """The entries as a one-column matrix."""
    return Matrix(field, len(entries), 1, [[x] for x in entries])


def test_complex_composes_to_zero():
    dq, d, f = a2(GF(3))
    rng = random.Random(9)
    mods = [random_nilpotent(dq, f, rng, steps=2) for _ in range(6)]
    for m, n in itertools.product(mods, mods):
        d1, d2 = dense(f, hom_system(m, n)), dense(f, _delta2(m, n))
        assert is_zero(d2.mul(d1))


@pytest.mark.parametrize("tag,n,seed", [("A", 2, 5), ("D", 4, 6)])
def test_form_identity_on_random_nilpotent_pairs(tag, n, seed):
    dq, _ = standard_extended_dynkin(tag, n)
    f = GF(3)
    rng = random.Random(seed)
    mods = [random_nilpotent(dq, f, rng, steps=rng.randrange(1, 4)) for _ in range(8)]
    for m, x in itertools.product(mods, mods):
        ext = ext1_dim_via_complex(m, x)
        assert bilinear_form(dq, m.dims, x.dims) == hom_dim(m, x) - ext + hom_dim(x, m)
        assert ext == ext1_dim_via_complex(x, m)


def test_zero_cocycle_gives_split_extension():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    m = curve_member(dq, f, d, f.one(), f.one())
    e = extension_from_cocycle(m, s1, {})
    assert e.dims == s1.dims + m.dims
    assert extension_splits(m, s1, e)
    from ppalg.rep import is_isomorphic

    assert is_isomorphic(e, s1.direct_sum(m))


def test_nonzero_cocycle_gives_nonsplit_extension():
    dq, d, f = a2(GF(3))
    s1 = Representation.simple(dq, f, 1)
    m = curve_member(dq, f, d, f.one(), f.zero())
    ext = ext1_space(m, s1)
    assert ext.dim == 1
    e = extension_from_cocycle(m, s1, ext.cocycle_basis[0])
    assert tuple(e.dims) == (1, 2, 1)
    assert e.check_relations() == []
    assert not extension_splits(m, s1, e)


def test_bad_cocycle_is_rejected():
    dq, d, f = a2(GF(2))
    m = curve_member(dq, f, d, f.one(), f.one())
    shapes = {a.aid: (m.dims[a.dst], m.dims[a.src]) for a in dq.arrows}
    d2 = dense(f, _delta2(m, m))
    bad = None
    for aid, (r, c) in shapes.items():
        candidate = {aid: Matrix(f, r, c, [[f.one()] * c for _ in range(r)])}
        blocks = [candidate.get(k, Matrix.zero(f, *shape)) for k, shape in shapes.items()]
        flat = [x for blk in blocks for row in blk.data for x in row]
        if not is_zero(d2.mul(column(f, flat))):
            bad = candidate
            break
    assert bad is not None
    with pytest.raises(CocycleError):
        extension_from_cocycle(m, m, bad)


def test_a_cocycle_key_that_is_not_an_arrow_is_refused():
    dq, d, f = a2(GF(3))
    s1, s2 = Representation.simple(dq, f, 1), Representation.simple(dq, f, 2)
    # the corner "zz" would fit every arrow between S1 and S2, and is no arrow at all
    with pytest.raises(ShapeError, match="zz is not an arrow"):
        extension_from_cocycle(s1, s2, {"zz": Matrix.identity(f, 1)})


def test_zero_generated_modules_lie_in_every_nonextending_torsion_class():
    dq, d, f = a2(GF(2))
    for m in enumerate_thin_reps(dq, d, f):
        if m.is_zero_generated():
            for i in (1, 2):
                assert hom_dim(m, Representation.simple(dq, f, i)) == 0


def test_retraction_detects_split_submodules():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    s2 = Representation.simple(dq, f, 2)
    both = s1.direct_sum(s2)
    inj = hom_basis(s1, both)[0]
    assert retraction_exists(s1, both, inj)
    m = curve_member(dq, f, d, f.one(), f.zero())
    embed = hom_basis(s1, m)[0]
    assert not retraction_exists(s1, m, embed)


def test_hom_and_ext_over_rationals():
    dq, d, _ = a2(QQ)
    s1 = Representation.simple(dq, QQ, 1)
    s2 = Representation.simple(dq, QQ, 2)
    assert hom_dim(s1, s2) == 0
    assert ext1_space(s1, s2).dim == 1


def greedy_cocycle_choice(m, n):
    """Reference complement choice: keep each reference kernel column of d2 that grows the rank."""
    d1, d2 = dense(m.field, hom_system(m, n)), dense(m.field, _delta2(m, n))
    chosen = []
    acc = d1.image_basis()
    for vector in reference_kernel_columns(d2):
        grown = hstack_all(m.field, acc.rows, (acc, column(m.field, vector)))
        if grown.rank() > acc.rank():
            chosen.append(vector)
            acc = grown
    return chosen


@settings(max_examples=25, deadline=None)
@given(
    tag=st.sampled_from([("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
def test_cocycle_basis_matches_greedy_rank_growth(tag, field, seed, steps):
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    flattened = [
        tuple(x for a in dq.arrows for row in phi[a.aid].data for x in row)
        for phi in ext1_space(m, n).cocycle_basis
    ]
    assert flattened == greedy_cocycle_choice(m, n)


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 3)]),
    field=st.sampled_from([GF(2), GF(3), GF(5), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_cocycle_basis_matches_greedy_rank_growth_on_more_quivers_and_fields(tag, field, seed, steps):
    # the cases the test above does not draw: A1 and A3, GF(5), and no steps
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    space = ext1_space(m, n)
    flattened = [tuple(x for a in dq.arrows for row in phi[a.aid].data for x in row) for phi in space.cocycle_basis]
    assert flattened == greedy_cocycle_choice(m, n)
    assert space.dim == len(flattened)


def d4_broken_at_0_and_3():
    dq, _ = standard_extended_dynkin("D", 4)
    f = GF(3)
    column = Matrix(f, 2, 1, [[1], [0]])
    mats = {"a1": column, "a3": column, "a1s": Matrix(f, 1, 2, [[1, 0]]), "a3s": Matrix(f, 1, 2, [[2, 0]])}
    return Representation.build(dq, f, (1, 0, 2, 1, 0), mats)


def test_ext_refuses_a_module_that_fails_its_relations():
    # the cocycle choice reads im d1 inside ker d2, which needs d2 . d1 = 0
    broken = d4_broken_at_0_and_3()
    assert broken.check_relations() == [0, 3]
    simple = Representation.simple(broken.dq, broken.field, 2)
    for m, n, name in ((broken, simple, "m"), (simple, broken, "n"), (broken, broken, "m")):
        with pytest.raises(PreconditionViolated, match=rf"^{name} fails the preprojective relations at vertices \[0, 3\]$"):
            ext1_space(m, n)


def test_reading_the_ext_dimension_back_substitutes_nothing(monkeypatch):
    calls = []
    back = hom.back_substitute

    def counted(*args):
        calls.append(args)
        return back(*args)

    dq, _ = standard_extended_dynkin("D", 4)
    rng = random.Random(3)
    m, n = (random_nilpotent(dq, GF(3), rng, steps=k) for k in (3, 4))
    # every back substitution, whether through hom's binding or linalg's
    monkeypatch.setattr(hom, "back_substitute", counted)
    monkeypatch.setattr(linalg, "back_substitute", counted)
    space = ext1_space(m, n)
    assert space.dim > 0 and calls == []
    basis = space.cocycle_basis
    assert len(basis) == space.dim and len(calls) == 1
    assert space.cocycle_basis is basis and len(calls) == 1


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_pivot_only_readers_never_back_substitute(monkeypatch, field):
    calls = []
    back = linalg.back_substitute

    def counted(*args):
        calls.append(args)
        return back(*args)

    dq, _ = standard_extended_dynkin("D", 4)
    rng = random.Random(5)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in (3, 4))
    identity = {v: Matrix.identity(field, d) for v, d in enumerate(m.dims)}
    for module in (linalg, rep_module, hom, stability_module):
        monkeypatch.setattr(module, "back_substitute", counted)
    readers = {
        "Matrix.rank": lambda: m.mats["a1"].rank(),
        "hom_dim": lambda: hom_dim(m, n),
        "ext1_dim_via_complex": lambda: ext1_dim_via_complex(m, n),
        "retraction_exists": lambda: retraction_exists(m, m, identity),
        "ext1_space(...).dim": lambda: ext1_space(m, n).dim,
    }
    for name, read in readers.items():
        read()
        assert calls == [], name
    assert len(hom_basis(m, n)) == hom_dim(m, n) and len(calls) == 1


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), QQ], ids=repr)
def test_building_the_cocycle_basis_twice_gives_equal_tuples(field):
    # the kept forward rows of d2 are not consumed by the back substitution
    dq, _ = standard_extended_dynkin("D", 4)
    rng = random.Random(11)
    mods = [random_nilpotent(dq, field, rng, steps=k) for k in (1, 3, 5)]
    for m, n in itertools.product(mods, mods):
        space = ext1_space(m, n)
        first, second = space.build_basis(), space.build_basis()
        assert first == second and len(first) == space.dim
        assert first == space.cocycle_basis


def section_exists(m, n, e):
    """Reference split test: the affine intertwining system for a section of e -> m.

    A section is a map m -> e whose bottom block is the identity at every vertex.
    """
    f = m.field
    dq = m.dq
    basis = hom_basis(m, e)
    if not basis:
        return all(d == 0 for d in m.dims)
    # projection constraint: bottom block of each vertex map equals identity
    cols = len(basis)
    rows = []
    rhs = []
    for v in range(dq.vertex_count):
        nv = n.dims[v]
        for r in range(m.dims[v]):
            for c in range(m.dims[v]):
                rows.append([phi[v].data[nv + r][c] for phi in basis])
                rhs.append(f.one() if r == c else f.zero())
    sys = Matrix(f, len(rows), cols, rows)
    return reference_solve(sys, column(f, rhs)) is not None


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from([("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    zero_cocycle=st.booleans(),
)
def test_extension_splits_agrees_with_the_section_system(tag, field, seed, steps, zero_cocycle):
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    basis = ext1_space(m, n).cocycle_basis
    pool = list(field.elements()) if field.is_finite else [field.from_int(k) for k in range(-3, 4)]
    coeffs = [rng.choice(pool) for _ in basis]
    if zero_cocycle or not any(c != field.zero() for c in coeffs):
        cocycle = {}
    else:
        cocycle = combination(field, basis, coeffs)
    e = extension_from_cocycle(m, n, cocycle)
    verdict = extension_splits(m, n, e)
    assert verdict == section_exists(m, n, e)
    # the chosen cocycles are independent of the coboundaries, so only the
    # zero class splits
    assert verdict == (cocycle == {})
    # the same class with a random coboundary added, phi_a + f_dst m_a - n_a f_src:
    # the corner is nonzero in general, and the verdict must not move
    f = {v: Matrix(field, n.dims[v], d, [[rng.choice(pool) for _ in range(d)] for _ in range(n.dims[v])])
         for v, d in enumerate(m.dims)}
    shifted = {}
    for a in dq.arrows:
        phi = cocycle.get(a.aid, Matrix.zero(field, n.dims[a.dst], m.dims[a.src]))
        shifted[a.aid] = phi.add(f[a.dst].mul(m.mats[a.aid])).add(negated(n.mats[a.aid].mul(f[a.src])))
    e = extension_from_cocycle(m, n, shifted)
    assert extension_splits(m, n, e) == section_exists(m, n, e) == verdict


def reference_hom_system(m, n):
    """The entry-by-entry d1 builder: one dense row per equation entry, accumulated."""
    f = m.field
    z = f.zero()
    offsets = []
    total = 0
    for v in range(m.dq.vertex_count):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def var(v, r, c):
        return offsets[v] + r * m.dims[v] + c

    rows = []
    for a in m.dq.arrows:
        s, t = a.src, a.dst
        na, ma = n.mats[a.aid], m.mats[a.aid]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [z] * total
                for k in range(n.dims[s]):
                    row[var(s, k, c)] = f.add(row[var(s, k, c)], na.data[r][k])
                for k in range(m.dims[t]):
                    row[var(t, r, k)] = f.sub(row[var(t, r, k)], ma.data[k][c])
                rows.append(row)
    shapes = [(v, n.dims[v], m.dims[v]) for v in range(m.dq.vertex_count)]
    return Matrix(f, len(rows), total, rows), shapes


def reference_delta2(m, n):
    """The entry-by-entry d2 builder: arrow offsets, one dense row per relation entry."""
    f = m.field
    z = f.zero()
    dq = m.dq
    a_off = {}
    total_a = 0
    for a in dq.arrows:
        a_off[a.aid] = total_a
        total_a += n.dims[a.dst] * m.dims[a.src]
    rows = []
    for rel in dq.relations:
        v = rel.vertex
        for r in range(n.dims[v]):
            for c in range(m.dims[v]):
                row = [z] * total_a
                for sign, aid, sid in rel.terms:
                    na_star = n.mats[sid]
                    ma = m.mats[aid]
                    for k in range(na_star.cols):
                        coeff = na_star.data[r][k]
                        if coeff == z:
                            continue
                        if sign < 0:
                            coeff = f.neg(coeff)
                        idx = a_off[aid] + k * m.dims[v] + c
                        row[idx] = f.add(row[idx], coeff)
                    for k in range(ma.rows):
                        coeff = ma.data[k][c]
                        if coeff == z:
                            continue
                        if sign < 0:
                            coeff = f.neg(coeff)
                        idx = a_off[sid] + r * ma.rows + k
                        row[idx] = f.add(row[idx], coeff)
                rows.append(row)
    shapes = [(a.aid, n.dims[a.dst], m.dims[a.src]) for a in dq.arrows]
    return Matrix(f, len(rows), total_a, rows), shapes


def draw_dims(data, dq):
    return data.draw(st.lists(st.integers(0, 2), min_size=dq.vertex_count, max_size=dq.vertex_count))


def draw_random_matrices(data, dq, field, dims=None):
    """A quiver's worth of random arrow matrices, on drawn dims unless given: relations mostly fail, so no entry is forced to zero."""
    dims = draw_dims(data, dq) if dims is None else dims
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
    return Representation.build(dq, field, dims, mats)


@settings(max_examples=80, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(4), GF(5), QQ]),
    data=st.data(),
)
def test_differentials_match_the_entrywise_builders(tag, field, data):
    dq, _ = standard_extended_dynkin(*tag)
    m, n = (draw_random_matrices(data, dq, field) for _ in range(2))
    assert_differentials_match_the_reference(m, n)


def assert_differentials_match_the_reference(m, n):
    field = m.field
    for system, shapes, (want, want_shapes) in (
        (hom_system(m, n), rep_module._vertex_blocks(m.dq, m.dims, n.dims), reference_hom_system(m, n)),
        (_delta2(m, n), rep_module._arrow_blocks(m.dq, m.dims, n.dims), reference_delta2(m, n)),
    ):
        rows, _ = system
        assert all(all(row.values()) for row in rows)  # no zero coefficient is stored
        got = dense(field, system)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data == want.data
        assert [type(x) for row in got.data for x in row] == [type(x) for row in want.data for x in row]
        assert shapes == want_shapes


@pytest.mark.parametrize("tag", [("A", 2), ("D", 4)])
@pytest.mark.parametrize("field", [GF(3), QQ], ids=["GF3", "QQ"])
def test_differentials_on_empty_blocks_match_the_entrywise_builders(tag, field):
    # between vertex simples and the zero module most equation and unknown
    # blocks are empty, and system_plan leaves their terms out of the plan
    dq, _ = standard_extended_dynkin(*tag)
    mods = [Representation.simple(dq, field, v) for v in range(dq.vertex_count)]
    mods.append(Representation.build(dq, field, [0] * dq.vertex_count))
    for m, n in itertools.product(mods, repeat=2):
        assert_differentials_match_the_reference(m, n)


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from([("A", 2), ("D", 4)]), data=st.data())
def test_plans_on_one_dims_pair_answer_as_the_reference(tag, data):
    # many modules on one dims pair, over GF(2) and GF(4), whose entry codes
    # coincide, and QQ, on two equal quivers built apart: they share plans,
    # so from the second system on every plan is read from the memo
    quivers = [standard_extended_dynkin(*tag)[0] for _ in range(2)]
    m_dims, n_dims = draw_dims(data, quivers[0]), draw_dims(data, quivers[0])
    for _ in range(4):
        dq = data.draw(st.sampled_from(quivers))
        field = data.draw(st.sampled_from([GF(2), GF(4), QQ]))
        m, n = draw_random_matrices(data, dq, field, m_dims), draw_random_matrices(data, dq, field, n_dims)
        assert_differentials_match_the_reference(m, n)
        target = m.direct_sum(n)
        pool = list(field.elements()) if field.is_finite else [field.from_int(k) for k in range(-2, 3)]
        for inj in (
            {v: vstack_all(field, d, (Matrix.identity(field, d), Matrix.zero(field, n.dims[v], d))) for v, d in enumerate(m.dims)},
            {v: Matrix(field, t, d, [[data.draw(st.sampled_from(pool)) for _ in range(d)] for _ in range(t)])
             for v, (d, t) in enumerate(zip(m.dims, target.dims))},
        ):
            assert retraction_exists(m, target, inj) == reference_retraction_exists(m, target, inj)
    info = rep_module.system_plan.cache_info()
    assert info.currsize <= info.maxsize == rep_module.PLAN_MEMO


def random_module(dq, field, dims, rng):
    """A module on the given dims with random arrow blocks; its relations may fail."""
    pool = list(field.elements())
    mats = {
        a.aid: Matrix(field, dims[a.dst], dims[a.src], [[rng.choice(pool) for _ in range(dims[a.src])] for _ in range(dims[a.dst])])
        for a in dq.arrows
    }
    return Representation.build(dq, field, dims, mats)


def test_a_dims_pair_compiles_its_plans_on_its_first_request_only(monkeypatch):
    # a plan is compiled on its first request, and every later system on the
    # same dims pair reads it from the memo
    compiled = collections.Counter()
    for module, name in ((rep_module, "_hom_layout"), (hom, "_delta2_layout"), (hom, "_retraction_layout")):
        def counted(dq, m_dims, n_dims, layout=getattr(module, name), name=name):
            compiled[name] += 1
            return layout(dq, m_dims, n_dims)

        monkeypatch.setattr(module, name, counted)
    rep_module.system_plan.cache_clear()
    dq, _ = standard_extended_dynkin("D", 4)
    f, rng = GF(3), random.Random(43)
    dims_m, dims_n = (1, 0, 2, 1, 0), (0, 1, 1, 1, 1)
    for _ in range(5):
        m, n = random_module(dq, f, dims_m, rng), random_module(dq, f, dims_n, rng)
        hom_dim(m, n)
        _delta2(m, n)
        target = m.direct_sum(n)
        retraction_exists(m, target, {v: Matrix.zero(f, t, d) for v, (d, t) in enumerate(zip(m.dims, target.dims))})
        # d1 on (m, n) and on (m + n, m), d2 on (m, n), the retraction block on (m, m + n)
        assert compiled == {"_hom_layout": 2, "_delta2_layout": 1, "_retraction_layout": 1}
    assert rep_module.system_plan.cache_info().misses == 4


def test_the_plan_memo_stays_within_its_bound():
    assert rep_module.system_plan.cache_info().maxsize == rep_module.PLAN_MEMO
    rep_module.system_plan.cache_clear()
    dq, _ = standard_extended_dynkin("A", 2)
    pairs = list(itertools.product(itertools.product(range(3), repeat=3), repeat=2))
    layouts = (rep_module._hom_layout, hom._delta2_layout)
    assert len(pairs) * len(layouts) > rep_module.PLAN_MEMO
    for m_dims, n_dims in pairs:
        for layout in layouts:
            rep_module.system_plan(dq, layout, m_dims, n_dims)
    info = rep_module.system_plan.cache_info()
    assert (info.misses, info.currsize) == (len(pairs) * len(layouts), rep_module.PLAN_MEMO)
    # plans dropped by the sweep and compiled again, or read from the memo, answer as the reference
    f, rng = GF(5), random.Random(4)
    for dims in itertools.product(range(3), repeat=3):
        m, n = random_module(dq, f, dims, rng), random_module(dq, f, (1, 2, 1), rng)
        for _ in range(2):
            assert_differentials_match_the_reference(m, n)
            assert rep_module.system_plan.cache_info().currsize <= rep_module.PLAN_MEMO


def rebuilt(dq, swap=False, reverse=False):
    """The double of dq's base arrows, with the first two swapped in order or the first one reversed."""
    arrows = list(dq.base.arrows)
    if swap:
        arrows[:2] = arrows[1::-1]
    if reverse:
        arrows[0] = Arrow(arrows[0].aid, arrows[0].dst, arrows[0].src)
    return build_double(Quiver(dq.vertex_count, arrows))


@pytest.mark.parametrize(
    "tag",
    [("A", n) for n in range(1, 5)] + [("D", n) for n in range(4, 7)] + [("E", n) for n in range(6, 9)],
    ids=lambda tag: f"{tag[0]}{tag[1]}",
)
def test_equal_quivers_share_plans_and_unequal_ones_compile_their_own(tag):
    # equality is that of to_json(), and equal quivers hash equal; a copy with
    # two base arrows swapped in order or one reversed is another quiver
    dq, delta = standard_extended_dynkin(*tag)
    quivers = [dq, standard_extended_dynkin(*tag)[0], DoubleQuiver.from_json(dq.to_json()), rebuilt(dq, swap=True), rebuilt(dq, reverse=True)]
    for p, q in itertools.product(quivers, repeat=2):
        assert (p == q) == (p.to_json() == q.to_json())
        assert p != q or hash(p) == hash(q)
    assert [q == dq for q in quivers] == [True, True, True, False, False]
    assert quivers[3] != quivers[4]
    # d1 on (m, n) and on (m + n, m), d2 on (m, n) and the retraction block on
    # (m, m + n): the three equal quivers compile those four plans once
    rep_module.system_plan.cache_clear()
    f, rng = GF(3), random.Random(44)
    misses = []
    for q in quivers:
        m, n = random_module(q, f, delta, rng), random_module(q, f, (1,) * q.vertex_count, rng)
        assert_differentials_match_the_reference(m, n)
        target = m.direct_sum(n)
        for inj in (
            {v: vstack_all(f, d, (Matrix.identity(f, d), Matrix.zero(f, n.dims[v], d))) for v, d in enumerate(m.dims)},
            {v: Matrix(f, t, d, [[rng.choice(list(f.elements())) for _ in range(d)] for _ in range(t)])
             for v, (d, t) in enumerate(zip(m.dims, target.dims))},
        ):
            assert retraction_exists(m, target, inj) == reference_retraction_exists(m, target, inj)
        misses.append(rep_module.system_plan.cache_info().misses)
    assert misses == [4, 4, 4, 8, 12]


def reference_rank(a):
    return len(reference_rref(a)[1])


def reference_retraction_exists(s, n, inj):
    """The affine retraction system built entry by entry: the reference d1 for maps n -> s,
    psi_v . inj_v = identity below it, the identity in a last column; solvable when it holds no pivot."""
    f = s.field
    d1, shapes = reference_hom_system(n, s)
    offsets = {v: sum(r * c for _, r, c in shapes[:v]) for v, _, _ in shapes}
    rows = [list(row) + [f.zero()] for row in d1.data]
    for v, d in enumerate(s.dims):
        for r in range(d):
            for c in range(d):
                row = [f.zero()] * (d1.cols + 1)
                for k in range(n.dims[v]):
                    row[offsets[v] + r * n.dims[v] + k] = inj[v].data[k][c]
                row[-1] = f.one() if r == c else f.zero()
                rows.append(row)
    aug = Matrix(f, len(rows), d1.cols + 1, rows)
    return d1.cols not in reference_rref(aug)[1]


def flat(phi, shapes):
    """A family of matrices laid out flat in the order of its (key, rows, cols) shapes."""
    return tuple(x for key, _, _ in shapes for row in phi[key].data for x in row)


def draw_module(data, dq, field):
    """A nilpotent module, the zero module or a vertex simple: systems with no unknowns or no equations occur."""
    kind = data.draw(st.sampled_from(["nilpotent", "zero", "simple"]))
    if kind == "zero":
        return Representation.build(dq, field, [0] * dq.vertex_count)
    if kind == "simple":
        return Representation.simple(dq, field, data.draw(st.integers(0, dq.vertex_count - 1)))
    return random_nilpotent(dq, field, random.Random(data.draw(st.integers(0, 2**16))), steps=data.draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), GF(5), QQ]),
    data=st.data(),
)
def test_sparse_systems_answer_as_the_reference_rref(tag, field, data):
    dq, _ = standard_extended_dynkin(*tag)
    m, n = draw_module(data, dq, field), draw_module(data, dq, field)
    d1, shapes = reference_hom_system(m, n)
    d2, arrow_shapes = reference_delta2(m, n)
    assert hom_dim(m, n) == d1.cols - reference_rank(d1)
    assert [flat(phi, shapes) for phi in hom_basis(m, n)] == reference_kernel_columns(d1)
    assert ext1_dim_via_complex(m, n) == (d2.cols - reference_rank(d2)) - reference_rank(d1)
    # the cocycles are the kernel columns of d2 that are pivots of [d1 | ker d2]
    ker = reference_kernel_columns(d2)
    stacked = Matrix(field, d1.rows, d1.cols + len(ker), [row + tuple(v[i] for v in ker) for i, row in enumerate(d1.data)])
    chosen = [ker[j - d1.cols] for j in reference_rref(stacked)[1] if j >= d1.cols]
    space = ext1_space(m, n)
    assert [flat(phi, arrow_shapes) for phi in space.cocycle_basis] == chosen and space.dim == len(chosen)
    # the inclusion of m into m (+) n, and a block of the right shape that need not be a map
    pool = list(field.elements()) if field.is_finite else [field.from_int(k) for k in range(-2, 3)]
    target = m.direct_sum(n)
    for inj in (
        {v: vstack_all(field, d, (Matrix.identity(field, d), Matrix.zero(field, n.dims[v], d))) for v, d in enumerate(m.dims)},
        {v: Matrix(field, t, d, [[data.draw(st.sampled_from(pool)) for _ in range(d)] for _ in range(t)])
         for v, (d, t) in enumerate(zip(m.dims, target.dims))},
    ):
        assert retraction_exists(m, target, inj) == reference_retraction_exists(m, target, inj)


def test_extension_splits_refuses_a_module_not_in_block_form():
    dq, d, f = a2(GF(3))
    s1, s2 = Representation.simple(dq, f, 1), Representation.simple(dq, f, 2)
    # S1 is no extension of S1 by S2: its dims are not those of S2 (+) S1
    with pytest.raises(ShapeError, match="not those of an extension"):
        extension_splits(s1, s2, s1)
    # right dims, wrong blocks: a2s: 2 -> 1 maps the S2 part onto the S1 part, a nonzero lower-left corner
    flipped = Representation.build(dq, f, s1.dims + s2.dims, {"a2s": Matrix.identity(f, 1)})
    with pytest.raises(ShapeError, match="arrow a2s of e is not in the block form"):
        extension_splits(s1, s2, flipped)
    assert not extension_splits(s1, s2, Representation.build(dq, f, s1.dims + s2.dims, {"a2": Matrix.identity(f, 1)}))
    with pytest.raises(FieldMismatch):
        extension_splits(s1, s2, Representation.simple(dq, GF(5), 1).direct_sum(Representation.simple(dq, GF(5), 2)))


def test_retraction_exists_refuses_a_malformed_injection():
    dq, d, f = a2(GF(3))
    s1, s2 = Representation.simple(dq, f, 1), Representation.simple(dq, f, 2)
    both = s1.direct_sum(s2)
    with pytest.raises(ShapeError, match="no block at vertex 0"):
        retraction_exists(s1, both, {})
    good = hom_basis(s1, both)[0]
    with pytest.raises(ShapeError, match="vertex 1 must be 1x1"):
        retraction_exists(s1, both, {**good, 1: Matrix.zero(f, 2, 1)})
    with pytest.raises(FieldMismatch):
        retraction_exists(s1, both, {**good, 1: Matrix.identity(GF(5), 1)})
    assert retraction_exists(s1, both, good)


def basis_retraction_exists(s, n, inj):
    """Reference retraction test: an affine system over the canonical basis of Hom(n, s)."""
    f = s.field
    basis = hom_basis(n, s)
    if not basis:
        return all(d == 0 for d in s.dims)
    rows = []
    rhs = []
    for v in range(s.dq.vertex_count):
        for r in range(s.dims[v]):
            for c in range(s.dims[v]):
                rows.append([psi[v].mul(inj[v]).data[r][c] for psi in basis])
                rhs.append(f.one() if r == c else f.zero())
    sys = Matrix(f, len(rows), len(basis), rows)
    return reference_solve(sys, column(f, rhs)) is not None


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from([("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_retraction_agrees_with_the_hom_basis_system(tag, field, seed, steps):
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    for s, target in ((m, n), (n, m), (m, m.direct_sum(n)), (n, m.direct_sum(n))):
        for inj in hom_basis(s, target):
            if morphism_is_injective(inj):
                assert retraction_exists(s, target, inj) == basis_retraction_exists(s, target, inj)
                quotient = quotient_by_map(target, inj)
                assert quotient.dims == target.dims - s.dims and quotient.check_relations() == []
    # the identity's cokernel projections have no rows, so the quotient is zero
    identity = {v: Matrix.identity(field, k) for v, k in enumerate(m.dims)}
    assert quotient_by_map(m, identity).is_zero_module()


def reference_quotient(n, phi):
    """Reference quotient of n by the image of phi, by plain Gauss-Jordan: the dims and the blocks P_dst . n_a . S_src.

    P_v has the reference kernel vectors of phi_v^T as its rows, and S_v is
    the reference solution of P_v . S_v = identity.
    """
    f = n.field
    projections = [reference_kernel(phi[v].transpose()).transpose() for v in range(n.dq.vertex_count)]
    sections = [reference_solve(p, Matrix.identity(f, p.rows)) for p in projections]
    mats = {a.aid: projections[a.dst].mul(n.mats[a.aid]).mul(sections[a.src]) for a in n.dq.arrows}
    return tuple(p.rows for p in projections), mats


@pytest.mark.parametrize("tag", [("A", 2), ("D", 4)], ids=["A2", "D4"])
@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), QQ], ids=["GF2", "GF3", "GF4", "QQ"])
def test_quotient_by_map_is_the_reference_cokernel(tag, field):
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(41 * dq.vertex_count + (field.order if field.is_finite else 0))
    mods = [random_nilpotent(dq, field, rng, steps=rng.randrange(1, 5)) for _ in range(5)]
    pairs = list(itertools.product(mods, repeat=2)) + [(m, m.direct_sum(n)) for m, n in zip(mods, mods[1:])]
    injective = collections.Counter()
    for s, t in pairs:
        zero = {v: Matrix.zero(field, t.dims[v], s.dims[v]) for v in range(dq.vertex_count)}
        maps = hom_basis(s, t) + [zero]
        if s is t:
            maps.append({v: Matrix.identity(field, k) for v, k in enumerate(s.dims)})
        for phi in maps:
            got = quotient_by_map(t, phi)
            dims, mats = reference_quotient(t, phi)
            assert tuple(got.dims) == dims
            assert {k: v.data for k, v in got.mats.items()} == {k: v.data for k, v in mats.items()}
            assert [type(x) for k in sorted(mats) for row in got.mats[k].data for x in row] == [
                type(x) for k in sorted(mats) for row in mats[k].data for x in row
            ]
            assert got.check_relations() == []
            injective[morphism_is_injective(phi)] += 1
    # maps that are injective and maps that are not, zero maps included
    assert injective[True] and injective[False] >= len(pairs)


# -- golden digest of the canonical hom and ext bases ---------------------------


def hom_ext_basis_bytes(m, n):
    """The JSON of the canonical Ext^1 cocycle basis and Hom basis of a pair, as bytes."""
    cocycles = [{aid: mat.to_json() for aid, mat in phi.items()} for phi in ext1_space(m, n).cocycle_basis]
    maps = [{str(v): mat.to_json() for v, mat in phi.items()} for phi in hom_basis(m, n)]
    return json.dumps({"cocycle_basis": cocycles, "hom_basis": maps}, sort_keys=True).encode()


HOM_EXT_BASIS_DIGESTS = {
    ("A", 2, "GF(2)"): "ea283db6ffed354ff288003f08209a7851bc75f726b31522b2d3cb89d0f3a1cb",
    ("A", 2, "GF(3)"): "d8cc14b437b2f1909a8a04955fda5e8c6ea9510793c41f2f3e11edbeb33b982d",
    ("A", 2, "GF(4)"): "712e99a900e1d52e5a6fbfe5dc816847598297237b54068254572512f9a55ef3",
    ("A", 2, "QQ"): "b730edb9daf94172f5d31b936ca733788992c937d8c24fcd87fa29b7d21aa00f",
    ("D", 4, "GF(2)"): "1634f208d9ada0ccaf4101778730add1d4ee753c3040a1759ba581c59560a08b",
    ("D", 4, "GF(3)"): "7397e15e5c9538eb74bdd480322ced4cb96833d65b96582f1fd02c5719ee8e4a",
    ("D", 4, "GF(4)"): "d19174e06c5c1216ae1cc61fdb37196b1ea9082b522c4d930f1b1be060d34cd2",
    ("D", 4, "QQ"): "85e04ce395e9846c9fea12401fc3fede718bde95ae34ccd89bcafa162069555f",
}


@pytest.mark.parametrize("tag, n, field", [(t, n, f) for t, n in (("A", 2), ("D", 4)) for f in (GF(2), GF(3), GF(4), QQ)])
def test_hom_and_ext_bases_match_their_golden_digest(tag, n, field):
    dq, _ = standard_extended_dynkin(tag, n)
    rng = random.Random(23)
    mods = [random_nilpotent(dq, field, rng, steps=k) for k in (1, 3, 5, 7)]
    h = hashlib.sha256()
    for m, x in itertools.product(mods, mods):
        h.update(hom_ext_basis_bytes(m, x))
    assert h.hexdigest() == HOM_EXT_BASIS_DIGESTS[tag, n, repr(field)]


# -- the nonzero entries each block keeps, and the verdict an extension writes --


def test_two_hom_dims_build_each_blocks_triples_once(monkeypatch):
    # two fresh copies of one sampled module: no block has read its triples
    # yet, and every nonempty block of n is read as is and of m negated
    dq, _ = standard_extended_dynkin("D", 4)
    f = GF(3)
    x = random_nilpotent(dq, f, random.Random(5), steps=5)
    m, n = (Representation(dq, f, x.dims, {aid: Matrix(f, b.rows, b.cols, b.data) for aid, b in x.mats.items()})
            for _ in range(2))
    builds, reads = collections.Counter(), collections.Counter()
    for name in ("entries", "negated_entries"):
        read = getattr(Matrix, name).fget

        def counted(self, read=read, name=name):
            reads[name, id(self)] += 1
            builds[name, id(self)] += getattr(self, "_" + name) is None
            return read(self)

        monkeypatch.setattr(Matrix, name, property(counted))
    first = hom_dim(m, n)
    built, first_reads = dict(builds), reads.copy()
    assert built and set(built.values()) == {1}
    assert {name for name, _ in built} == {"entries", "negated_entries"}
    assert hom_dim(m, n) == first
    # the second call reads the triples the first one built, and builds none
    second_reads = reads - first_reads
    assert {name for name, _ in second_reads} == {"entries", "negated_entries"}
    assert second_reads.keys() <= built.keys()
    assert dict(builds) == built


def random_corners(dq, m, n, pool, rng):
    """A corner n.dims[dst] x m.dims[src] at every arrow, its entries drawn from ``pool``."""
    f = m.field
    out = {}
    for a in dq.arrows:
        rows, cols = n.dims[a.dst], m.dims[a.src]
        out[a.aid] = Matrix(f, rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])
    return out


@settings(max_examples=120, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), GF(5), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    kind=st.sampled_from(["closing", "random", "broken"]),
)
def test_the_verdict_an_extension_writes_agrees_with_the_full_check(tag, field, seed, steps, kind):
    # closing cocycles, random corners, and random corners on a module that may fail its relations
    dq, _ = standard_extended_dynkin(*tag)
    rng = random.Random(seed)
    m, n = (random_nilpotent(dq, field, rng, steps=k) for k in steps)
    pool = list(field.elements()) if field.is_finite else [field.from_int(k) for k in range(-3, 4)]
    if kind == "closing":
        basis = ext1_space(m, n).cocycle_basis
        cocycle = combination(field, basis, [rng.choice(pool) for _ in basis]) if basis else {}
    else:
        cocycle = random_corners(dq, m, n, pool, rng)
    if kind == "broken":
        aid = rng.choice(dq.arrows).aid
        m = Representation.build(dq, field, m.dims, dict(m.mats, **{aid: random_corners(dq, m, m, pool, rng)[aid]}))
    e = block_module(n, m, cocycle)
    fresh = Representation(dq, field, e.dims, dict(e.mats))  # the same blocks, with the verdict summed
    assert e.check_relations() == fresh.check_relations()
    if kind == "closing":
        assert fresh.check_relations() == []
    if fresh.check_relations():
        with pytest.raises(CocycleError):
            extension_from_cocycle(m, n, cocycle)
    else:
        assert extension_from_cocycle(m, n, cocycle) == e
