import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppalg.reflection as reflection
from ppalg.errors import (
    DichotomyError,
    InternalInvariantError,
    NotGenericStep,
    PreconditionViolated,
    RangeError,
    ShapeError,
)
from ppalg.fields import GF, QQ
from ppalg.linalg import Matrix, hstack_all
from ppalg.quiver import DimensionVector, standard_extended_dynkin
from ppalg.rep import Representation, hom_dim, is_isomorphic
from ppalg.reflection import ReflectResult, _reflect_step, apply_word, compute_siw, reflect_minus, reflect_plus
from ppalg.stability import enumerate_thin_reps, sequiv_class, stability_verdict
from ppalg.verify import a2_setup, chamber_theta, d4_setup, random_nilpotent
from ppalg.weyl import StabilityParameter, apply_word_to_dimvec, reflect_dimvec
from reference_linalg import reference_kernel, reference_solve
from relation_maps import (
    arrows_out,
    dual,
    in_map,
    negated,
    out_map,
    right_inverse,
    socle_multiplicities,
    top_multiplicities,
    vstack_all,
)


def curve_member(dq, field, d, a, b):
    mats = {
        "a1": Matrix(field, 1, 1, [[a]]),
        "a3s": Matrix(field, 1, 1, [[field.one()]]),
        "a2s": Matrix(field, 1, 1, [[b]]),
    }
    return Representation.build(dq, field, d, mats)


def test_plus_reflection_on_simples():
    dq, d, wg = a2_setup()
    f = GF(2)
    r = reflect_plus(1, Representation.simple(dq, f, 2))
    assert r.module.dims == DimensionVector([0, 1, 1])
    assert r.defect == 0
    r = reflect_plus(1, Representation.simple(dq, f, 1))
    assert r.module.is_zero_module()
    assert r.defect == 1


def test_minus_reflection_kills_its_simple():
    dq, d, wg = a2_setup()
    f = GF(3)
    for i in range(3):
        r = reflect_minus(i, Representation.simple(dq, f, i))
        assert r.module.is_zero_module()
        assert r.defect == 1


def test_reflection_of_curve_member_round_trips():
    dq, d, wg = a2_setup()
    f = GF(2)
    m = curve_member(dq, f, d, f.one(), f.zero())
    res = reflect_plus(1, m)
    assert res.defect == 0
    assert res.module.dims == reflect_dimvec(dq, 1, m.dims)
    back = reflect_minus(1, res.module)
    assert back.defect == 0
    assert is_isomorphic(back.module, m)


def test_round_trip_on_whole_positive_side():
    dq, d, wg = a2_setup()
    f = GF(3)
    theta = chamber_theta(dq, ())
    for m in enumerate_thin_reps(dq, d, f):
        if not stability_verdict(m, theta).semistable:
            continue
        for i in (1, 2):
            res = reflect_plus(i, m)
            assert res.defect == 0
            back = reflect_minus(i, res.module)
            assert back.defect == 0
            assert is_isomorphic(back.module, m)


def test_defect_equals_hom_dimension():
    dq, d, wg = a2_setup()
    f = GF(3)
    rng = random.Random(19)
    for _ in range(40):
        m = random_nilpotent(dq, f, rng, steps=rng.randrange(1, 4))
        i = rng.randrange(3)
        s = Representation.simple(dq, f, i)
        assert reflect_plus(i, m).defect == hom_dim(m, s)
        assert reflect_minus(i, m).defect == hom_dim(s, m)


def test_minus_dims_law_on_socle_avoiding_samples():
    dq, d, wg = a2_setup()
    f = GF(3)
    rng = random.Random(29)
    seen = 0
    tries = 0
    while seen < 200 and tries < 2000:
        tries += 1
        m = random_nilpotent(dq, f, rng, steps=rng.randrange(1, 5))
        i = rng.randrange(3)
        if socle_multiplicities(m)[i] != 0:
            continue
        seen += 1
        res = reflect_minus(i, m)
        assert res.defect == 0
        assert res.module.dims == reflect_dimvec(dq, i, m.dims)
    assert seen == 200


def test_round_trip_on_star_shape_beyond_thin():
    # vertex spaces of dimension two appear here, so the isomorphism test
    # runs on genuinely non-thin modules
    from ppalg.verify import d4_setup

    dq, d, wg = d4_setup()
    f = GF(2)
    rng = random.Random(99)
    tried = 0
    for _ in range(120):
        m = random_nilpotent(dq, f, rng, steps=rng.randrange(1, 5))
        i = rng.randrange(5)
        if top_multiplicities(m)[i] != 0:
            continue
        res = reflect_plus(i, m)
        assert res.defect == 0
        assert socle_multiplicities(res.module)[i] == 0
        back = reflect_minus(i, res.module)
        assert back.defect == 0
        assert is_isomorphic(back.module, m)
        tried += 1
    assert tried > 40


def test_apply_word_involution_and_parameter_return():
    dq, d, wg = a2_setup()
    f = GF(2)
    theta = chamber_theta(dq, ())
    m = curve_member(dq, f, d, f.one(), f.one())
    for i in (1, 2):
        out, th = apply_word((i, i), m, theta)
        assert th == theta
        assert is_isomorphic(out, m)


def test_apply_word_returns_the_canonical_reflected_parameter():
    # the letters run on the cleared numerators; the parameter returned must
    # be the one the constructor makes of the reflected Fraction entries
    dq, d, wg = a2_setup()
    theta = StabilityParameter([Fraction(-3, 2), Fraction(1, 2), Fraction(1)])
    m = curve_member(dq, GF(3), d, 1, 1)
    for word in [(), (1,), (2, 1), (1, 2, 1), (1, 1)]:
        want = theta
        for letter in reversed(word):
            want = StabilityParameter(t - want[letter] * c for t, c in zip(want, dq.cartan_row(letter)))
        _, th = apply_word(word, m, theta)
        assert tuple(th) == tuple(want) and all(type(t) is Fraction for t in th)
        assert (th.numerators, th.denominator) == (want.numerators, want.denominator)


def test_apply_word_accepts_the_extending_vertex():
    # letter 0 has no chamber meaning but the functor pair still inverts
    dq, d, wg = a2_setup()
    f = GF(3)
    theta = chamber_theta(dq, ())
    m = curve_member(dq, f, d, f.one(), f.one())
    out, th = apply_word((0, 0), m, theta)
    assert th == theta
    assert is_isomorphic(out, m)


def test_apply_word_braid_relation_samples():
    dq, d, wg = a2_setup()
    f = GF(3)
    theta = chamber_theta(dq, ())
    reps = [m for m in enumerate_thin_reps(dq, d, f) if stability_verdict(m, theta).semistable]
    for m in reps[:10]:
        b1, t1 = apply_word((1, 2, 1), m, theta)
        b2, t2 = apply_word((2, 1, 2), m, theta)
        assert t1 == t2
        assert is_isomorphic(b1, b2)


def test_apply_word_transports_stability():
    dq, d, wg = a2_setup()
    f = GF(2)
    theta = chamber_theta(dq, ())
    for m in enumerate_thin_reps(dq, d, f):
        v = stability_verdict(m, theta)
        if not v.semistable:
            continue
        out, th = apply_word((1,), m, theta)
        assert stability_verdict(out, th).status == v.status


def test_apply_word_guards(monkeypatch):
    dq, d, wg = a2_setup()
    f = GF(2)
    m = curve_member(dq, f, d, f.one(), f.zero())
    with pytest.raises(NotGenericStep):
        apply_word((1,), m, StabilityParameter((-1, 0, 1)))
    unstable = Representation.simple(dq, f, 0).direct_sum(
        Representation.simple(dq, f, 1)
    ).direct_sum(Representation.simple(dq, f, 2))
    with pytest.raises(PreconditionViolated):
        apply_word((1,), unstable, chamber_theta(dq, ()))
    for letter in (3, -1):
        with pytest.raises(RangeError, match=f"letter {letter} is not a vertex"):
            apply_word((letter,), m, chamber_theta(dq, ()))
    # a semistable module keeps zero defect at every letter, so the defect is planted
    monkeypatch.setattr(reflection, "reflect_plus", lambda i, cur: ReflectResult(module=cur, defect=1))
    with pytest.raises(PreconditionViolated, match="defect 1 at letter 1"):
        apply_word((1,), m, chamber_theta(dq, ()))


def test_apply_word_refuses_theta_of_the_wrong_length():
    dq, d, wg = a2_setup()
    f = GF(2)
    m = curve_member(dq, f, d, f.one(), f.zero())
    with pytest.raises(ShapeError):
        apply_word((2,), m, StabilityParameter((-1, 1)))


def test_compute_siw_examples_and_guards():
    dq, d, wg = a2_setup()
    f = GF(2)
    s = compute_siw(wg, (), 1, f)
    assert s.degree == 0 and s.module.dims == dq.unit(1)
    s = compute_siw(wg, (1,), 1, f)
    assert s.degree == 1 and s.module.dims == dq.unit(1)
    s = compute_siw(wg, (1,), 2, f)
    assert s.degree == 0 and s.module.dims == DimensionVector([0, 1, 1])
    with pytest.raises(RangeError):
        compute_siw(wg, (1, 1), 1, f)
    with pytest.raises(RangeError):
        compute_siw(wg, (0,), 1, f)
    for letter in (wg.rank + 1, -1):  # refused by the reducedness check, which reads every letter
        with pytest.raises(RangeError):
            compute_siw(wg, (letter,), 1, f)
    for i in (0, wg.rank + 1):
        with pytest.raises(RangeError, match="simple index"):
            compute_siw(wg, (), i, f)


def killed_with_defect_one(i, cur):
    """A step that leaves the zero module and defect one, as the plus functor does on the simple at i."""
    return ReflectResult(module=Representation.build(cur.dq, cur.field, [0] * cur.dq.vertex_count), defect=1)


@pytest.mark.parametrize(
    "word,step,error,match",
    [
        ((1, 2), killed_with_defect_one, DichotomyError, "degree 0..1"),
        ((1,), lambda i, cur: ReflectResult(module=cur, defect=1), DichotomyError, "defect 1 and a nonzero kernel"),
        ((1,), lambda i, cur: ReflectResult(module=cur, defect=0), InternalInvariantError, "disagree"),
    ],
    ids=["two-shifts", "kernel-and-defect", "identity-step"],
)
def test_compute_siw_checks_every_step_and_the_final_dims(monkeypatch, word, step, error, match):
    # correct steps never reach these branches, so reflect_plus is replaced
    dq, d, wg = a2_setup()
    monkeypatch.setattr(reflection, "reflect_plus", step)
    with pytest.raises(error, match=match):
        compute_siw(wg, word, 1, GF(2))


def test_shifted_simple_degree_matches_root_sign_everywhere():
    dq, d, wg = a2_setup()
    rs = wg.rs
    f = GF(3)
    for word in wg.canonical_words():
        for i in (1, 2):
            siw = compute_siw(wg, word, i, f)
            root = wg.act_on_root(word, rs.simple[i - 1])
            assert (siw.degree == 0) == all(c >= 0 for c in root)
            assert rs.project(siw.signed_dims()) == root
            assert siw.signed_dims() == apply_word_to_dimvec(dq, word, dq.unit(i))


@pytest.mark.parametrize("q", [2, 3])
def test_fixed_point_law_exhaustive(q):
    # plus reflection fixes a semistable module exactly when its socle avoids
    # the reflecting simple and the form pairing vanishes
    dq, d, wg = a2_setup()
    f = GF(q)
    theta = chamber_theta(dq, ())
    for m in enumerate_thin_reps(dq, d, f):
        if not stability_verdict(m, theta).semistable:
            continue
        for i in (1, 2):
            res = reflect_plus(i, m)
            assert res.defect == 0
            fixed = is_isomorphic(res.module, m)
            expected = (
                socle_multiplicities(m)[i] == 0
                and dq.bilinear(m.dims, dq.unit(i)) == 0
            )
            assert fixed == expected


def test_sequiv_classes_preserved_across_a_wall():
    dq, d, wg = a2_setup()
    f = GF(2)
    theta = StabilityParameter((-1, 0, 1))
    sem = [m for m in enumerate_thin_reps(dq, d, f) if stability_verdict(m, theta).semistable]
    assert sem
    transported = {}
    for idx, m in enumerate(sem):
        out, th = apply_word((2,), m, theta)
        transported[idx] = (sequiv_class(m, theta), sequiv_class(out, th))
    for a in transported:
        for b in transported:
            same_before = transported[a][0] == transported[b][0]
            same_after = transported[a][1] == transported[b][1]
            assert same_before == same_after


def cokernel_reflection(i, m):
    """Reference minus reflection: the cokernel of g_i, built directly.

    The new space at i is coker g_i where g_i collects eps(a*) M_{a*} over the
    arrows a entering i, in arrows_in order; the defect is the kernel
    dimension of g_i.  Returns (module, defect).
    """
    dq = m.dq
    f = m.field
    in_arrows = dq.arrows_in(i)
    blocks = []
    for a in in_arrows:
        blk = m.mats[dq.star[a.aid]]
        if dq.epsilon[dq.star[a.aid]] < 0:
            blk = negated(blk)
        blocks.append(blk)
    g_i = vstack_all(f, m.dims[i], blocks)
    proj = reference_kernel(g_i.transpose()).transpose()
    defect = m.dims[i] - g_i.rank()
    new_dims = list(m.dims)
    new_dims[i] = proj.rows
    offsets = {}
    pos = 0
    for a in in_arrows:
        offsets[a.aid] = pos
        pos += m.dims[a.src]
    proj_rinv = right_inverse(proj) if proj.rows else None
    mats = {}
    for a in dq.arrows:
        if a.src != i and a.dst != i:
            mats[a.aid] = m.mats[a.aid]
        elif a.dst == i:
            # incoming arrow b: include into the b summand, then project to the cokernel
            cols = range(offsets[a.aid], offsets[a.aid] + m.dims[a.src])
            mats[a.aid] = Matrix(f, proj.rows, len(cols), [[row[c] for c in cols] for row in proj.data])
        else:
            # outgoing arrow c: sum of m_c . m_b over incoming b, factored through the cokernel
            w = hstack_all(
                f, m.dims[a.dst], [m.mats[a.aid].mul(m.mats[b.aid]) for b in in_arrows]
            )
            if proj.rows == 0:
                mats[a.aid] = Matrix.zero(f, m.dims[a.dst], 0)
            else:
                mats[a.aid] = w.mul(proj_rinv)
    return Representation.build(dq, f, new_dims, mats), defect


def assert_same_up_to_basis_at(i, new, old):
    """new equals old after one invertible change of basis T at vertex i."""
    dq = old.dq
    assert new.dims == old.dims
    for a in dq.arrows:
        if i not in (a.src, a.dst):
            assert new.mats[a.aid].data == old.mats[a.aid].data
    # the incoming blocks of old are its cokernel projection, which is onto, so
    # new_in = T old_in determines T
    incoming = dq.arrows_in(i)
    old_in = hstack_all(old.field, old.dims[i], [old.mats[a.aid] for a in incoming])
    new_in = hstack_all(new.field, new.dims[i], [new.mats[a.aid] for a in incoming])
    t_transposed = reference_solve(old_in.transpose(), new_in.transpose())
    assert t_transposed is not None
    t = t_transposed.transpose()
    assert t.rows == t.cols == old.dims[i] and t.rank() == t.rows
    for a in incoming:
        assert new.mats[a.aid] == t.mul(old.mats[a.aid])
    for a in arrows_out(dq, i):
        assert new.mats[a.aid].mul(t) == old.mats[a.aid]


def assert_minus_matches_cokernel_reference(i, m):
    res = reflect_minus(i, m)
    ref, ref_defect = cokernel_reflection(i, m)
    assert res.defect == ref_defect
    assert_same_up_to_basis_at(i, res.module, ref)


@pytest.mark.parametrize("setup", [a2_setup, d4_setup])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_minus_reflection_is_the_cokernel_construction_on_nilpotents(setup, q):
    dq, d, wg = setup()
    f = GF(q)
    rng = random.Random(31 * q + dq.vertex_count)
    for _ in range(12):
        m = random_nilpotent(dq, f, rng, steps=rng.randrange(1, 5))
        for i in range(dq.vertex_count):
            assert_minus_matches_cokernel_reference(i, m)


@pytest.mark.parametrize("q", [2, 3])
def test_minus_reflection_is_the_cokernel_construction_on_every_thin_module(q):
    dq, d, wg = a2_setup()
    f = GF(q)
    count = 0
    for support in itertools.product((0, 1), repeat=dq.vertex_count):
        for m in enumerate_thin_reps(dq, DimensionVector(support), f):
            count += 1
            for i in range(dq.vertex_count):
                assert_minus_matches_cokernel_reference(i, m)
    assert count > 0


def test_reflection_rejects_a_vertex_outside_the_quiver():
    dq, d, wg = a2_setup()
    m = Representation.simple(dq, GF(2), 1)
    for i in (-1, 3):
        with pytest.raises(RangeError):
            reflect_plus(i, m)
        with pytest.raises(RangeError):
            reflect_minus(i, m)


def kernel_solve_reflection(i, m):
    """Reference plus reflection: the canonical kernel basis, one solve per incoming arrow.

    Returns (module, defect).
    """
    dq = m.dq
    into = in_map(m, i)
    out = out_map(m, i)
    kernel = reference_kernel(into)
    defect = m.dims[i] - into.cols + kernel.cols
    new_dims = list(m.dims)
    new_dims[i] = kernel.cols
    mats = dict(m.mats)
    pos = 0
    for _, aid, _ in dq.relations[i].terms:
        rows = m.mats[aid].rows
        mats[aid] = Matrix(m.field, rows, kernel.cols, kernel.data[pos : pos + rows])
        pos += rows
    for b in dq.arrows_in(i):
        lift = reference_solve(kernel, out.mul(m.mats[b.aid]))
        assert lift is not None
        mats[b.aid] = lift
    return Representation.build(dq, m.field, new_dims, mats), defect


def kernel_solve_minus_reflection(i, m):
    module, defect = kernel_solve_reflection(i, dual(m))
    return dual(module), defect


FUNCTORS_AND_REFERENCES = ((reflect_plus, kernel_solve_reflection), (reflect_minus, kernel_solve_minus_reflection))


@pytest.mark.parametrize("setup", [a2_setup, d4_setup])
@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), QQ], ids=["GF2", "GF3", "GF4", "QQ"])
def test_reflections_equal_the_kernel_and_solve_construction(setup, field):
    dq, d, wg = setup()
    rng = random.Random(17 * dq.vertex_count + (field.order if field.is_finite else 0))
    for _ in range(12):
        m = random_nilpotent(dq, field, rng, steps=rng.randrange(1, 5))
        for i in range(dq.vertex_count):
            for func, ref in (
                (reflect_plus, kernel_solve_reflection),
                (reflect_minus, kernel_solve_minus_reflection),
            ):
                res = func(i, m)
                module, defect = ref(i, m)
                assert res.defect == defect
                assert res.module.dims == module.dims
                assert {k: v.data for k, v in res.module.mats.items()} == {
                    k: v.data for k, v in module.mats.items()
                }
                assert json.dumps(res.module.to_json(), sort_keys=True) == json.dumps(
                    module.to_json(), sort_keys=True
                )


def broken_a2_module():
    # dims (1,1,0) with a1 = a1* = 1: the relations at 0 and 1 read 1 and -1, and a1 enters 1
    dq, d, wg = a2_setup()
    f = GF(3)
    one = Matrix(f, 1, 1, [[f.one()]])
    return Representation.build(dq, f, (1, 1, 0), {"a1": one, "a1s": one})


def test_incoming_map_outside_the_kernel_raises():
    m = broken_a2_module()
    assert 1 in m.check_relations()
    # the public functors refuse the input first; the step's own lift check
    # still catches the blocks, on either side (the dual carries the same
    # broken relation and the same nonzero arrow into 1)
    terms = m.dq.relations[1].terms
    rows = tuple(m.mats[aid].data for _, a, s in terms for aid in (a, s))
    for func, transposed in ((reflect_plus, False), (reflect_minus, True)):
        with pytest.raises(PreconditionViolated, match=r"fails the preprojective relations at vertices \[0, 1\]"):
            func(1, m)
        with pytest.raises(InternalInvariantError, match="does not land in the kernel"):
            _reflect_step(m.field, m.dims[1], terms, rows, transposed)


def test_an_input_that_fails_its_relations_is_refused_at_every_vertex():
    m = broken_a2_module()
    assert m.check_relations() == [0, 1]
    for i in range(m.dq.vertex_count):
        for func in (reflect_plus, reflect_minus):
            with pytest.raises(PreconditionViolated, match=r"^the input module fails the preprojective relations at vertices \[0, 1\]$"):
                func(i, m)


def test_relation_recheck_covers_every_vertex():
    # the relation fails at the leaves 0 and 3 only; reflecting at 1 or 4,
    # adjacent to neither, must still fail the re-check of the result
    dq, d, wg = d4_setup()
    f = GF(3)
    column = Matrix(f, 2, 1, [[1], [0]])
    mats = {
        "a1": column,
        "a3": column,
        "a1s": Matrix(f, 1, 2, [[1, 0]]),
        "a3s": Matrix(f, 1, 2, [[2, 0]]),
    }
    m = Representation.build(dq, f, (1, 0, 2, 1, 0), mats)
    assert m.check_relations() == [0, 3]
    for i in (1, 4):
        for func in (reflect_plus, reflect_minus):
            # a refused call reads no step: no hit and no miss, also on a second call
            info = _reflect_step.cache_info()
            for _ in range(2):
                with pytest.raises(PreconditionViolated, match=r"fails the preprojective relations at vertices \[0, 3\]"):
                    func(i, m)
            assert _reflect_step.cache_info() == info


@pytest.mark.parametrize("fields", [(GF(2), GF(4)), (GF(3), GF(5))], ids=["GF2-GF4", "GF3-GF5"])
def test_the_same_integer_data_reflects_over_its_own_field(fields):
    # the all-ones A2 module has the same entry codes over every field; GF(2)
    # and GF(4) give the same codes back, GF(3) and GF(5) different ones (-1)
    dq, d, wg = a2_setup()
    for i in range(dq.vertex_count):
        for func, ref in FUNCTORS_AND_REFERENCES:
            for f in fields:
                one = Matrix(f, 1, 1, [[1]])
                m = Representation.build(dq, f, d, {a.aid: one for a in dq.arrows})
                res = func(i, m)
                module, defect = ref(i, m)
                assert res.defect == defect
                assert res.module == module
                assert all(block.field == f for block in res.module.mats.values())


def test_a_vertex_of_dimension_zero_keeps_the_shapes_of_its_neighbours():
    # with dims[1] = 0 the blocks out of 1 have no columns and the blocks into
    # 1 no rows, so only the neighbour dimensions tell these modules apart
    dq, d, wg = a2_setup()
    f = GF(3)
    for dims in [(1, 0, 2), (2, 0, 1), (0, 0, 3), (3, 0, 0), (1, 0, 1), (0, 0, 0)]:
        m = Representation.build(dq, f, dims)
        for func, ref in FUNCTORS_AND_REFERENCES:
            res = func(1, m)
            module, defect = ref(1, m)
            assert res.module.dims == (dims[0], dims[0] + dims[2], dims[2]) == module.dims
            assert res.defect == defect == 0
            for a in dq.arrows:
                block = res.module.mats[a.aid]
                assert (block.rows, block.cols) == (res.module.dims[a.dst], res.module.dims[a.src])
            assert res.module == module


def test_the_step_reads_the_signs_of_its_relation_terms():
    # the same blocks at a vertex of dimension 2 under two sign patterns: both
    # relations hold (each M_a is zero), but the kernel of (eps1 e1 | eps2 e1)
    # is spanned by (-eps2, eps1), so the new blocks move with the signs
    f = GF(3)
    zero, e1 = ((0, 0),), ((1,), (0,))
    rows = (zero, e1, zero, e1)  # M_a (1 x 2) and M_{a*} (2 x 1) for each term
    same = _reflect_step(f, 2, ((1, "a", "as"), (1, "b", "bs")), rows, False)
    mixed = _reflect_step(f, 2, ((1, "a", "as"), (-1, "b", "bs")), rows, False)
    assert same[1:] == mixed[1:] == (1, 1)
    assert [b.data for b in same[0]] == [((2,),), ((0,),), ((1,),), ((0,),)]
    assert [b.data for b in mixed[0]] == [((1,),), ((0,),), ((1,),), ((0,),)]


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from([("A", 2), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), GF(5), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 4),
)
def test_memoized_reflections_equal_fresh_ones_and_the_reference(tag, field, seed, steps):
    dq, _ = standard_extended_dynkin(*tag)
    m = random_nilpotent(dq, field, random.Random(seed), steps=steps)
    for i in range(dq.vertex_count):
        for func, ref in FUNCTORS_AND_REFERENCES:
            func(i, m)
            warm = func(i, m)
            _reflect_step.cache_clear()
            assert warm == func(i, m)
            module, defect = ref(i, m)
            assert warm.defect == defect
            assert warm.module == module


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("D", 4)]),
    field=st.sampled_from([GF(2), GF(3), GF(4), GF(5), QQ]),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 4),
    tail=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=2),
)
def test_the_verdict_a_reflection_writes_agrees_with_the_full_check(tag, field, seed, steps, tail):
    # a reflection's result carries an empty relation verdict that the step
    # proved; the same blocks in a fresh module, built with no verdict, must sum
    # to it at every vertex, also along chains of 1-3 letters
    dq, _ = standard_extended_dynkin(*tag)
    m = random_nilpotent(dq, field, random.Random(seed), steps=steps)
    for i in range(dq.vertex_count):
        for plus in (True, False):
            cur = m
            for letter, side in [(i, plus)] + [(v % dq.vertex_count, side) for v, side in tail]:
                cur = (reflect_plus if side else reflect_minus)(letter, cur).module
                assert cur.check_relations() == []
                fresh = Representation(dq, field, cur.dims, dict(cur.mats))
                assert fresh.check_relations() == []


def test_a_word_sums_each_relation_of_its_input_once(monkeypatch):
    # a thin A2 module from the solver is built with the verdict its re-check
    # proved, and the three results of the word with the one their steps
    # proved: no relation is summed, from the enumeration to the last read
    dq, d, wg = a2_setup()
    theta = chamber_theta(dq, ())
    summed = []
    relation_rows = Representation._relation_rows

    def counted(self, v):
        summed.append(v)
        return relation_rows(self, v)

    monkeypatch.setattr(Representation, "_relation_rows", counted)
    m = next(m for m in enumerate_thin_reps(dq, d, GF(3)) if stability_verdict(m, theta).semistable)
    out, _ = apply_word((1, 2, 1), m, theta)
    assert out.check_relations() == []
    assert summed == []


@pytest.mark.parametrize("setup", [a2_setup, d4_setup], ids=["A2", "D4"])
def test_shifted_simples_sum_no_relation(monkeypatch, setup):
    # the simple, the reflection steps and the degree-1 stalk, a module of
    # zero maps built with no mats, are all built with their verdict: one
    # reduced word per element of the Weyl group, at every simple
    dq, d, wg = setup()
    summed = []
    relation_rows = Representation._relation_rows

    def counted(self, v):
        summed.append(v)
        return relation_rows(self, v)

    monkeypatch.setattr(Representation, "_relation_rows", counted)
    degrees = collections.Counter()
    for word in wg.canonical_words():
        for i in range(1, wg.rank + 1):
            siw = compute_siw(wg, word, i, GF(3))
            assert siw.module.check_relations() == []
            degrees[siw.degree] += 1
    assert degrees[0] and degrees[1]  # both kinds of shifted simple occur
    assert summed == []


def reflection_digest_modules():
    """Every thin A2 module over GF(3), then 12 nilpotent D4 modules over GF(3) and over QQ."""
    dq, d, wg = a2_setup()
    for support in itertools.product((0, 1), repeat=dq.vertex_count):
        yield from enumerate_thin_reps(dq, DimensionVector(support), GF(3))
    dq, d, wg = d4_setup()
    for field in (GF(3), QQ):
        rng = random.Random(20)
        for _ in range(12):
            yield random_nilpotent(dq, field, rng, steps=rng.randrange(1, 5))


def test_reflection_bytes_golden_digest():
    # one sha256 over the reflect output of both functors at every vertex
    digest = hashlib.sha256()
    count = 0
    for m in reflection_digest_modules():
        for i in range(m.dq.vertex_count):
            for func in (reflect_plus, reflect_minus):
                res = func(i, m)
                text = json.dumps({"defect": res.defect, "module": res.module.to_json()}, sort_keys=True)
                digest.update(text.encode("utf-8"))
                count += 1
    assert count == 1200
    assert digest.hexdigest() == "e381d998fde7a856bc354434ad841486d626b728543e19a27aabfcb0857c1894"


def test_apply_word_bytes_golden_digest():
    # apply_word((1, 2, 1)) on every semistable thin module of dims (1, 1, 1)
    # over GF(3), in each of the six chambers, with the reflected parameter
    dq, d, wg = a2_setup()
    digest = hashlib.sha256()
    count = 0
    for word in wg.canonical_words():
        theta = chamber_theta(dq, word)
        for m in enumerate_thin_reps(dq, d, GF(3)):
            if stability_verdict(m, theta).semistable:
                out, th = apply_word((1, 2, 1), m, theta)
                text = json.dumps({"module": out.to_json(), "theta": th.format()}, sort_keys=True)
                digest.update(text.encode("utf-8"))
                count += 1
    assert count == 360
    assert digest.hexdigest() == "94ec0962f07e0bdcd8b48eb7e106541b6a382c5ebc0b260483dbfce35386d5e7"
