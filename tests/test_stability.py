import ast
import collections
import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ppalg.rep as rep_module
import ppalg.stability as stability_module
from ppalg.errors import PreconditionViolated, SearchBudgetExceeded, ShapeError, UnsupportedShape
from ppalg.fields import GF, QQ
from ppalg.linalg import Matrix, hstack_all
from ppalg.quiver import DimensionVector, standard_extended_dynkin
from ppalg.reflection import compute_siw
from ppalg.rep import PATTERN_MEMO, Representation, _pattern_walk, hom_dim, is_thin
from ppalg.stability import (
    SEARCH_BUDGET,
    ModuliScan,
    ScanRecord,
    StabilityVerdict,
    _closed_subspace_tuples,
    _closed_supports,
    _thin_verdict,
    enumerate_thin_reps,
    moduli_scan,
    sequiv_class,
    stability_verdict,
    submodule_dimvecs,
    thin_canonical_values,
)
from ppalg.verify import A2_CHAMBER_WORDS, chamber_theta, chambers, random_nilpotent
from ppalg.weyl import StabilityParameter, WeylGroup, finite_root_system
from relation_maps import is_zero


def a2(field):
    dq, d = standard_extended_dynkin("A", 2)
    return dq, d, field


def thin(dq, field, d, values):
    mats = {aid: Matrix(field, 1, 1, [[v]]) for aid, v in values.items()}
    return Representation.build(dq, field, d, mats)


def test_submodule_dimvecs_of_curve_member():
    dq, d, f = a2(GF(2))
    m = thin(dq, f, d, {"a1": 1, "a3s": 1})  # arrows 0->1 and 0->2, no 2->1
    got = submodule_dimvecs(m)
    e1, e2 = dq.unit(1), dq.unit(2)
    # worked out by hand: supports closed under both arrows out of vertex 0
    expected = {DimensionVector([0, 0, 0]), e1, e2, e1 + e2, DimensionVector(d)}
    assert got == expected


def test_submodule_dimvecs_of_simple():
    dq, d, f = a2(GF(5))
    s = Representation.simple(dq, f, 1)
    assert submodule_dimvecs(s) == {DimensionVector([0, 0, 0]), dq.unit(1)}


def test_thin_and_bruteforce_backends_agree():
    dq, d, f = a2(GF(2))
    for m in enumerate_thin_reps(dq, d, f):
        bruteforce = set(_closed_subspace_tuples(m, SEARCH_BUDGET))
        assert submodule_dimvecs(m) == bruteforce


def test_bruteforce_backend_on_non_thin_module():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    double = s1.direct_sum(s1)
    got = submodule_dimvecs(double)
    assert got == {DimensionVector([0, k, 0]) for k in range(3)}


def test_budget_is_enforced():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    big = s1
    for _ in range(3):
        big = big.direct_sum(big)
    with pytest.raises(SearchBudgetExceeded):
        submodule_dimvecs(big, budget=10)


def test_stability_verdicts():
    dq, d, f = a2(GF(3))
    theta = chamber_theta(dq, ())
    for a, b in [(1, 0), (0, 1), (1, 1), (1, 2)]:
        m = thin(dq, f, d, {"a1": a, "a3s": 1, "a2s": b})
        assert stability_verdict(m, theta).status == "Stable"
    s1 = Representation.simple(dq, f, 1)
    assert stability_verdict(s1, theta).status == "NotInThetaKernel"


def test_strictly_semistable_direct_sum_with_witness():
    dq, d, f = a2(GF(2))
    theta = StabilityParameter((-1, 0, 1))
    s1 = Representation.simple(dq, f, 1)
    x = thin(dq, f, DimensionVector([1, 0, 1]), {"a3s": 1})
    assert stability_verdict(s1, theta).status == "Stable"
    assert stability_verdict(x, theta).status == "Stable"
    both = s1.direct_sum(x)
    v = stability_verdict(both, theta)
    assert v.status == "StrictlySemistable"
    assert v.witness is not None and theta(v.witness) == 0


def test_unstable_witness_is_a_closed_support():
    dq, d, f = a2(GF(2))
    theta = chamber_theta(dq, ())
    m = thin(dq, f, d, {"a2": 1})  # vertex 0 spans a destabilizing submodule
    v = stability_verdict(m, theta)
    assert v.status == "Unstable"
    assert theta(v.witness) < 0
    assert v.witness in submodule_dimvecs(m)
    # the brute-force search realizes the witness by an arrow-closed subspace tuple
    assert v.witness in set(_closed_subspace_tuples(m, SEARCH_BUDGET))


def test_sequiv_of_stable_module_is_itself():
    dq, d, f = a2(GF(3))
    theta = chamber_theta(dq, ())
    m = thin(dq, f, d, {"a1": 1, "a3s": 1, "a2s": 1})
    assert sequiv_class(m, theta) == (thin_canonical_values(m),)


def test_wall_pair_shares_its_graded_pieces():
    dq, d, f = a2(GF(2))
    theta = StabilityParameter((-1, 0, 1))
    m1 = thin(dq, f, d, {"a1": 1, "a3s": 1, "a2s": 1})
    m2 = thin(dq, f, d, {"a1s": 1, "a2": 1, "a3s": 1})
    assert m1.check_relations() == [] and m2.check_relations() == []
    assert stability_verdict(m1, theta).status == "StrictlySemistable"
    assert sequiv_class(m1, theta) == sequiv_class(m2, theta)


def test_sequiv_of_direct_sum_lists_both_pieces():
    dq, d, f = a2(GF(2))
    theta = StabilityParameter((-1, 0, 1))
    s1 = Representation.simple(dq, f, 1)
    x = thin(dq, f, DimensionVector([1, 0, 1]), {"a3s": 1})
    got = sequiv_class(s1.direct_sum(x), theta)
    assert sorted(got) == sorted((thin_canonical_values(s1), thin_canonical_values(x)))


def test_sequiv_rejects_non_thin():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    with pytest.raises(UnsupportedShape):
        sequiv_class(s1.direct_sum(s1), StabilityParameter((-1, 0, 1)))


def test_canonical_values_refuse_a_non_thin_module_and_sequiv_an_unstable_one():
    dq, d, f = a2(GF(2))
    s1 = Representation.simple(dq, f, 1)
    with pytest.raises(UnsupportedShape, match="thin modules"):
        thin_canonical_values(s1.direct_sum(s1))
    unstable = thin(dq, f, d, {"a2": 1})  # vertex 0 spans a destabilizing submodule
    with pytest.raises(UnsupportedShape, match="not semistable: Unstable"):
        sequiv_class(unstable, chamber_theta(dq, ()))


def test_sequiv_refuses_a_thin_module_that_breaks_its_relations():
    # a1s . a1 is one at vertex 0 and no term cancels it: semistable at theta = 0, but its cuts are not modules
    dq, d, f = a2(GF(3))
    m = thin(dq, f, d, {"a1": 1, "a1s": 1})
    assert m.check_relations() != []
    with pytest.raises(PreconditionViolated, match="fails the preprojective relations"):
        sequiv_class(m, StabilityParameter((0, 0, 0)))


def reference_restrict_to_support(m, support):
    """The restriction that sequiv_class once read: the live blocks of m kept, rebuilt through ``build``."""
    dims = [s * x for s, x in zip(support, m.dims)]
    mats = {a.aid: m.mats[a.aid] for a in m.dq.arrows if dims[a.src] == 1 and dims[a.dst] == 1}
    return Representation.build(m.dq, m.field, dims, mats)


def reference_sequiv_class(m, theta):
    """The greedy filtration of sequiv_class on the brute-force supports, cut by the reference restriction."""
    pieces, cur = [], m
    while any(cur.dims):
        best = min(
            (b for b in list(_closed_subspace_tuples(cur, SEARCH_BUDGET))[1:] if theta.scaled(b) == 0),
            key=lambda b: (sum(b), [v for v, x in enumerate(b) if x]),
        )
        pieces.append(thin_canonical_values(reference_restrict_to_support(cur, best)))
        cur = reference_restrict_to_support(cur, cur.dims - best)
    return tuple(sorted(pieces))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_sequiv_class_matches_the_restriction_through_build(n, q):
    # every semistable thin module on every support, 735 (n = 2) and 168 (n = 3) of them of dims delta
    dq, _ = standard_extended_dynkin("A", n)
    f = GF(q)
    thetas = [StabilityParameter(t) for t in VERDICT_THETAS[n]]
    cases = 0
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        for m in enumerate_thin_reps(dq, d, f):
            for theta in thetas:
                if stability_verdict(m, theta).semistable:
                    assert sequiv_class(m, theta) == reference_sequiv_class(m, theta), (m.mats, theta)
                    cases += 1
    assert cases == {2: 772, 3: 249}[n]


def test_stability_reads_and_writes_thin_modules_only_through_rep():
    source = Path(stability_module.__file__).read_text(encoding="utf-8")
    assert "def restrict_to_support" not in source and not hasattr(stability_module, "restrict_to_support")
    assert "_pattern_walk" not in source and "Representation.build" not in source
    assert "def _thin_rep(" in Path(rep_module.__file__).read_text(encoding="utf-8")
    assert stability_module._thin_rep is rep_module._thin_rep
    # one thin solver, read directly by its two public readers
    solver_callers = {
        f.name
        for f in ast.parse(source).body
        if isinstance(f, ast.FunctionDef)
        and any(
            isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "_thin_solved"
            for c in ast.walk(f)
        )
    }
    assert solver_callers == {"enumerate_thin_reps", "moduli_scan"}


# -- thin enumeration against the generate-and-filter oracle -----------------

ORACLE_CAP = 2 * 10**5


def filtered_thin_reps(dq, d, field):
    """Every arrow assignment on the live arrows, kept when the relations hold."""
    live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
    elements = list(field.elements())
    for values in itertools.product(elements, repeat=len(live)):
        mats = {a.aid: Matrix(field, 1, 1, [[v]]) for a, v in zip(live, values)}
        rep = Representation.build(dq, field, d, mats)
        if not rep.check_relations():
            yield rep


def reference_thin_canonical_values(m):
    """The earlier gauge walk: explicit smallest-vertex roots and aid-sorted neighbours."""
    f = m.field
    support = [v for v in range(m.dq.vertex_count) if m.dims[v] == 1]
    nonzero = [a for a in m.dq.arrows if m.dims[a.src] == 1 and m.dims[a.dst] == 1 and not is_zero(m.mats[a.aid])]
    parent = {v: v for v in support}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    adj = {v: [] for v in parent}
    for a in nonzero:
        rs, rt = find(a.src), find(a.dst)
        if rs != rt:
            parent[rs] = rt
            adj[a.src].append((a.dst, a, True))
            adj[a.dst].append((a.src, a, False))
    gauge = {}
    for root in sorted(parent):
        if root in gauge:
            continue
        comp_root = min(v for v in parent if find(v) == find(root))
        if comp_root in gauge:
            continue
        gauge[comp_root] = f.one()
        stack = [comp_root]
        while stack:
            v = stack.pop()
            for w, a, forward in sorted(adj[v], key=lambda t: t[1].aid):
                if w in gauge:
                    continue
                val = m.mats[a.aid].data[0][0]
                gauge[w] = f.mul(gauge[v], f.inv(val)) if forward else f.mul(gauge[v], val)
                stack.append(w)
    values = []
    for a in m.dq.arrows:
        if m.dims[a.src] == 1 and m.dims[a.dst] == 1:
            x = m.mats[a.aid].data[0][0]
            if x != f.zero():
                x = f.mul(gauge[a.dst], f.mul(x, f.inv(gauge[a.src])))
            values.append((a.aid, f.format_scalar(x)))
    return (tuple(m.dims), tuple(values))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("tag,n", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_solved_enumeration_matches_the_filter(tag, n, q):
    dq, _ = standard_extended_dynkin(tag, n)
    f = GF(q)
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        solved = list(enumerate_thin_reps(dq, d, f))
        # the gauge walk keeps the earlier canonical values on every thin module
        assert [thin_canonical_values(m) for m in solved] == [
            reference_thin_canonical_values(m) for m in solved
        ], d
        live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
        if q ** len(live) > ORACLE_CAP:
            continue
        assert [m.mats for m in solved] == [m.mats for m in filtered_thin_reps(dq, d, f)], d
        assert all(m.check_relations() == [] for m in solved)


@pytest.mark.parametrize(
    "tag,n,qs", [("A", 1, (2, 3, 4, 5)), ("A", 2, (2, 3, 4, 5)), ("A", 3, (2, 3)), ("D", 4, (2, 3))]
)
def test_thin_budget_is_the_number_of_tuples_yielded(tag, n, qs):
    # the budget once bounded every q^|live| assignment: the A2 scan over GF(5)
    # needed 5^6 = 15625 for its 985 tuples
    dq, _ = standard_extended_dynkin(tag, n)
    zero = StabilityParameter((0,) * dq.vertex_count)
    for q, d in itertools.product(qs, itertools.product((0, 1), repeat=dq.vertex_count)):
        f = GF(q)
        count = sum(1 for _ in filtered_thin_reps(dq, d, f))
        assert sum(1 for _ in enumerate_thin_reps(dq, d, f, budget=count)) == count, (q, d)
        moduli_scan(dq, d, zero, f, budget=count)
        with pytest.raises(SearchBudgetExceeded):
            next(enumerate_thin_reps(dq, d, f, budget=count - 1))
        with pytest.raises(SearchBudgetExceeded):
            moduli_scan(dq, d, zero, f, budget=count - 1)


# -- moduli scans against the per-module reference ----------------------------


def reference_submodule_supports(m):
    """Every subset of the support, by size then lexicographically, kept when arrow-closed."""
    support = [v for v in range(m.dq.vertex_count) if m.dims[v] == 1]
    push = [
        (a.src, a.dst)
        for a in m.dq.arrows
        if m.dims[a.src] == 1 and m.dims[a.dst] == 1 and not is_zero(m.mats[a.aid])
    ]
    return [
        frozenset(s)
        for r in range(len(support) + 1)
        for s in itertools.combinations(support, r)
        if all(not (x in s and y not in s) for x, y in push)
    ]


def fraction_value(theta, alpha):
    return sum((Fraction(t) * a for t, a in zip(theta, alpha)), Fraction(0))


def reference_stability_verdict(m, theta):
    """The Fraction-valued verdict of a thin module over its filtered supports."""
    n = m.dq.vertex_count
    dimvecs = {DimensionVector(1 if v in s else 0 for v in range(n)) for s in reference_submodule_supports(m)}
    return verdict_from_dimvecs(m.dims, dimvecs, theta)


def verdict_from_dimvecs(dims, dimvecs, theta):
    """The Fraction-valued verdict read off a set of submodule dimension vectors."""
    if fraction_value(theta, dims) != 0:
        return StabilityVerdict(status="NotInThetaKernel")
    zero = DimensionVector([0] * len(dims))
    proper = sorted(b for b in dimvecs if b != zero and b != dims)
    for beta in proper:
        if fraction_value(theta, beta) < 0:
            return StabilityVerdict(status="Unstable", witness=beta)
    for beta in proper:
        if fraction_value(theta, beta) == 0:
            return StabilityVerdict(status="StrictlySemistable", witness=beta)
    return StabilityVerdict(status="Stable")


def reference_moduli_scan(dq, d, theta, field):
    """The per-module scan: every module built, judged and canonicalized on its own."""
    seen = {}
    for rep in enumerate_thin_reps(dq, d, field):
        verdict = reference_stability_verdict(rep, theta)
        if not verdict.semistable:
            continue
        canonical = reference_thin_canonical_values(rep)
        if canonical not in seen:
            mats = {aid: Matrix(field, 1, 1, [[field.parse_scalar(x)]]) for aid, x in canonical[1]}
            canon_rep = Representation.build(dq, field, rep.dims, mats)
            seen[canonical] = ScanRecord(verdict=verdict, canonical=canonical, build_rep=lambda m=canon_rep: m)
    records = [seen[k] for k in sorted(seen)]
    return ModuliScan(dq=dq, field=field, d=DimensionVector(d), theta=theta, records=records)


def oracle_thetas(d):
    """A generic parameter, one on a wall (from three support vertices on) and one off the kernel.

    On the support the generic entries are (-2)^j / 3 and a last entry that
    makes the sum zero; no proper subset sums to zero, since the largest
    power of two outweighs all smaller ones.  The wall puts 1/2, -1/2 on the
    first two support vertices.
    """
    support = [v for v in range(len(d)) if d[v]]
    generic, wall = [Fraction(0)] * len(d), [Fraction(0)] * len(d)
    for j, v in enumerate(support[:-1]):
        generic[v] = Fraction((-2) ** j, 3)
        wall[v] = Fraction((-1) ** j, 2) if j < 2 else Fraction((-2) ** j, 5)
    if support:
        generic[support[-1]] = -sum(generic)
        wall[support[-1]] = -sum(wall)
    off = [Fraction(1, v + 1) for v in range(len(d))]
    return {"generic": StabilityParameter(generic), "wall": StabilityParameter(wall), "off": StabilityParameter(off)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("tag,n", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_scan_matches_the_per_module_reference(tag, n, q):
    dq, _ = standard_extended_dynkin(tag, n)
    f = GF(q)
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
        if q ** len(live) > ORACLE_CAP:
            continue
        modules = list(enumerate_thin_reps(dq, d, f))
        for m in modules:
            # ascending 0/1 vectors: zero first, the whole support last
            want = sorted(tuple(int(v in s) for v in range(len(d))) for s in reference_submodule_supports(m))
            assert list(_closed_supports(m.dims, stability_module._thin_read(m)[2])) == want, d
        for kind, theta in oracle_thetas(d).items():
            for m in modules:
                got, want = stability_verdict(m, theta), reference_stability_verdict(m, theta)
                assert got == want and type(got.witness) is type(want.witness), (d, kind, m.mats)
            got, want = moduli_scan(dq, d, theta, f), reference_moduli_scan(dq, d, theta, f)
            assert got.to_csv() == want.to_csv(), (d, kind)
            assert got.to_json() == want.to_json(), (d, kind)
            assert [(r.verdict, r.rep.mats) for r in got.records] == [
                (r.verdict, r.rep.mats) for r in want.records
            ], (d, kind)
            assert all(r.rep.check_relations() == [] for r in got.records), (d, kind)


VERDICT_THETAS = {
    1: [(-1, 1), (1, -1), (0, 0)],
    2: [tuple(chamber_theta(standard_extended_dynkin("A", 2)[0], w)) for w in A2_CHAMBER_WORDS]
    + [(0, 1, -1), (-1, 0, 1), (-1, 1, 0), (0, 0, 0)],
    3: [(-3, 1, 1, 1), (2, -1, -3, 2), (0, 1, -1, 0), (-1, 0, 1, 0), (-1, 1, -1, 1), (0, 0, 0, 0)],
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_thin_verdict_matches_the_bruteforce_verdict(n, q):
    # every thin module of the cycle quiver, at chamber and wall parameters:
    # status and witness agree with the verdict read off the subspace search
    dq, _ = standard_extended_dynkin("A", n)
    f = GF(q)
    thetas = [StabilityParameter(t) for t in VERDICT_THETAS[n]]
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        for m in enumerate_thin_reps(dq, d, f):
            dimvecs = set(_closed_subspace_tuples(m, SEARCH_BUDGET))
            for theta in thetas:
                got, want = stability_verdict(m, theta), verdict_from_dimvecs(m.dims, dimvecs, theta)
                assert got == want and type(got.witness) is type(want.witness), (d, theta, m.mats)


def roundtrip_thetas():
    """The eight parameters of the roundtrip suite: the six A2 chambers and two walls."""
    dq = standard_extended_dynkin("A", 2)[0]
    return [chamber_theta(dq, w) for w in A2_CHAMBER_WORDS] + [
        StabilityParameter((-1, 0, 1)),
        StabilityParameter((-1, 1, 0)),
    ]


@pytest.mark.parametrize(
    "n,q,thetas",
    [
        (2, 3, roundtrip_thetas()),
        (3, 2, [StabilityParameter((-3, 1, 1, 1)), StabilityParameter((2, -1, -3, 2))]),
    ],
    ids=["A2-GF3", "A3-GF2"],
)
def test_pattern_memo_verdicts_match_the_subspace_search_in_any_order(n, q, thetas):
    # every thin module: the memoized verdict equals the one read off the
    # subspace search, and does not depend on the order modules are judged in
    dq, _ = standard_extended_dynkin("A", n)
    f = GF(q)
    modules = [m for d in itertools.product((0, 1), repeat=dq.vertex_count) for m in enumerate_thin_reps(dq, d, f)]
    verdicts = []
    for order in (modules, modules[::-1]):
        _thin_verdict.cache_clear()
        got = {}
        for m in order:
            dimvecs = set(_closed_subspace_tuples(m, SEARCH_BUDGET))
            for k, theta in enumerate(thetas):
                v, want = stability_verdict(m, theta), verdict_from_dimvecs(m.dims, dimvecs, theta)
                assert v == want and type(v.witness) is type(want.witness), (m.dims, theta, m.mats)
                got[m, k] = v
        verdicts.append(got)
    assert verdicts[0] == verdicts[1]
    # the memo is warm, and a theta of another length is still refused
    with pytest.raises(ShapeError):
        stability_verdict(modules[-1], StabilityParameter((-1, 1)))


# -- the per-dimension-vector search against the full subspace scan -----------


def reference_subspaces(field, dim):
    """Every subspace of field^dim, grown one vector at a time from zero, as canonical column bases."""
    elements = list(field.elements())
    vectors = [Matrix(field, dim, 1, [[x] for x in v]) for v in itertools.product(elements, repeat=dim)]
    found = {Matrix.zero(field, dim, 0)}
    frontier = set(found)
    while frontier:
        frontier = {hstack_all(field, dim, (s, v)).image_basis() for s in frontier for v in vectors} - found
        found |= frontier
    return found


def reference_closed_dimvecs(m):
    """The dims of every tuple of vertex subspaces that each arrow maps into place, as a sorted set."""
    per_vertex = [reference_subspaces(m.field, d) for d in m.dims]
    return sorted(
        {
            DimensionVector(s.cols for s in spans)
            for spans in itertools.product(*per_vertex)
            if all(
                hstack_all(m.field, m.dims[a.dst], (spans[a.dst], m.mats[a.aid].mul(spans[a.src]))).rank()
                == spans[a.dst].cols
                for a in m.dq.arrows
            )
        }
    )


def grid_thetas(d):
    """Every integer parameter with entries in -3..3 on the support of d, zero elsewhere, vanishing on d.

    The grid holds chamber and wall parameters alike; one parameter off the
    kernel follows.  An entry off the support values no submodule.
    """
    support = [v for v in range(len(d)) if d[v]]
    thetas = []
    for entries in itertools.product(range(-3, 4), repeat=len(support)):
        theta = [0] * len(d)
        for v, t in zip(support, entries):
            theta[v] = t
        if fraction_value(theta, d) == 0:
            thetas.append(StabilityParameter(theta))
    return thetas + [StabilityParameter([Fraction(1, v + 1) for v in range(len(d))])]


def non_thin_modules():
    """Seeded random non-thin nilpotents, two zero modules over GF(3) and S1+S1+S2."""
    out = []
    for tag, n, q, seed in [("A", 2, 2, 11), ("A", 2, 3, 12), ("D", 4, 2, 13)]:
        dq, _ = standard_extended_dynkin(tag, n)
        rng = random.Random(seed)
        mods = (random_nilpotent(dq, GF(q), rng, steps=rng.randrange(2, 5)) for _ in range(40))
        non_thin = [m for m in mods if not is_thin(m)][:6]
        out += [pytest.param(m, id=f"{tag}{n}-GF{q}-{k}") for k, m in enumerate(non_thin)]
    dq, _ = standard_extended_dynkin("A", 2)
    for d in [(2, 2, 1), (2, 1, 1)]:
        out.append(pytest.param(Representation.build(dq, GF(3), d), id="zero-{}{}{}".format(*d)))
    s1, s2 = Representation.simple(dq, GF(3), 1), Representation.simple(dq, GF(3), 2)
    out.append(pytest.param(s1.direct_sum(s1).direct_sum(s2), id="S1+S1+S2"))
    # a shifted simple of dims (0, 1, 2, 1, 1), stable at some parameters of the grid
    dq, d = standard_extended_dynkin("D", 4)
    siw = compute_siw(WeylGroup(finite_root_system(dq, d)), (2, 1, 3, 2), 4, GF(3)).module
    out.append(pytest.param(siw, id="siw-D4-GF3"))
    return out


@pytest.mark.parametrize("m", non_thin_modules())
def test_per_dimension_vector_search_matches_the_full_subspace_scan(m):
    # each dimension vector is searched once, in ascending order: the same
    # sorted list as keeping the dims of every closed subspace tuple, and the
    # same verdict and witness at chamber, wall and off-kernel parameters
    want = reference_closed_dimvecs(m)
    assert list(_closed_subspace_tuples(m, SEARCH_BUDGET)) == want
    for theta in grid_thetas(m.dims):
        got, ref = stability_verdict(m, theta), verdict_from_dimvecs(m.dims, set(want), theta)
        assert got == ref and type(got.witness) is type(ref.witness), theta


@functools.lru_cache(maxsize=None)
def reference_subspace_counts(field, dim):
    """The number of subspaces of field^dim of each dimension, counted off ``reference_subspaces``."""
    counts = collections.Counter(s.cols for s in reference_subspaces(field, dim))
    return tuple(counts[k] for k in range(dim + 1))


@pytest.mark.parametrize("m", non_thin_modules())
def test_subspace_search_charges_the_dimension_vectors_it_reaches(m):
    # the budget once bounded the product over the vertices of every subspace
    # count before the search began, however early a witness ended it
    charges = list(
        itertools.accumulate(
            math.prod(reference_subspace_counts(m.field, d)[k] for d, k in zip(m.dims, beta))
            for beta in itertools.product(*(range(d + 1) for d in m.dims))
        )
    )
    total = math.prod(sum(reference_subspace_counts(m.field, d)) for d in m.dims)
    assert charges[-1] == total
    want = submodule_dimvecs(m, budget=total)
    with pytest.raises(SearchBudgetExceeded):
        submodule_dimvecs(m, budget=total - 1)
    # an Unstable verdict pays for the dimension vectors up to its witness
    ascending = list(itertools.product(*(range(d + 1) for d in m.dims)))
    for theta in grid_thetas(m.dims):
        v = stability_verdict(m, theta)
        if v.status != "Unstable":
            continue
        assert v.witness in want
        charge = charges[ascending.index(v.witness)]
        assert stability_verdict(m, theta, budget=charge) == v, theta
        with pytest.raises(SearchBudgetExceeded):
            stability_verdict(m, theta, budget=charge - 1)


def test_zero_module_433_is_unstable_at_once():
    # a scan of every subspace tuple of this module took 17 s: (1, 0, 0) is the
    # first dimension vector of negative value in ascending order, and the
    # verdict stops there
    dq, _ = standard_extended_dynkin("A", 2)
    m = Representation.build(dq, GF(3), (4, 3, 3))
    start = time.perf_counter()
    v = stability_verdict(m, StabilityParameter((-3, 2, 2)))
    assert time.perf_counter() - start < 1
    assert v == StabilityVerdict(status="Unstable", witness=DimensionVector((1, 0, 0)))


def test_zero_module_544_is_unstable_within_the_default_budget():
    # the search once refused it: its subspace tuples number about 1.2e8, but
    # the witness (1, 0, 0) comes after the 212^2 tuples of the vectors (0, *, *)
    dq, _ = standard_extended_dynkin("A", 2)
    m = Representation.build(dq, GF(3), (5, 4, 4))
    v = stability_verdict(m, StabilityParameter((-8, 5, 5)))
    assert v == StabilityVerdict(status="Unstable", witness=DimensionVector((1, 0, 0)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_a2_variety_size(q):
    dq, d, f = a2(GF(q))
    assert sum(1 for _ in enumerate_thin_reps(dq, d, f)) == (q - 1) ** 4 + (2 * q - 1) ** 3


def test_scan_budget_is_enforced():
    dq, d, f = a2(GF(5))
    with pytest.raises(SearchBudgetExceeded):
        next(enumerate_thin_reps(dq, d, f, budget=100))


def gauge_orbit_count(dq, d, field, theta):
    """Plain orbit partition under vertex rescalings, no canonical forms."""
    reps = [m for m in enumerate_thin_reps(dq, d, field) if stability_verdict(m, theta).semistable]
    units = [x for x in field.elements() if x != field.zero()]
    seen = set()
    orbits = 0
    for m in reps:
        key = tuple(m.mats[a.aid].data[0][0] for a in dq.arrows)
        if key in seen:
            continue
        orbits += 1
        for gauge in itertools.product(units, repeat=dq.vertex_count):
            moved = tuple(
                field.mul(gauge[a.dst], field.mul(m.mats[a.aid].data[0][0], field.inv(gauge[a.src])))
                for a in dq.arrows
            )
            seen.add(moved)
    return orbits


@pytest.mark.parametrize("tag,r,q", [("A", 3, 9), ("A", 2, 25), ("A", 4, 3), ("A", 4, 4), ("A", 4, 5)])
def test_scan_counts_q2_plus_rq_stable_classes(tag, r, q):
    # law (a) on the cycle of r + 1 vertices: the default budget once refused
    # the 9^8 assignments of the A3 scan over GF(9), which has 116,289 solutions
    dq, d = standard_extended_dynkin(tag, r)
    scan = moduli_scan(dq, d, StabilityParameter.from_tail(d, (1,) * r), GF(q))
    assert scan.class_count() == q**2 + r * q
    assert all(rec.verdict.status == "Stable" for rec in scan.records)


def orbit_size(record, q):
    """(q - 1)^(|support| - components of the record's nonzero arrows), an isolated support vertex a component."""
    m = record.rep
    support = [v for v, x in enumerate(m.dims) if x]
    root = {v: v for v in support}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a in m.dq.arrows:
        if m.dims[a.src] and m.dims[a.dst] and not is_zero(m.mats[a.aid]):
            root[find(a.src)] = find(a.dst)
    components = sum(1 for v in support if find(v) == v)
    return (q - 1) ** (len(support) - components)


@pytest.mark.parametrize(
    "tag,n,q",
    [("A", 1, q) for q in (2, 3, 4, 5, 7)]
    + [("A", 2, q) for q in (2, 3, 4, 5, 7)]
    + [("A", 3, q) for q in (2, 3, 4)]
    + [("D", 4, q) for q in (2, 3)],
)
def test_scan_classes_cover_the_semistable_points_once(tag, n, q):
    # each class is a torus orbit whose stabilizer is one scalar per component,
    # so the orbit sizes of the listed classes add up to the semistable points
    # only when the gauge slice misses no class and lists none twice
    dq, _ = standard_extended_dynkin(tag, n)
    f = GF(q)
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        modules = list(enumerate_thin_reps(dq, d, f))
        thetas = oracle_thetas(d)
        for kind in ("generic", "wall"):
            theta = thetas[kind]
            points = sum(1 for m in modules if stability_verdict(m, theta).semistable)
            scan = moduli_scan(dq, d, theta, f)
            assert sum(orbit_size(r, q) for r in scan.records) == points, (d, kind)


@pytest.mark.parametrize("q", [2, 3])
def test_scan_class_count_matches_orbit_oracle(q):
    dq, d, f = a2(GF(q))
    theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, theta, f)
    assert scan.class_count() == gauge_orbit_count(dq, d, f, theta)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_class_counts_equal_across_chambers(q):
    from ppalg.verify import A2_CHAMBER_WORDS

    dq, d, f = a2(GF(q))
    counts = {
        w: moduli_scan(dq, d, chamber_theta(dq, w), f).class_count() for w in A2_CHAMBER_WORDS
    }
    assert len(set(counts.values())) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_each_curve_family_is_a_projective_line(q):
    dq, d, f = a2(GF(q))
    theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, theta, f)
    for i in (1, 2):
        s = Representation.simple(dq, f, i)
        members = [r for r in scan.records if hom_dim(s, r.rep) > 0]
        assert len(members) == q + 1


def test_scan_records_pass_relations_and_claimed_verdicts():
    dq, d, f = a2(GF(3))
    theta = chamber_theta(dq, (1,))
    scan = moduli_scan(dq, d, theta, f)
    for rec in scan.records:
        assert rec.rep.check_relations() == []
        assert stability_verdict(rec.rep, theta).status == rec.verdict.status


def test_canonical_form_is_gauge_invariant():
    dq, d, f = a2(GF(5))
    m = thin(dq, f, d, {"a1": 2, "a3s": 3, "a2s": 4})
    gauge = (3, 2, 4)
    moved = thin(
        dq,
        f,
        d,
        {
            a.aid: f.mul(gauge[a.dst], f.mul(m.mats[a.aid].data[0][0], f.inv(gauge[a.src])))
            for a in dq.arrows
        },
    )
    assert thin_canonical_values(m) == thin_canonical_values(moved)
    # the scan builds the module of this class from its canonical values alone
    scan = moduli_scan(dq, d, StabilityParameter([0, 0, 0]), f)
    (canon,) = [r.rep for r in scan.records if r.canonical == thin_canonical_values(m)]
    assert canon.check_relations() == []
    assert thin_canonical_values(canon) == thin_canonical_values(m)


@pytest.mark.parametrize(
    "r,q", [(1, q) for q in (2, 3, 4, 5)] + [(2, q) for q in (2, 3, 4, 5)] + [(3, 2), (3, 3), (4, 2)]
)
def test_every_chamber_has_q2_plus_rq_stable_classes_and_r_plus_1_fixed_points(r, q):
    # laws (a) and (d) of the moduli theorem, one scan per chamber of chambers(wg):
    # q^2 + r q classes, all stable, and r + 1 torus-fixed classes, those with r nonzero arrows
    dq, d = standard_extended_dynkin("A", r)
    f = GF(q)
    for _, label, theta in chambers(WeylGroup(finite_root_system(dq, d))):
        scan = moduli_scan(dq, d, theta, f)
        assert scan.class_count() == q**2 + r * q, label
        assert all(rec.verdict.status == "Stable" for rec in scan.records), label
        fixed = [rec for rec in scan.records if sum(val != "0" for _, val in rec.canonical[1]) == r]
        assert len(fixed) == r + 1, label


@pytest.fixture
def relation_sums(monkeypatch):
    """The vertex of every relation sum a module runs from here on."""
    summed = []
    real = Representation._relation_rows

    def counted(self, v):
        summed.append(v)
        return real(self, v)

    monkeypatch.setattr(Representation, "_relation_rows", counted)
    return summed


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("tag,n", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_solver_scan_and_simple_modules_are_built_with_their_verdict(relation_sums, tag, n, q):
    # the solver's modules, a theta = 0 scan's (every class), and the simples
    # carry the verdict their builder proved: none is summed to be built or
    # read, and a module built fresh on the same blocks sums the same verdict
    dq, _ = standard_extended_dynkin(tag, n)
    f = GF(q)
    zero = StabilityParameter((0,) * dq.vertex_count)
    for d in itertools.product((0, 1), repeat=dq.vertex_count):
        live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
        if q ** len(live) > ORACLE_CAP:
            continue
        modules = [*enumerate_thin_reps(dq, d, f), *(rec.rep for rec in moduli_scan(dq, d, zero, f).records)]
        if sum(d) == 1:
            modules.append(Representation.simple(dq, f, d.index(1)))
        verdicts = [m.check_relations() for m in modules]
        assert relation_sums == [], d
        for m, verdict in zip(modules, verdicts):
            assert Representation(dq, f, m.dims, dict(m.mats)).check_relations() == verdict, (d, m.mats)
        relation_sums.clear()


@pytest.fixture
def thin_rep_calls(monkeypatch):
    """The argument tuples of every module built through ``stability._thin_rep`` from here on."""
    calls = []
    real = stability_module._thin_rep

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability_module, "_thin_rep", counted)
    return calls


@pytest.mark.parametrize("r,q", [(2, 3), (3, 2), (4, 2)])
def test_a_scan_that_only_prints_builds_no_module(thin_rep_calls, r, q):
    dq, d = standard_extended_dynkin("A", r)
    scan = moduli_scan(dq, d, StabilityParameter.from_tail(d, (1,) * r), GF(q))
    scan.to_csv()
    scan.to_json()
    assert len(scan.stable_records()) == scan.class_count() == q**2 + r * q
    assert thin_rep_calls == []


def test_a_scan_record_builds_its_module_once_on_first_read(thin_rep_calls):
    dq, d, f = a2(GF(3))
    scan = moduli_scan(dq, d, chamber_theta(dq, (1,)), f)
    for built, rec in enumerate(scan.records, start=1):
        m = rec.rep
        assert rec.rep is m
        assert len(thin_rep_calls) == built
        assert m.check_relations() == []
        assert thin_canonical_values(m) == rec.canonical


def test_closed_supports_are_a_shared_tuple_memoized_per_pattern():
    dq, d, f = a2(GF(2))
    m = thin(dq, f, d, {"a1": 1, "a2s": 1})
    pattern = stability_module._thin_read(m)[2]
    supports = _closed_supports(m.dims, pattern)
    assert type(supports) is tuple
    assert _closed_supports(m.dims, pattern) is supports
    assert submodule_dimvecs(m) == set(map(DimensionVector, supports))
    for memo in (_closed_supports, _thin_verdict, _pattern_walk):
        assert memo.cache_info().maxsize == PATTERN_MEMO


def test_scan_serialization():
    dq, d, f = a2(GF(2))
    theta = chamber_theta(dq, ())
    scan = moduli_scan(dq, d, theta, f)
    payload = json.loads(json.dumps(scan.to_json()))
    assert payload["theta"] == theta.format()
    assert len(payload["classes"]) == scan.class_count()
    assert all(set(c) == {"status", "values"} for c in payload["classes"])
    csv_text = scan.to_csv()
    assert csv_text.splitlines()[0] == ",".join([a.aid for a in dq.arrows] + ["status"])
    assert len(csv_text.splitlines()) == scan.class_count() + 1


def test_non_thin_scan_rejected():
    dq, d = standard_extended_dynkin("D", 4)
    with pytest.raises(UnsupportedShape):
        moduli_scan(dq, d, StabilityParameter((-7, 1, 2, 1, 1)), GF(2))


def test_bruteforce_needs_finite_field():
    dq, d, f = a2(QQ)
    s1 = Representation.simple(dq, QQ, 1)
    with pytest.raises(UnsupportedShape):
        submodule_dimvecs(s1.direct_sum(s1))


def test_thin_enumeration_needs_a_finite_field():
    dq, d, _ = a2(QQ)
    with pytest.raises(UnsupportedShape, match="finite field"):
        next(enumerate_thin_reps(dq, d, QQ))
    with pytest.raises(UnsupportedShape, match="finite field"):
        moduli_scan(dq, d, StabilityParameter((-2, 1, 1)), QQ)



def test_moduli_scan_refuses_theta_of_the_wrong_length():
    # it once zipped theta against the dimension vector and found 12 classes
    dq, d, f = a2(GF(2))
    with pytest.raises(ShapeError):
        moduli_scan(dq, d, StabilityParameter((-1, 1)), f)


@pytest.mark.parametrize("tag,n,theta", [("D", 4, (-2, 1, 1)), ("A", 2, (0, 0, 0, 5))])
def test_stability_verdict_refuses_theta_of_the_wrong_length(tag, n, theta):
    # once NotInThetaKernel for the short theta and a negative shift count for the long one
    dq, _ = standard_extended_dynkin(tag, n)
    with pytest.raises(ShapeError):
        stability_verdict(Representation.simple(dq, GF(2), 1), StabilityParameter(theta))


@pytest.mark.parametrize("dims", [(1, 1), (1,), (1, 1, 1, 1), (1, -1, 1)])
def test_thin_enumeration_and_scan_refuse_a_dimension_vector_of_the_wrong_length(dims):
    # a short one once raised a bare IndexError while reading the live arrows
    dq, _, f = a2(GF(2))
    with pytest.raises(ShapeError):
        list(enumerate_thin_reps(dq, dims, f))
    with pytest.raises(ShapeError):
        moduli_scan(dq, dims, StabilityParameter((-2, 1, 1)), f)
