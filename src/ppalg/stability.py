"""Stability verdicts, submodule enumeration, S-equivalence for thin modules,
and exhaustive moduli scans over small finite fields.

Stability only ever needs the set of dimension vectors realized by
submodules: the value of a parameter on a submodule depends on its dimension
vector alone.  Thin modules admit a combinatorial backend (vertex supports
closed under nonzero arrows); small finite fields admit a brute-force
subspace backend, and the two agree on their common domain.  Both give
ascending dimension vectors, and one rule, ``_first_witness``, reads verdicts.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import InternalInvariantError, SearchBudgetExceeded, ShapeError, UnsupportedShape
from .fields import Field
from .linalg import Matrix, _dense, _mul_rows, back_substitute, forward_pass, hstack_all, null_space
from .quiver import DimensionVector, DoubleQuiver
from .rep import (
    PATTERN_MEMO,
    Representation,
    _gauge_ones,
    _live_arrows,
    _require_relations,
    _support,
    _thin_canonical,
    _thin_read,
    _thin_rep,
    is_thin,
)
from .weyl import StabilityParameter

SEARCH_BUDGET = 10**7  # value tuples of a solved thin variety, charged before its first tuple or scan class, or subspace tuples of the dimension vectors a search reaches


@functools.lru_cache(maxsize=PATTERN_MEMO)
def _closed_supports(dims, pattern: tuple) -> tuple[tuple, ...]:
    """Vertex supports of the thin submodules of one arrow pattern as 0/1 dimension vectors, ascending.

    A support is closed when it holds every vertex that a nonzero arrow
    reaches from it: a down-set of the preorder "y is reached from x", so
    exactly a union of the sets reach(v).  Inside, vertex v is bit n-1-v of
    an int, so ascending masks are ascending vectors.  They depend on dims
    and the pattern alone, not on theta, so one memoized tuple serves every
    chamber of a sweep and no caller can change it.
    """
    n = len(dims)
    reach = {v: 1 << (n - 1 - v) for v in _support(dims)}
    changed = True
    while changed:
        changed = False
        for _, x, y in pattern:
            if reach[y] & ~reach[x]:
                reach[x] |= reach[y]
                changed = True
    masks = {0}
    for r in reach.values():
        masks |= {s | r for s in masks}
    return tuple(tuple(s >> (n - 1 - v) & 1 for v in range(n)) for s in sorted(masks))


def _subspaces(field: Field, dim: int, k: int) -> list[Matrix]:
    """The k-dimensional subspaces of field^dim as canonical column-basis matrices."""
    elements = list(field.elements()) if 0 < k < dim else []  # none is read at k = 0 or dim
    out = []
    for pivots in itertools.combinations(range(dim), k):
        free = [(c, r) for r, p in enumerate(pivots) for c in range(p + 1, dim) if c not in pivots]
        for values in itertools.product(elements, repeat=len(free)):
            entry = dict(zip(free, values)) | {(p, r): field.one() for r, p in enumerate(pivots)}
            rows = [[entry.get((c, r), field.zero()) for r in range(k)] for c in range(dim)]
            out.append(Matrix._of(field, dim, k, rows))
    return out


def subspace_count(q: int, dim: int, k: int) -> int:
    """The number of k-dimensional subspaces of GF(q)^dim: the Gaussian binomial [dim, k]_q."""
    num, den = 1, 1
    for i in range(k):
        num *= q ** (dim - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _closed_subspace_tuples(m: Representation, budget: int):
    """Brute-force search: the dimension vector of every submodule, ascending, each decided once.

    For each dimension vector beta in ascending order, the tuples of vertex
    subspaces of dimensions beta (canonical column bases, so each has full
    column rank) are tried until one is a submodule: at every vertex, the
    images of the subspaces along the arrows in lie in the subspace there.
    First beta adds its number of tuples, prod_v [d_v, beta_v]_q, to a
    running charge: SearchBudgetExceeded once the charge passes the budget.
    """
    if not m.field.is_finite:
        raise UnsupportedShape("brute-force submodule search needs a finite field")
    subspaces = functools.cache(functools.partial(_subspaces, m.field))
    charge = 0
    for beta in itertools.product(*(range(d + 1) for d in m.dims)):
        charge += math.prod(subspace_count(m.field.order, d, k) for d, k in zip(m.dims, beta))
        if charge > budget:
            raise SearchBudgetExceeded(f"subspace tuples exceed budget {budget}")
        if any(
            all(
                hstack_all(m.field, d, (spans[v], m._image_into(v, spans))).rank() == spans[v].cols
                for v, d in enumerate(m.dims)
            )
            for spans in itertools.product(*(subspaces(d, k) for d, k in zip(m.dims, beta)))
        ):
            yield DimensionVector(beta)


def submodule_dimvecs(m: Representation, budget: int = SEARCH_BUDGET) -> set[DimensionVector]:
    """Dimension vectors of all submodules, including zero and the whole module: closed supports if thin."""
    found = _closed_supports(m.dims, _thin_read(m)[2]) if is_thin(m) else _closed_subspace_tuples(m, budget)
    return {DimensionVector(b) for b in found}


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # Stable | StrictlySemistable | Unstable | NotInThetaKernel
    witness: Optional[DimensionVector] = None

    @property
    def semistable(self) -> bool:
        return self.status in ("Stable", "StrictlySemistable")


def stability_verdict(
    m: Representation, theta: StabilityParameter, budget: int = SEARCH_BUDGET
) -> StabilityVerdict:
    """King-style verdict with a witness dimension vector when one exists.

    The witness is the first proper submodule dimension vector, in sorted
    order, of negative (else zero) parameter value.  theta is checked once,
    through the integer form ``theta.scaled``: ShapeError for another length,
    NotInThetaKernel for a nonzero value.  A thin module is then judged by its
    arrow pattern alone (``_thin_verdict``), any other by the subspace search.
    """
    if theta.scaled(m.dims) != 0:
        return StabilityVerdict(status="NotInThetaKernel")
    if is_thin(m):
        return _thin_verdict(m.dims, _thin_read(m)[2], theta.numerators)
    proper = (beta for beta in _closed_subspace_tuples(m, budget) if any(beta) and beta != m.dims)
    return _first_witness(proper, theta.numerators)


@functools.lru_cache(maxsize=PATTERN_MEMO)
def _thin_verdict(dims, pattern: tuple, numerators: tuple) -> StabilityVerdict:
    """The verdict of every thin module of ``dims`` with one arrow pattern, memoized.

    ``numerators`` are those of a theta of the same length whose value on
    ``dims`` is zero; ``stability_verdict`` and ``moduli_scan`` check both
    first.  The proper closed supports go to ``_first_witness`` as 0/1 vectors.
    """
    return _first_witness(_closed_supports(dims, pattern)[1:-1], numerators)


def _first_witness(proper: Iterable, numerators: tuple) -> StabilityVerdict:
    """Unstable at the first proper submodule of negative value, else StrictlySemistable at the first of value zero.

    ``proper`` holds the proper submodule dimension vectors in ascending
    order; it is read once, up to the first negative value.
    """
    balanced = None
    for beta in proper:
        value = sum(t * b for t, b in zip(numerators, beta))
        if value < 0:
            return StabilityVerdict(status="Unstable", witness=DimensionVector(beta))
        if value == 0 and balanced is None:
            balanced = DimensionVector(beta)
    return StabilityVerdict(status="Stable" if balanced is None else "StrictlySemistable", witness=balanced)


# -- thin isomorphism canonicalization --------------------------------------


def _format_canonical(field: Field, dims, live: list, canonical) -> tuple:
    return (tuple(dims), tuple((a.aid, field.format_scalar(x)) for a, x in zip(live, canonical)))


def thin_canonical_values(m: Representation) -> tuple:
    """The dims and the (arrow id, formatted gauge-canonical value) of each live arrow of a thin module.

    These are complete isomorphism invariants: ``rep._thin_canonical`` reads
    the module once and rescales a spanning forest of its nonzero arrows to
    ones, each tree rooted at its smallest vertex; the cycle values remain.
    """
    if not is_thin(m):
        raise UnsupportedShape("canonical values are defined for thin modules")
    live, canonical = _thin_canonical(m)
    return _format_canonical(m.field, m.dims, live, canonical)


def sequiv_class(m: Representation, theta: StabilityParameter) -> tuple:
    """Multiset of stable graded pieces of a semistable thin module.

    Greedy filtration: cut the module to a minimal closed support of
    parameter value zero (that piece is stable), pass to the complementary
    quotient, and recurse; ``_thin_rep`` cuts both from the values that
    ``_thin_read`` returns, once the module passes its relations.  The result
    is a sorted tuple of canonical piece tags.
    """
    if not is_thin(m):
        raise UnsupportedShape("associated graded pieces implemented for thin modules")
    _require_relations("the module", m)
    verdict = stability_verdict(m, theta)
    if not verdict.semistable:
        raise UnsupportedShape(f"module is not semistable: {verdict.status}")
    pieces = []
    cur = m
    while any(d != 0 for d in cur.dims):
        live, values, pattern = _thin_read(cur)
        # a nonzero closed support of value zero: smallest first, then by its sorted vertex list
        best = min(
            (b for b in _closed_supports(cur.dims, pattern)[1:] if theta.scaled(b) == 0),
            key=lambda b: (sum(b), [v for v, x in enumerate(b) if x]),
        )
        pieces.append(thin_canonical_values(_thin_rep(m.dq, m.field, best, live, values)))
        cur = _thin_rep(m.dq, m.field, cur.dims - best, live, values)
    return tuple(sorted(pieces))


# -- moduli scans ------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    """One isomorphism class of a scan: its verdict, its canonical values, and its module, built on first read."""

    verdict: StabilityVerdict
    canonical: tuple
    build_rep: Callable[[], Representation] = dataclasses.field(compare=False, repr=False)

    @functools.cached_property
    def rep(self) -> Representation:
        return self.build_rep()


@dataclass
class ModuliScan:
    dq: DoubleQuiver
    field: Field
    d: DimensionVector
    theta: StabilityParameter
    records: list

    def stable_records(self) -> list:
        return [r for r in self.records if r.verdict.status == "Stable"]

    def class_count(self) -> int:
        return len(self.records)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "theta": self.theta.format(),
            "dims": list(self.d),
            "classes": [
                {
                    "values": {aid: val for aid, val in rec.canonical[1]},
                    "status": rec.verdict.status,
                }
                for rec in self.records
            ],
        }

    def to_csv(self) -> str:
        arrow_ids = [a.aid for a in self.dq.arrows]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(arrow_ids + ["status"])
        for rec in self.records:
            values = dict(rec.canonical[1])
            row = [values.get(aid, "0") for aid in arrow_ids]
            row.append(rec.verdict.status)
            writer.writerow(row)
        return buf.getvalue()


def _thin_solved(dq: DoubleQuiver, d, field: Field, budget: int) -> tuple[list, list, list, Callable]:
    """The live arrows of a thin d, the field's elements, the product vectors and the relation re-check.

    The relation variety is solved, not filtered.  On a thin module the
    relation at vertex v is linear in the products p_a = x_{a*} x_a of the
    live base arrows: sum_a ((a.src == v) - (a.dst == v)) p_a = 0.  So the
    product vectors are the kernel of that signed incidence matrix (q^k of
    them; k = 0 on a tree, 1 on a cycle), and each p_a lifts to its arrow
    pairs: (x, p_a / x) for x != 0 when p_a != 0, else (0, y) for any y and
    (x, 0) for x != 0.  ``dq.arrows`` lists the base arrows, then their
    stars in the same order, so live is base + stars and a value tuple over
    live is xs + ys.

    The checks, the kernel and the count run at the call: p lifts to
    prod_a (q - 1 if p_a != 0 else 2q - 1) tuples, and SearchBudgetExceeded
    comes when their sum, or first the p = 0 term alone, passes the budget.
    The re-check returns a tuple that holds every relation, and raises
    InternalInvariantError on one that breaks one.
    """
    if len(d) != dq.vertex_count or any(x < 0 for x in d):
        raise ShapeError("thin enumeration needs one nonnegative dimension per vertex")
    if any(x > 1 for x in d):
        raise UnsupportedShape("enumeration is implemented for thin dimension vectors")
    if not field.is_finite:
        raise UnsupportedShape("enumeration needs a finite field")
    q = field.order
    z = field.zero()
    live = _live_arrows(dq, d)
    base = live[: len(live) // 2]
    support = _support(d)
    incidence = [
        {i: field.from_int((a.src == v) - (a.dst == v)) for i, a in enumerate(base) if v in (a.src, a.dst)}
        for v in support
    ]
    null = null_space(field, *back_substitute(field, forward_pass(field, incidence, len(base))), len(base))
    # p = 0 alone lifts to (2q - 1)^|base| >= q^k tuples, a floor on the count checked before any element is listed
    if (2 * q - 1) ** len(base) > budget:
        raise SearchBudgetExceeded(f"{2 * q - 1}^{len(base)} value tuples exceed budget {budget}")
    elements = list(field.elements()) if base else []
    coeffs = list(itertools.product(elements, repeat=len(null)))
    products = _mul_rows(field, coeffs, _dense(field, null, len(base)), len(base))
    count = sum(math.prod(q - 1 if pa != z else 2 * q - 1 for pa in p) for p in products)
    if count > budget:
        raise SearchBudgetExceeded(f"{count} value tuples exceed budget {budget}")
    pos = {a.aid: i for i, a in enumerate(live)}
    relations_at = [
        [(sign, pos[aid], pos[sid]) for sign, aid, sid in dq.relations[v].terms if aid in pos]
        for v in support
    ]

    def check(values: tuple) -> tuple:
        for terms in relations_at:
            acc = z
            for sign, i, j in terms:
                term = field.mul(values[j], values[i])
                acc = field.add(acc, term) if sign > 0 else field.sub(acc, term)
            if acc != z:
                raise InternalInvariantError("solved thin module breaks a preprojective relation")
        return values

    return live, elements, products, check


def enumerate_thin_reps(
    dq: DoubleQuiver,
    d: DimensionVector,
    field: Field,
    budget: int = SEARCH_BUDGET,
) -> Iterable[Representation]:
    """All relation-satisfying thin representations with the given dimensions, each built by ``_thin_rep``.

    Value tuples come in lexicographic order, with the live arrows taken in
    ``dq.arrows`` order: the order in which a scan of all q^|live|
    assignments would meet them.  Only the star values sharing one base
    tuple are sorted, so memory stays bounded by the largest such group.
    ``_thin_solved`` checks the input and charges the count at the first
    read; the verification suites read their thin modules here.
    """
    live, elements, products, check = _thin_solved(dq, d, field, budget)
    z = field.zero()
    for xs in itertools.product(elements, repeat=len(live) // 2):
        # lift every product vector through xs: x_a != 0 forces y_a = p_a / x_a,
        # x_a = 0 needs p_a = 0 and leaves y_a free
        ys = [
            y
            for p in products if all(x != z or pa == z for x, pa in zip(xs, p))
            for y in itertools.product(*([field.div(pa, x)] if x != z else elements for x, pa in zip(xs, p)))
        ]
        for y in sorted(ys):
            yield _thin_rep(dq, field, d, live, check(xs + y))


def moduli_scan(
    dq: DoubleQuiver,
    d: DimensionVector,
    theta: StabilityParameter,
    field: Field,
    budget: int = SEARCH_BUDGET,
) -> ModuliScan:
    """The isomorphism classes of the semistable thin representations, sorted by canonical value.

    A class is a gauge orbit; its product vector p and its arrow pattern are
    gauge invariants, and its canonical tuple (``rep._thin_canonical``) holds
    one on the pattern's gauge walk (``rep._gauge_ones``).  So the classes
    are listed on that slice: for each product vector and each choice, per
    zero product, of the base arrow, its star or neither being nonzero, the
    pattern's verdict is read once from the pattern memo (``_thin_verdict``),
    and an unstable pattern lifts no tuple.  A semistable pattern lifts with
    its walk arrows one, each other nonzero pair (x, p_a / x), (x, 0) or
    (0, y) with x, y nonzero, and every other arrow zero: each tuple is its
    own canonical form, so each class comes out once.  Its module is built
    from that tuple on the first read of ``ScanRecord.rep``, so a scan that
    only prints builds none.  ``_thin_solved`` still charges the variety's
    point count to the budget before the first class, and every tuple passes
    its relation re-check before it makes a record.
    """
    dims = DimensionVector(d)
    live, elements, products, check = _thin_solved(dq, dims, field, budget)
    support = tuple(_support(dims))
    n = len(live) // 2  # base arrow i has its star at live index i + n
    z, one = field.zero(), field.one()
    units = [x for x in elements if x != z]
    records = []
    for p in products if theta.scaled(dims) == 0 else ():  # off the theta-kernel nothing is semistable
        # a zero product leaves both arrows zero, or the base arrow or its star nonzero; another leaves both nonzero
        choices = ([(), (i,), (i + n,)] if pa == z else [(i, i + n)] for i, pa in enumerate(p))
        for picks in itertools.product(*choices):
            pattern = tuple((i, live[i].src, live[i].dst) for i in sorted(itertools.chain.from_iterable(picks)))
            verdict = _thin_verdict(dims, pattern, theta.numerators)
            if not verdict.semistable:
                continue
            nonzero = {i for i, _, _ in pattern}
            ones = _gauge_ones(support, pattern)
            pairs = []  # the (x_a, y_a) of each base arrow on the slice
            for i, pa in enumerate(p):
                if i in ones:  # y_a = p_a / 1, zero when the star is zero
                    pairs.append([(one, pa)])
                elif i + n in ones:
                    pairs.append([(pa, one)])
                elif pa != z:
                    pairs.append([(x, field.div(pa, x)) for x in units])
                elif i in nonzero:
                    pairs.append([(x, z) for x in units])
                elif i + n in nonzero:
                    pairs.append([(z, y) for y in units])
                else:
                    pairs.append([(z, z)])
            for pair in itertools.product(*pairs):
                values = check(tuple(x for x, _ in pair) + tuple(y for _, y in pair))
                records.append(
                    ScanRecord(
                        verdict=verdict,
                        canonical=_format_canonical(field, dims, live, values),
                        build_rep=functools.partial(_thin_rep, dq, field, dims, live, values),
                    )
                )
    records.sort(key=lambda rec: rec.canonical)
    return ModuliScan(dq=dq, field=field, d=dims, theta=theta, records=records)
