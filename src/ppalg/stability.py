"""Stability verdicts, submodule enumeration, S-equivalence for thin modules,
and exhaustive moduli scans over small finite fields.

Stability only ever needs the set of dimension vectors realized by
submodules: the value of a parameter on a submodule depends on its dimension
vector alone.  Thin modules admit a combinatorial backend (vertex supports
closed under nonzero arrows); small finite fields admit a brute-force
subspace backend, and the two agree on their common domain.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

from .errors import InternalInvariantError, SearchBudgetExceeded, UnsupportedShape
from .fields import Field
from .linalg import Matrix
from .quiver import DimensionVector, DoubleQuiver
from .rep import Representation, VertexSubspaces
from .weyl import StabilityParameter

DEFAULT_SUBSPACE_BUDGET = 10**7
DEFAULT_SCAN_BUDGET = 10**7


def is_thin(m: Representation) -> bool:
    return all(d <= 1 for d in m.dims)


def _support(m: Representation) -> tuple[int, ...]:
    return tuple(v for v in range(m.dq.vertex_count) if m.dims[v] == 1)


def closed_supports(m: Representation) -> list[frozenset]:
    """Vertex supports of thin submodules: subsets closed under nonzero arrows."""
    support = _support(m)
    push = []
    for a in m.dq.arrows:
        if m.dims[a.src] == 1 and m.dims[a.dst] == 1 and not m.mats[a.aid].is_zero():
            push.append((a.src, a.dst))
    out = []
    for r in range(len(support) + 1):
        for subset in itertools.combinations(support, r):
            s = frozenset(subset)
            if all(not (x in s and y not in s) for x, y in push):
                out.append(s)
    return out


def _subspaces(field: Field, dim: int) -> list[Matrix]:
    """All subspaces of field^dim as canonical column-basis matrices."""
    if not field.is_finite:
        raise UnsupportedShape("subspace enumeration needs a finite field")
    elements = list(field.elements())
    out = [Matrix.zero(field, dim, 0)]
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free_pos = []
            for r, p in enumerate(pivots):
                for c in range(p + 1, dim):
                    if c not in pivots:
                        free_pos.append((r, c))
            for values in itertools.product(elements, repeat=len(free_pos)):
                rows = [[field.zero()] * dim for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = field.one()
                for (r, c), v in zip(free_pos, values):
                    rows[r][c] = v
                out.append(Matrix(field, k, dim, rows).transpose())
    return out


def subspace_count(q: int, dim: int) -> int:
    total = 0
    for k in range(dim + 1):
        num, den = 1, 1
        for i in range(k):
            num *= q ** (dim - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _closed_subspace_tuples(
    m: Representation, budget: int, beta: Optional[DimensionVector] = None
):
    """Brute-force search: every arrow-closed subspace tuple, in subspace-product order.

    With ``beta`` only the tuples of that dimension vector are tried.
    """
    if not m.field.is_finite:
        raise UnsupportedShape("brute-force submodule search needs a finite field")
    q = m.field.order
    total = 1
    for d in m.dims:
        total *= subspace_count(q, d)
        if total > budget:
            raise SearchBudgetExceeded(f"subspace tuples exceed budget {budget}")
    per_vertex = [_subspaces(m.field, d) for d in m.dims]
    if beta is not None:
        per_vertex = [[u for u in us if u.cols == k] for us, k in zip(per_vertex, beta)]
    for combo in itertools.product(*per_vertex):
        candidate = VertexSubspaces(module=m, spans=tuple(combo))
        if candidate.is_arrow_closed():
            yield candidate


def submodule_dimvecs(
    m: Representation, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> set[DimensionVector]:
    """Dimension vectors of all submodules, including zero and the whole module."""
    if is_thin(m):
        n = m.dq.vertex_count
        return {
            DimensionVector(1 if v in s else 0 for v in range(n)) for s in closed_supports(m)
        }
    return {candidate.dims() for candidate in _closed_subspace_tuples(m, budget)}


def realize_submodule(
    m: Representation, beta: DimensionVector
) -> Optional[VertexSubspaces]:
    """An arrow-closed subspace tuple with the requested dimension vector.

    Thin modules are answered from their closed supports; otherwise the
    brute-force subspace search runs, returning the first closed tuple found.
    """
    beta = DimensionVector(beta)
    if is_thin(m):
        n = m.dq.vertex_count
        for s in closed_supports(m):
            if DimensionVector(1 if v in s else 0 for v in range(n)) == beta:
                spans = tuple(
                    Matrix.identity(m.field, 1) if v in s else Matrix.zero(m.field, m.dims[v], 0)
                    for v in range(n)
                )
                return VertexSubspaces(module=m, spans=spans)
        return None
    return next(_closed_subspace_tuples(m, DEFAULT_SUBSPACE_BUDGET, beta), None)


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # Stable | StrictlySemistable | Unstable | NotInThetaKernel
    witness: Optional[DimensionVector] = None

    @property
    def semistable(self) -> bool:
        return self.status in ("Stable", "StrictlySemistable")


def stability_verdict(
    m: Representation, theta: StabilityParameter, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> StabilityVerdict:
    """King-style verdict with a witness dimension vector when one exists."""
    if theta(m.dims) != 0:
        return StabilityVerdict(status="NotInThetaKernel")
    zero = DimensionVector.zero(m.dq.vertex_count)
    proper = sorted(
        b for b in submodule_dimvecs(m, budget=budget) if b != zero and b != m.dims
    )
    for beta in proper:
        if theta(beta) < 0:
            return StabilityVerdict(status="Unstable", witness=beta)
    for beta in proper:
        if theta(beta) == 0:
            return StabilityVerdict(status="StrictlySemistable", witness=beta)
    return StabilityVerdict(status="Stable")


# -- thin isomorphism canonicalization --------------------------------------


def thin_canonical_values(m: Representation) -> tuple:
    """Gauge-canonical arrow values of a thin module.

    A spanning forest of the nonzero-arrow graph is rescaled to ones (roots
    get gauge one, chosen as the smallest vertex per component); the remaining
    cycle values are complete isomorphism invariants.  A gauge depends only on
    the forest path from its root, so the walk order does not matter.
    """
    if not is_thin(m):
        raise UnsupportedShape("canonical values are defined for thin modules")
    f = m.field
    nonzero = [a for a in m.dq.arrows if m.dims[a.src] == 1 and m.dims[a.dst] == 1 and not m.mats[a.aid].is_zero()]
    parent = {v: v for v in _support(m)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    adj: dict[int, list] = {v: [] for v in parent}
    for a in nonzero:
        rs, rt = find(a.src), find(a.dst)
        if rs != rt:
            parent[rs] = rt
            adj[a.src].append((a.dst, a, True))
            adj[a.dst].append((a.src, a, False))
    gauge = {}
    for root in parent:  # ascending, so each tree is entered at its smallest vertex
        if root in gauge:
            continue
        gauge[root] = f.one()
        stack = [root]
        while stack:
            v = stack.pop()
            for w, a, forward in adj[v]:
                if w in gauge:
                    continue
                val = m.mats[a.aid].data[0][0]
                # choose gauge so the tree arrow value becomes one:
                # forward edge v -> w fixes g_w = g_v / val, reversed w -> v
                # fixes g_w = g_v * val
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


def thin_canonical_rep(m: Representation) -> Representation:
    _, values = thin_canonical_values(m)
    mats = {
        aid: Matrix(m.field, 1, 1, [[m.field.parse_scalar(s)]]) for aid, s in values
    }
    return Representation.build(m.dq, m.field, m.dims, mats)


def restrict_to_support(m: Representation, support: frozenset) -> Representation:
    """Thin submodule (or quotient) on a vertex subset, arrows restricted."""
    dims = [1 if (v in support and m.dims[v] == 1) else 0 for v in range(m.dq.vertex_count)]
    mats = {}
    for a in m.dq.arrows:
        if dims[a.src] == 1 and dims[a.dst] == 1:
            mats[a.aid] = m.mats[a.aid]
    return Representation.build(m.dq, m.field, dims, mats)


def sequiv_class(m: Representation, theta: StabilityParameter) -> tuple:
    """Multiset of stable graded pieces of a semistable thin module.

    Greedy filtration: restrict to a minimal closed support of parameter
    value zero (that piece is stable), pass to the complementary quotient,
    and recurse.  The result is a sorted tuple of canonical piece tags.
    """
    if not is_thin(m):
        raise UnsupportedShape("associated graded pieces implemented for thin modules")
    verdict = stability_verdict(m, theta)
    if not verdict.semistable:
        raise UnsupportedShape(f"module is not semistable: {verdict.status}")
    pieces = []
    cur = m
    while any(d != 0 for d in cur.dims):
        supports = [
            s
            for s in closed_supports(cur)
            if s and theta(DimensionVector(1 if v in s else 0 for v in range(m.dq.vertex_count))) == 0
        ]
        best = min(supports, key=lambda s: (len(s), tuple(sorted(s))))
        piece = restrict_to_support(cur, best)
        pieces.append(thin_canonical_values(piece))
        remaining = frozenset(_support(cur)) - best
        cur = restrict_to_support(cur, remaining)
    return tuple(sorted(pieces))


# -- moduli scans ------------------------------------------------------------


@dataclass
class ScanRecord:
    rep: Representation
    verdict: StabilityVerdict
    canonical: tuple
    e_flags: dict = dc_field(default_factory=dict)


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
                    "e_flags": dict(sorted(rec.e_flags.items())),
                }
                for rec in self.records
            ],
        }

    def to_csv(self) -> str:
        arrow_ids = [a.aid for a in self.dq.arrows]
        flag_names = sorted({k for rec in self.records for k in rec.e_flags})
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(arrow_ids + ["status"] + flag_names)
        for rec in self.records:
            values = dict(rec.canonical[1])
            row = [values.get(aid, "0") for aid in arrow_ids]
            row.append(rec.verdict.status)
            row += ["1" if rec.e_flags.get(k) else "0" for k in flag_names]
            writer.writerow(row)
        return buf.getvalue()


def enumerate_thin_reps(
    dq: DoubleQuiver,
    d: DimensionVector,
    field: Field,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> Iterable[Representation]:
    """All relation-satisfying thin representations with the given dimensions.

    The relation variety is solved, not filtered.  On a thin module the
    relation at vertex v is linear in the products p_a = x_{a*} x_a of the
    live base arrows: sum_a ((a.src == v) - (a.dst == v)) p_a = 0.  So the
    product vectors are the kernel of that signed incidence matrix (q^k of
    them; k = 0 on a tree, 1 on a cycle), and each p_a lifts to its arrow
    pairs: (x, p_a / x) for x != 0 when p_a != 0, else (0, y) for any y and
    (x, 0) for x != 0.

    Modules come in lexicographic order of their values on the live arrows,
    taken in ``dq.arrows`` order: the order in which a scan of all
    q^|live| assignments would meet them.  The base-arrow values run in
    lexicographic order and only the star values sharing one of them are
    sorted, so memory stays bounded by the largest such group.  The budget
    still bounds q^|live|.  Each module's relations are re-checked as scalar
    sums before it is built.
    """
    if any(x > 1 for x in d):
        raise UnsupportedShape("enumeration is implemented for thin dimension vectors")
    if not field.is_finite:
        raise UnsupportedShape("enumeration needs a finite field")
    live = [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]
    q = field.order
    if q ** len(live) > budget:
        raise SearchBudgetExceeded(f"{q}^{len(live)} assignments exceed budget {budget}")
    z = field.zero()
    elements = list(field.elements())
    # dq.arrows lists the base arrows, then their stars in the same order, so
    # live is base + stars and a value tuple over live is xs + ys
    base = [a for a in live if a in dq.base.arrows]
    support = [v for v in range(dq.vertex_count) if d[v] == 1]
    incidence = Matrix(
        field,
        len(support),
        len(base),
        [[field.from_int((a.src == v) - (a.dst == v)) for a in base] for v in support],
    )
    kernel = incidence.kernel_basis()
    products = [
        kernel.mul(Matrix.column(field, coeffs)).column_vector(0)
        for coeffs in itertools.product(elements, repeat=kernel.cols)
    ]
    pos = {a.aid: i for i, a in enumerate(live)}
    relations_at = [
        [(sign, pos[aid], pos[sid]) for sign, aid, sid in dq.relations[v].terms if aid in pos]
        for v in support
    ]
    for xs in itertools.product(elements, repeat=len(base)):
        # lift every product vector through xs: x_a != 0 forces y_a = p_a / x_a,
        # x_a = 0 needs p_a = 0 and leaves y_a free
        ys = []
        for p in products:
            if all(x != z or pa == z for x, pa in zip(xs, p)):
                ys.extend(
                    itertools.product(
                        *([field.div(pa, x)] if x != z else elements for x, pa in zip(xs, p))
                    )
                )
        for y in sorted(ys):
            values = xs + y
            for terms in relations_at:
                acc = z
                for sign, i, j in terms:
                    term = field.mul(values[j], values[i])
                    acc = field.add(acc, term) if sign > 0 else field.sub(acc, term)
                if acc != z:
                    raise InternalInvariantError("solved thin module breaks a preprojective relation")
            mats = {a.aid: Matrix(field, 1, 1, [[v]]) for a, v in zip(live, values)}
            yield Representation.build(dq, field, d, mats)


def moduli_scan(
    dq: DoubleQuiver,
    d: DimensionVector,
    theta: StabilityParameter,
    field: Field,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> ModuliScan:
    """Group the semistable thin representations into isomorphism classes."""
    seen: dict[tuple, ScanRecord] = {}
    for rep in enumerate_thin_reps(dq, d, field, budget=budget):
        verdict = stability_verdict(rep, theta)
        if not verdict.semistable:
            continue
        canonical = thin_canonical_values(rep)
        if canonical not in seen:
            seen[canonical] = ScanRecord(
                rep=thin_canonical_rep(rep), verdict=verdict, canonical=canonical
            )
    records = [seen[k] for k in sorted(seen)]
    return ModuliScan(dq=dq, field=field, d=DimensionVector(d), theta=theta, records=records)
