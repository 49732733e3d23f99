"""Finite dimensional modules over a preprojective algebra as matrix data.

A representation assigns a vector space to each vertex and a matrix to each
arrow of the double quiver, subject to the preprojective relations.  The
column-vector convention is used throughout: the matrix of arrow ``a`` has
shape dims[target] x dims[source], and the path "a then b" acts as M_b . M_a.
Representations are immutable; all operations are pure.  Each one carries
its relation verdict, decided when it is built.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from .errors import FieldMismatch, Inconclusive, PreconditionViolated, ShapeError, UsageError
from .fields import Field, _is_int, check_same_field, field_from_json
from .linalg import Matrix, _dense, _mul_rows, back_substitute, forward_pass, hstack_all, null_space
from .quiver import DimensionVector, DoubleQuiver

MORPHISM_SCAN_BUDGET = 10**5  # combinations a morphism scan tries before it raises Inconclusive
PATTERN_MEMO = 4096  # entries kept by each memo keyed by a thin arrow pattern: gauge walks, closed supports, verdicts
PLAN_MEMO = 1024  # compiled hom and Ext system layouts kept, over every quiver
MAX_MODULE_DIM = 64  # total dimension accepted from a module file


@dataclass(frozen=True, eq=False)
class Representation:
    """One block per arrow, and ``_violated``: the vertices where the preprojective relation fails.

    A builder that proved the verdict (``_thin_rep``, ``block_module``,
    ``reflection._reflect``) passes it; any other construction sums every
    vertex once, in ``__post_init__``.  Equality and hashing ignore it.
    """

    dq: DoubleQuiver
    field: Field
    dims: DimensionVector
    mats: Mapping[str, Matrix]
    _violated: Optional[tuple] = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self._violated is None:
            violated = tuple(v for v, n in enumerate(self.dims) if n and any(map(any, self._relation_rows(v))))
            object.__setattr__(self, "_violated", violated)

    def is_zero_module(self) -> bool:
        return all(d == 0 for d in self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.dq == other.dq
            and self.field == other.field
            and self.dims == other.dims
            and dict(self.mats) == dict(other.mats)
        )

    def __hash__(self):
        return hash((self.dq, self.field, self.dims, tuple(sorted((k, v) for k, v in self.mats.items()))))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(
        dq: DoubleQuiver,
        field: Field,
        dims: Sequence[int],
        mats: Optional[Mapping[str, Matrix]] = None,
    ) -> "Representation":
        """Assemble a representation, filling unspecified arrows with zero maps.

        A key of ``mats`` that is not an arrow, or a dims entry that is not an int, raises ShapeError.
        """
        dims = DimensionVector(dims)
        if len(dims) != dq.vertex_count:
            raise ShapeError("dimension vector length mismatch")
        if not dims.is_nonnegative():
            raise ShapeError("negative vertex dimension")
        full: dict[str, Matrix] = {}
        mats = mats or {}
        _check_arrow_ids(dq, mats)
        for a in dq.arrows:
            want = (dims[a.dst], dims[a.src])
            m = mats.get(a.aid)
            if m is None:
                m = Matrix.zero(field, *want)
            if m.field != field:
                raise FieldMismatch(f"arrow {a.aid} matrix over wrong field")
            if (m.rows, m.cols) != want:
                raise ShapeError(f"arrow {a.aid} expects shape {want}, got {(m.rows, m.cols)}")
            full[a.aid] = m
        return Representation(dq, field, dims, full, _violated=None if mats else ())  # zero maps satisfy the relations

    @staticmethod
    def simple(dq: DoubleQuiver, field: Field, i: int) -> "Representation":
        """The vertex simple: the thin module of ``dq.unit(i)``, which has no live arrow, so no relation sum."""
        return _thin_rep(dq, field, dq.unit(i), (), ())

    def direct_sum(self, other: "Representation") -> "Representation":
        """The block-diagonal module, ``block_module`` with no corner; its verdict is the union of the summands'."""
        return block_module(self, other, {})

    # -- preprojective relations --------------------------------------------

    def _relation_rows(self, v: int) -> list[list]:
        """The rows of the relation sum at v, ``_relation_sum`` over the blocks of ``dq.relations[v]``."""
        mats = self.mats
        terms = [(sign, mats[aid].data, mats[sid].data) for sign, aid, sid in self.dq.relations[v].terms]
        return _relation_sum(self.field, self.dims[v], terms)

    def check_relations(self) -> list[int]:
        """Vertices where the preprojective relation fails (empty list = valid)."""
        return list(self._violated)

    # -- structure ---------------------------------------------------------

    def _image_into(self, v: int, spans: Sequence[Matrix]) -> Matrix:
        """The column spans at the arrow sources carried along the arrows into v, side by side."""
        images = [self.mats[a.aid].mul(spans[a.src]) for a in self.dq.arrows_in(v)]
        return hstack_all(self.field, self.dims[v], images)

    def is_nilpotent(self) -> bool:
        """Whether some power of the arrow ideal annihilates the module.

        The powers are canonical column spans per vertex, each inside the
        last, so the chain either shrinks to zero or stops at a nonzero power.
        """
        spans = [Matrix.identity(self.field, d) for d in self.dims]
        while any(s.cols for s in spans):
            nxt = [self._image_into(v, spans).image_basis() for v in range(self.dq.vertex_count)]
            if [s.cols for s in nxt] == [s.cols for s in spans]:
                return False
            spans = nxt
        return True

    def is_zero_generated(self) -> bool:
        """Generated by a one dimensional piece at the extending vertex 0."""
        if self.dims[0] != 1:
            return False
        f = self.field
        spans = [Matrix.identity(f, 1)] + [Matrix.zero(f, d, 0) for d in self.dims[1:]]
        while True:
            grown = [
                hstack_all(f, d, (spans[v], self._image_into(v, spans))).image_basis()
                for v, d in enumerate(self.dims)
            ]
            if [s.cols for s in grown] == [s.cols for s in spans]:
                return list(self.dims) == [s.cols for s in spans]
            spans = grown

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "quiver": self.dq.to_json(),
            "field": self.field.to_json(),
            "dims": list(self.dims),
            "mats": {aid: m.to_json() for aid, m in sorted(self.mats.items())},
        }

    @staticmethod
    def from_json(data: dict) -> "Representation":
        """Parse a module payload; a malformed one raises UsageError naming its JSON path."""
        if not isinstance(data, dict):
            raise UsageError(f"module: expected an object, got {type(data).__name__}")
        dq = DoubleQuiver.from_json(data.get("quiver"))
        field = field_from_json(data.get("field"))
        dims, raw = data.get("dims"), data.get("mats")
        if not (isinstance(dims, list) and len(dims) == dq.vertex_count and all(_is_int(x) and x >= 0 for x in dims)):
            raise UsageError(f"dims: expected {dq.vertex_count} nonnegative integers, one per vertex")
        dims = DimensionVector(dims)
        if dims.total() > MAX_MODULE_DIM:
            raise UsageError(f"dims: total dimension {dims.total()} is above the cap {MAX_MODULE_DIM}")
        if not isinstance(raw, dict):
            raise UsageError("mats: expected an object keyed by arrow id")
        unknown = sorted(raw.keys() - {a.aid for a in dq.arrows})
        if unknown:
            raise UsageError(f"mats.{unknown[0]}: not an arrow of the quiver")
        mats = {}
        for a in dq.arrows:
            if raw.get(a.aid) is not None:
                try:
                    mats[a.aid] = Matrix.from_json(field, raw[a.aid], dims[a.dst], dims[a.src])
                except (ShapeError, FieldMismatch, TypeError, ValueError, ArithmeticError) as exc:
                    raise UsageError(f"mats.{a.aid}: {exc!r}") from None
        return Representation.build(dq, field, dims, mats)


def _check_arrow_ids(dq: DoubleQuiver, mats: Mapping[str, Matrix]) -> None:
    """ShapeError naming the first key of ``mats`` that is not an arrow of the quiver."""
    unknown = sorted(mats.keys() - dq.star.keys())  # star is keyed by every arrow id
    if unknown:
        raise ShapeError(f"{unknown[0]} is not an arrow of the quiver")


def _check_pair(m: Representation, n: Representation) -> None:
    """FieldMismatch unless m and n share one field, ShapeError unless one quiver (``DoubleQuiver.__eq__``)."""
    check_same_field(m.field, n.field)
    if m.dq != n.dq:
        raise ShapeError("modules over different quivers")


def _relation_sum(f: Field, n: int, terms, width: Optional[int] = None) -> list:
    """The rows of sum eps(a) M_{a*} . M_a, n x width, over (sign, rows of M_a, rows of M_{a*}) triples.

    The one relation sum, of a module, of the blocks a reflection step
    builds and of the corner of a ``block_module``, accumulated in one pass;
    the width is n unless given.  Zero entries are skipped by truth value.
    """
    add, sub, mul = f.add, f.sub, f.mul
    acc = [(f.zero(),) * (n if width is None else width)] * n
    for sign, arrow, star in terms:
        # acc += eps(a) M_{a*} . M_a, the sign folded into add or sub
        op = add if sign > 0 else sub
        for r, star_row in enumerate(star):
            row = acc[r]
            for s, arrow_row in zip(star_row, arrow):
                if s:
                    row = [op(y, mul(s, x)) if x else y for y, x in zip(row, arrow_row)]
            acc[r] = row
    return acc


def _require_relations(name: str, m: Representation) -> None:
    """PreconditionViolated naming the vertices where ``m`` fails its relations, read off its verdict."""
    if m._violated:
        raise PreconditionViolated(f"{name} fails the preprojective relations at vertices {list(m._violated)}")


def block_module(sub: Representation, quot: Representation, phi: Mapping[str, Matrix]) -> Representation:
    """The module on sub (+) quot whose arrow a acts by [[sub_a, phi_a], [0, quot_a]].

    ``sub`` is a submodule with quotient ``quot``; an arrow missing from
    ``phi`` gets a zero corner, so ``phi = {}`` gives the direct sum.  The
    pair must share one field and one quiver (``_check_pair``), and each
    key and corner of ``phi`` is checked here, as ``build`` checks its
    ``mats``, so the result skips ``build``.

    The relation sum at v is block upper-triangular, with the sums of
    ``sub`` and ``quot`` on the diagonal and the corner
    sum eps(a) (sub_{a*} . phi_a + phi_{a*} . quot_a).  So the result is
    built with the union of the two verdicts and the vertices where that
    corner is nonzero as its verdict, with no sum over the full blocks.
    """
    _check_pair(sub, quot)
    _check_arrow_ids(sub.dq, phi)
    f = sub.field
    z = f.zero()
    mats = {}
    for a in sub.dq.arrows:
        top, bottom = sub.mats[a.aid], quot.mats[a.aid]
        corner = phi.get(a.aid)
        if corner is None:
            corner_rows = ((z,) * bottom.cols,) * top.rows
        else:
            check_same_field(f, corner.field)
            if (corner.rows, corner.cols) != (top.rows, bottom.cols):
                raise ShapeError(f"arrow {a.aid} corner must be {top.rows}x{bottom.cols}")
            corner_rows = corner.data
        pad = (z,) * top.cols
        rows = [t + c for t, c in zip(top.data, corner_rows)] + [pad + b for b in bottom.data]
        mats[a.aid] = Matrix._of(f, top.rows + bottom.rows, top.cols + bottom.cols, rows)
    violated = {*sub._violated, *quot._violated}
    corners = {aid: c.data for aid, c in phi.items()}  # a missing corner has no rows to sum
    for v, rel in enumerate(sub.dq.relations):
        n, width = sub.dims[v], quot.dims[v]
        if corners and n and width and v not in violated:
            terms = []
            for sign, aid, sid in rel.terms:  # sub_{a*} . phi_a and phi_{a*} . quot_a
                terms.append((sign, corners.get(aid, ()), sub.mats[sid].data))
                terms.append((sign, quot.mats[aid].data, corners.get(sid, ())))
            if any(map(any, _relation_sum(f, n, terms, width))):
                violated.add(v)
    return Representation(sub.dq, f, sub.dims + quot.dims, mats, _violated=tuple(sorted(violated)))


def _layout(shapes) -> tuple[dict, int]:
    """The offset of each (key, rows, cols) block when flattened in order, and the total length."""
    at, pos = {}, 0
    for key, r, c in shapes:
        at[key] = (pos, r, c)
        pos += r * c
    return at, pos


def _vertex_blocks(dq: DoubleQuiver, m_dims, n_dims) -> list:
    """The (vertex, rows, cols) blocks of a family of maps m_v -> n_v: the unknowns of d1, the equations of d2."""
    return [(v, n_dims[v], m_dims[v]) for v in range(dq.vertex_count)]


def _arrow_blocks(dq: DoubleQuiver, m_dims, n_dims) -> list:
    """The (arrow id, rows, cols) blocks of a family of maps m_src -> n_dst: the equations of d1, the unknowns of d2."""
    return [(a.aid, n_dims[a.dst], m_dims[a.src]) for a in dq.arrows]


def unflatten(field: Field, vec: dict, shapes) -> dict:
    """Cut a sparse vector ``{position: entry}`` into matrices, one per (key, rows, cols) triple, row-major.

    The entries are trusted: ``vec`` must come from a computation over ``field``.
    """
    at, _ = _layout(shapes)
    z = field.zero()
    return {
        key: Matrix._of(field, r, c, [[vec.get(pos + i * c + j, z) for j in range(c)] for i in range(r)])
        for key, (pos, r, c) in at.items()
    }


@functools.lru_cache(maxsize=PLAN_MEMO)
def system_plan(dq: DoubleQuiver, layout, m_dims, n_dims) -> tuple:
    """The compiled layout of one system on a pair of dimension vectors, memoized.

    ``layout(dq, m_dims, n_dims)`` gives the equation and the unknown blocks,
    (key, rows, cols) triples flattened in order, row-major, and the terms
    ``(eq, sign, var, right, key)``: sign . L . X_var into block ``eq``, or
    sign . X_var . R when ``right``, with L = ``matrices[0][key]`` and
    R = ``matrices[1][key]`` of ``linear_system``.  The plan is the row and
    column counts and ``(right, negate, key, e0, ec, x0, xc, xr)`` per term
    whose blocks are both nonempty: the offset and width of the equation
    block, the offset and shape of the unknown block.  It depends only on the
    quiver's vertex count and arrows in order, which is what equal quivers
    share, so they share plans; ``PLAN_MEMO`` plans are kept in all.
    """
    eqs, unknowns, terms = layout(dq, m_dims, n_dims)
    eq_at, n_rows = _layout(eqs)
    var_at, n_cols = _layout(unknowns)
    live = []
    for eq, sign, var, right, block in terms:
        e0, er, ec = eq_at[eq]
        x0, xr, xc = var_at[var]
        if er and ec and xr and xc:
            live.append((right, sign < 0, block, e0, ec, x0, xc, xr))
    return n_rows, n_cols, tuple(live)


def linear_system(plan: tuple, matrices: Sequence[Mapping]) -> tuple[list[dict], int]:
    """Sparse rows of a linear map between matrix families, in the layout ``unflatten`` reads.

    ``plan`` comes from ``system_plan``, and ``matrices`` holds the families
    its left and its right factors are read from.  Only the nonzero entries
    of a block are placed, read as the triples ``Matrix.entries`` or, for
    sign -1, ``Matrix.negated_entries``, which each matrix builds once; the
    plan holds no term with an empty block, so such a block is never read.
    No two terms may touch the same entry, which holds for the systems of a
    loop-free double quiver, so each nonzero coefficient is placed once.
    Returns one ``{column: coefficient}`` dict per equation entry, with no
    zero stored (the rows ``linalg.forward_pass`` takes), and the column count.
    """
    n_rows, n_cols, terms = plan
    rows: list[dict] = [{} for _ in range(n_rows)]
    for right, negate, key, e0, ec, x0, xc, xr in terms:
        block = matrices[right][key]
        entries = block.negated_entries if negate else block.entries
        if right:
            # (X R)[r][c] = sum_k X[r][k] R[k][c]
            for k, c, coeff in entries:
                for r in range(xr):
                    rows[e0 + r * ec + c][x0 + r * xc + k] = coeff
        else:
            # (L X)[r][c] = sum_k L[r][k] X[k][c], and ec = xc
            for r, k, coeff in entries:
                e, x = e0 + r * ec, x0 + k * xc
                for c in range(ec):
                    rows[e + c][x + c] = coeff
    return rows, n_cols


def _hom_layout(dq: DoubleQuiver, m_dims, n_dims) -> tuple:
    """d1 for maps m -> n, read with the families (n.mats, m.mats): the block of arrow a is n_a . phi_src - phi_dst . m_a."""
    terms = [t for a in dq.arrows for t in ((a.aid, 1, a.src, False, a.aid), (a.aid, -1, a.dst, True, a.aid))]
    return _arrow_blocks(dq, m_dims, n_dims), _vertex_blocks(dq, m_dims, n_dims), terms


def hom_system(m: "Representation", n: "Representation") -> tuple[list[dict], int]:
    """Sparse rows and column count of the intertwining system (d1) for maps m -> n.

    Unknowns are one matrix phi_v per vertex (shape n.dims[v] x m.dims[v],
    the blocks of ``_vertex_blocks``); the equation block of arrow a is
    n_a . phi_src - phi_dst . m_a.  Every Hom and Ext entry point builds
    this first, so the pair is checked here.
    """
    _check_pair(m, n)
    return linear_system(system_plan(m.dq, _hom_layout, m.dims, n.dims), (n.mats, m.mats))


def hom_basis(m: Representation, n: Representation) -> list[dict[int, Matrix]]:
    """Canonical basis of the space of module maps m -> n: the null vectors of the reduced d1."""
    rows, cols = hom_system(m, n)
    tails, pivots = back_substitute(m.field, forward_pass(m.field, rows, cols))
    shapes = _vertex_blocks(m.dq, m.dims, n.dims)
    return [unflatten(m.field, vec, shapes) for vec in null_space(m.field, tails, pivots, cols)]


def hom_dim(m: Representation, n: Representation) -> int:
    rows, cols = hom_system(m, n)
    return cols - len(forward_pass(m.field, rows, cols))


def morphism_is_injective(phi: dict[int, Matrix]) -> bool:
    return all(mat.rank() == mat.cols for mat in phi.values())


def combination(field: Field, basis: Sequence[dict], coeffs) -> dict:
    """The linear combination sum_i coeffs[i] * basis[i] of same-keyed matrix families."""
    add, mul, z = field.add, field.mul, field.zero()
    scaled = [(c, phi) for c, phi in zip(coeffs, basis) if c != z]
    out = {}
    for key, first in basis[0].items():
        rows = [[z] * first.cols for _ in range(first.rows)]
        for c, phi in scaled:
            for r, j, x in phi[key].entries:
                rows[r][j] = add(rows[r][j], mul(c, x))
        out[key] = Matrix._of(field, first.rows, first.cols, rows)
    return out


def nonzero_morphisms(field: Field, basis: Sequence[dict], budget: int):
    """One nonzero combination of a basis of maps per line, in a shuffled order seeded with 0.

    The combinations whose last nonzero coefficient is one stand for all, as
    injectivity and invertibility survive nonzero scalars.  The others are
    the field's elements, or 0..n over QQ for a source of dimension n: there
    both fail only on the zeros of a product of minors, homogeneous of degree
    at most n and still nonzero with its last coordinate one, and n + 1
    values per coordinate hold a non-root of it (Schwartz, J. ACM 27, 1980).
    The order is a lazy Fisher-Yates shuffle of the combination indices.
    Raises Inconclusive when ``budget`` tries end before the last combination.
    """
    if not basis:
        return
    n = sum(mat.cols for mat in basis[0].values())
    grid = range(field.order) if field.is_finite else [field.from_int(k) for k in range(n + 1)]
    g = len(grid)
    size = (g ** len(basis) - 1) // (g - 1)
    rng, moved = random.Random(0), {}
    for k in range(size):
        if k == budget:
            raise Inconclusive(f"{size} nonzero combinations exceed the morphism scan budget {budget}")
        j = rng.randrange(k, size)
        index, step = moved.get(j, j), 1
        moved[j] = moved.pop(k, k)
        while index >= step:  # step = g^(L-1) combinations have their last nonzero coefficient at L
            index, step = index - step, step * g
        coeffs, x = [], step + index  # the base-g digits of x, the last one a one
        while x:
            x, digit = divmod(x, g)
            coeffs.append(grid[digit])
        yield combination(field, basis, coeffs)  # zip leaves the later coefficients zero


# -- thin modules ------------------------------------------------------------


def is_thin(m: Representation) -> bool:
    return all(d <= 1 for d in m.dims)


def _support(d) -> list[int]:
    """The vertices where a thin dimension vector is one."""
    return [v for v, x in enumerate(d) if x == 1]


def _live_arrows(dq: DoubleQuiver, d) -> list:
    """The arrows between support vertices of a thin dimension vector, in ``dq.arrows`` order."""
    return [a for a in dq.arrows if d[a.src] == 1 and d[a.dst] == 1]


def _thin_read(m: Representation) -> tuple[list, list, tuple]:
    """The live arrows of a thin module, their values (the entries of their 1x1 blocks) and their pattern."""
    live = _live_arrows(m.dq, m.dims)
    values = [m.mats[a.aid].data[0][0] for a in live]
    return live, values, _pattern(live, values)


def _thin_rep(dq: DoubleQuiver, field: Field, d, live: list, values) -> Representation:
    """The thin module of ``d`` with the values of ``live`` on its live arrows, zero elsewhere.

    A value on an arrow not live in ``d`` is dropped: the cut of a thin
    module to a closed support is its submodule there, to the complement its
    quotient.  Every block is 1x1 or zero, so ``build`` has nothing to check.
    The verdict is passed as empty, so the values must satisfy the relations:
    solver tuples, none (the simple), or a module's cut to a closed support or
    its complement.  A cut's relation sum at a kept vertex is the module's: a
    term through a dropped vertex has an arrow leaving the support, so is zero.
    """
    d = DimensionVector(d)
    value = {a.aid: x for a, x in zip(live, values) if d[a.src] == 1 == d[a.dst]}
    mats = {
        a.aid: Matrix._of(field, 1, 1, ((value[a.aid],),)) if a.aid in value else Matrix.zero(field, d[a.dst], d[a.src])
        for a in dq.arrows
    }
    return Representation(dq, field, d, mats, _violated=())


def _pattern(live: list, values) -> tuple:
    """The (live index, src, dst) of each live arrow whose value is nonzero (truthy).

    With the dimension vector, this arrow pattern is all that a thin
    module's closed supports, verdicts and gauge walk depend on: their memo key.
    """
    return tuple((i, a.src, a.dst) for i, (a, x) in enumerate(zip(live, values)) if x)


@functools.lru_cache(maxsize=PATTERN_MEMO)
def _pattern_walk(support: tuple, pattern: tuple) -> tuple:
    """The gauge walk of an arrow pattern (``_pattern``) on a thin support, memoized.

    A spanning forest of the nonzero arrows is rescaled to ones.  Each tree
    grows from its smallest vertex, whose gauge stays one, by the first
    nonzero arrow in ``live`` order with exactly one reached end (Prim's
    rule with the live index as weight, so the forest is the minimum one);
    a step (w, v, i, forward) fixes the gauge of w from that of v and the
    value on live arrow i.  The walk depends only on the pattern, not on
    the values; it is a tuple, so the shared value cannot be changed.
    """
    steps, reached = [], set()
    for root in support:  # ascending
        if root in reached:
            continue
        reached.add(root)
        while step := next(
            ((t, s, i, True) if s in reached else (s, t, i, False)
             for i, s, t in pattern if (s in reached) != (t in reached)),
            None,
        ):
            reached.add(step[0])
            steps.append(step)
    return tuple(steps)


def _gauge_ones(support: tuple, pattern: tuple) -> frozenset:
    """The live indices that every canonical tuple of an arrow pattern holds at one: its gauge walk's arrows."""
    return frozenset(i for _, _, i, _ in _pattern_walk(support, pattern))


def _thin_canonical(m: Representation) -> tuple[list, tuple]:
    """The live arrows of a thin module and its values rescaled by the gauge that the walk of their pattern fixes."""
    live, values, pattern = _thin_read(m)
    f = m.field
    z, one = f.zero(), f.one()
    gauge: dict = {}  # a tree root is absent: its gauge is one
    for w, v, i, forward in _pattern_walk(tuple(_support(m.dims)), pattern):
        # forward edge v -> w fixes g_w = g_v / val, reversed w -> v fixes g_w = g_v * val
        g = gauge.get(v, one)
        gauge[w] = f.mul(g, f.inv(values[i])) if forward else f.mul(g, values[i])
    return live, tuple(
        x if x == z else f.mul(gauge.get(a.dst, one), f.mul(x, f.inv(gauge.get(a.src, one))))
        for a, x in zip(live, values)
    )


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test.

    Two thin modules with equal dims, zero modules included, are decided by
    their gauge-canonical values, exactly over any field, QQ included: an
    isomorphism of thin modules is one nonzero scalar per vertex, and the
    cycle values left once a spanning forest of the nonzero arrows is
    rescaled to ones are complete invariants of that action.

    Other pairs are not isomorphic when dim Hom(m, n), dim End m and dim End n
    differ.  Otherwise ``nonzero_morphisms`` meets an injective map, which
    equal dims make invertible, whenever one exists and raises Inconclusive
    when ``MORPHISM_SCAN_BUDGET`` tries end first.  A pair over different
    fields or quivers raises, as for Hom.
    """
    _check_pair(m, n)  # the thin branch builds no hom system
    if m.dims != n.dims:
        return False
    if is_thin(m):
        return _thin_canonical(m)[1] == _thin_canonical(n)[1]
    basis = hom_basis(m, n)
    if not basis or hom_dim(m, m) != len(basis) or hom_dim(n, n) != len(basis):
        return False
    # equal dims make every block of a map m -> n square, so an injective one is invertible
    return any(morphism_is_injective(phi) for phi in nonzero_morphisms(m.field, basis, MORPHISM_SCAN_BUDGET))


def quotient_by_map(n: Representation, phi: dict[int, Matrix]) -> Representation:
    """The quotient of n by the image of a module map phi: s -> n.

    Each vertex v reduces phi_v^T once.  The rows of the projection P_v are
    the ``null_space`` vectors of that reduced form, so ker P_v = im phi_v;
    each row is one at its free column and zero at the other free columns,
    so the unit vectors at the free columns are a section S_v of P_v.  The
    arrow a of the quotient is P_dst . n_a . S_src: P at a's target times
    the columns of n_a at the free columns of a's source.  That phi is a
    module map is the caller's promise, and it makes the block independent
    of the section: two sections differ by a vector of im phi_src, which
    n_a carries into im phi_dst = ker P_dst.  The blocks skip ``build``'s
    checks; the verdict, which rests on that promise, is summed.
    """
    f = n.field
    projections, free = [], []
    for v, d in enumerate(n.dims):
        tails, pivots = phi[v].transpose()._reduced()
        projections.append(_dense(f, null_space(f, tails, pivots, d), d))
        free.append([c for c in range(d) if c not in pivots])
    mats = {}
    for a in n.dq.arrows:
        k = len(free[a.src])
        section_image = [[row[c] for c in free[a.src]] for row in n.mats[a.aid].data]  # n_a . S_src
        proj = projections[a.dst]
        mats[a.aid] = Matrix._of(f, len(proj), k, _mul_rows(f, proj, section_image, k))
    return Representation(n.dq, f, DimensionVector(len(c) for c in free), mats)
