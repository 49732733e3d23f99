"""First extension groups via an explicit four-term complex, the symmetric
bilinear form, and extension realization.

The extension group of a pair (m, n) is the middle cohomology of

    0 -> Hom(m,n) -> (+)_v Hom(m_v, n_v) --d1--> (+)_a Hom(m_sa, n_ta)
                                          --d2--> (+)_v Hom(m_v, n_v)

with d1(f) = (n_a f_sa - f_ta m_a)_a and
d2(phi) = (sum over arrows a out of v of eps(a) (n_{a*} phi_a + phi_{a*} m_a))_v.
Both differentials come from the one builder ``rep.linear_system`` as
sparse rows, in the flat layout ``rep.unflatten`` reads back: d1 is
``rep.hom_system(m, n)``, whose kernel is Hom(m, n), and d2 is
``_delta2(m, n)``.  Their layouts, and the retraction system's, are
compiled by ``rep.system_plan`` once per quiver and pair of dimension
vectors, in one bounded memo that equal quivers share, so a call only
places the nonzero entries of its blocks.
Every rank and pivot is read straight off the keys of ``linalg.forward_pass``
of those rows, and every null vector off ``linalg.null_space`` of their
``back_substitute``; no dense system matrix is built.  ``ext1_space`` needs both modules to satisfy the preprojective
relations (else PreconditionViolated), so that im d1 lies in ker d2, and
picks its cocycles in the free coordinates F of d2, where ker d2 is the
identity: d2 goes through the forward pass only, and one small echelon of
d1's rows at F gives rank d1 and the chosen cocycles, which are
back-substituted only when first read.  The extension dimension always
satisfies the bilinear-form identity, which is asserted at runtime.  An extension splits exactly when its kernel
inclusion has a retraction, so the split test builds no dual module.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from .errors import CocycleError, InternalInvariantError, ShapeError
from .fields import Field, check_same_field
from .linalg import Matrix, back_substitute, forward_pass, null_space
from .quiver import DoubleQuiver
from .rep import Representation, _arrow_blocks, _check_pair, _layout, _require_relations, _vertex_blocks, block_module
from .rep import hom_dim, hom_system, linear_system, system_plan, unflatten


def bilinear_form(dq: DoubleQuiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """The symmetric form on dimension vectors attached to the double quiver."""
    return dq.bilinear(alpha, beta)


@dataclass(frozen=True)
class Ext1Space:
    """The dimension of Ext^1(m, n), and a basis of cocycles built on first read."""

    dim: int
    build_basis: Callable[[], tuple] = dataclasses.field(compare=False, repr=False)

    @functools.cached_property
    def cocycle_basis(self) -> tuple:
        return self.build_basis()


def _delta2_layout(dq: DoubleQuiver, m_dims, n_dims) -> tuple:
    """d2, read with the families (n.mats, m.mats): the block of relation v sums eps(a) (n_{a*} . phi_a + phi_{a*} . m_a)."""
    terms = [t for rel in dq.relations for sign, aid, sid in rel.terms
             for t in ((rel.vertex, sign, aid, False, sid), (rel.vertex, sign, sid, True, aid))]
    return _vertex_blocks(dq, m_dims, n_dims), _arrow_blocks(dq, m_dims, n_dims), terms


def _delta2(m: Representation, n: Representation) -> tuple[list[dict], int]:
    """Sparse rows and column count of d2 from arrow maps to vertex maps; the unknowns are ``_arrow_blocks``."""
    return linear_system(system_plan(m.dq, _delta2_layout, m.dims, n.dims), (n.mats, m.mats))


def ext1_space(m: Representation, n: Representation) -> Ext1Space:
    """First extension group computed as middle cohomology of the complex.

    Both modules must satisfy the preprojective relations, so that
    d2 . d1 = 0 and im d1 lies in ker d2; else PreconditionViolated, naming
    the failing vertices.  d2 goes through the forward pass only, and its
    free columns F fix ker d2: the canonical null vector k_f is one at f and
    zero at the other free columns.  So im d1 is read on F alone, from one
    echelon of the columns of d1 at F with F reversed, whose pivots are the
    positions where the vectors of im d1 end.  Their count is rank d1, and
    the cocycles k_f for the other f in F, in ascending order, extend im d1
    to ker d2: k_f lies in the span of im d1 and the k_g with g < f exactly
    when some vector of im d1 ends at f.  This is the choice of the pivots
    past d1 of [d1 | ker d2], and dim = |F| - rank d1.  Reading only ``dim``
    back-substitutes nothing: the first read of ``cocycle_basis`` reduces
    the kept rows of d2 and keeps the null vectors of ``linalg.null_space``
    at the chosen free columns, those where no vector of im d1 ends.

    Raises InternalInvariantError when the computed dimension disagrees with
    the bilinear-form identity; that always indicates an implementation bug.
    """
    f = m.field
    d1, cols = hom_system(m, n)
    _require_relations("m", m)
    _require_relations("n", n)
    d2, d2_cols = _delta2(m, n)
    piv = forward_pass(f, d2, d2_cols)
    free = [j for j in range(d2_cols) if j not in piv]
    last = len(free) - 1
    columns = [{} for _ in range(cols)]  # column c of d1 at F, position r for free[last - r]
    for r, j in enumerate(reversed(free)):
        for c, x in d1[j].items():
            columns[c][r] = x
    ends = {free[last - r] for r in forward_pass(f, columns, len(free))}
    dim = len(free) - len(ends)
    expected = (cols - len(ends)) + hom_dim(n, m) - bilinear_form(m.dq, m.dims, n.dims)
    if dim != expected:
        raise InternalInvariantError(
            f"extension dimension {dim} violates the form identity (expected {expected})"
        )
    return Ext1Space(dim=dim, build_basis=functools.partial(_cocycle_basis, f, piv, free, ends, _arrow_blocks(m.dq, m.dims, n.dims)))


def _cocycle_basis(f: Field, piv: dict, free: Sequence[int], ends: set, shapes) -> tuple:
    """The null vectors of d2 at its free columns not in ``ends``, from copies of its kept forward rows, unflattened.

    ``linalg.null_space`` gives one vector per free column, in ascending order.
    """
    tails, pivots = back_substitute(f, {p: dict(row) for p, row in piv.items()})
    null = null_space(f, tails, pivots, len(free) + len(pivots))
    return tuple(unflatten(f, vec, shapes) for j, vec in zip(free, null) if j not in ends)


def ext1_dim_via_complex(m: Representation, n: Representation) -> int:
    """Middle cohomology dimension computed with no appeal to the form identity."""
    f = m.field
    d1, cols = hom_system(m, n)
    d2, d2_cols = _delta2(m, n)
    return (d2_cols - len(forward_pass(f, d2, d2_cols))) - len(forward_pass(f, d1, cols))


def extension_from_cocycle(
    m: Representation, n: Representation, cocycle: Dict[str, Matrix]
) -> Representation:
    """The extension 0 -> n -> e -> m -> 0 classified by a closing cocycle.

    Arrow matrices are the block forms [[n_a, phi_a], [0, m_a]] of
    ``rep.block_module``, which builds the result with the verdict it reads
    off the blocks: the vertices where n or m fails its relations, and
    those where the corner sum eps(a) (n_{a*} . phi_a + phi_{a*} . m_a) is
    nonzero.  A nonempty verdict raises CocycleError.
    """
    e = block_module(n, m, cocycle)
    if e.check_relations():
        raise CocycleError("cocycle does not close, extension violates the relations")
    return e


def extension_splits(m: Representation, n: Representation, e: Representation) -> bool:
    """Whether the evident surjection e -> m admits a section.

    ``e`` must be in the block form [[n_a, *], [0, m_a]] that
    extension_from_cocycle produces, else FieldMismatch or ShapeError.  A
    short exact sequence splits exactly when its kernel inclusion n -> e,
    with blocks [[I], [0]], has a retraction, so this is ``retraction_exists``.
    """
    _check_pair(m, n)
    _check_pair(m, e)
    if e.dims != n.dims + m.dims:
        raise ShapeError(f"dims {tuple(e.dims)} are not those of an extension of m by n")
    for a in m.dq.arrows:
        k, data = n.dims[a.src], e.mats[a.aid].data
        top, bottom = data[: n.dims[a.dst]], data[n.dims[a.dst] :]
        if (
            tuple(row[:k] for row in top) != n.mats[a.aid].data
            or tuple(row[k:] for row in bottom) != m.mats[a.aid].data
            or any(any(row[:k]) for row in bottom)
        ):
            raise ShapeError(f"arrow {a.aid} of e is not in the block form [[n_a, *], [0, m_a]]")
    f = m.field
    inj = {v: Matrix._of(f, t, d, [row[:d] for row in Matrix.identity(f, t).data])
           for v, (d, t) in enumerate(zip(n.dims, e.dims))}
    return retraction_exists(n, e, inj)


def retraction_exists(s: Representation, n: Representation, inj: Dict[int, Matrix]) -> bool:
    """Whether an injection s -> n admits a one-sided inverse n -> s.

    ``inj`` must hold an n.dims[v] x s.dims[v] block over the field at every
    vertex v, else FieldMismatch or ShapeError.  Solved as one affine system:
    the intertwining system for maps psi: n -> s, stacked with
    psi_v . inj_v = identity at every vertex, the identity in one more
    column; the system is consistent when that column holds no pivot.
    """
    _check_pair(s, n)
    f = s.field
    for v, d in enumerate(s.dims):
        block = inj.get(v)
        if block is None:
            raise ShapeError(f"the injection has no block at vertex {v}")
        check_same_field(f, block.field)
        if (block.rows, block.cols) != (n.dims[v], d):
            raise ShapeError(f"the injection block at vertex {v} must be {n.dims[v]}x{d}")
    rows, cols = hom_system(n, s)
    retract, _ = linear_system(system_plan(s.dq, _retraction_layout, s.dims, n.dims), ({}, inj))
    for pos, d, _ in _layout(_vertex_blocks(s.dq, s.dims, s.dims))[0].values():  # the d x d blocks psi_v . inj_v
        for r in range(d):
            retract[pos + r * d + r][cols] = f.one()
    return cols not in forward_pass(f, rows + retract, cols + 1)


def _retraction_layout(dq: DoubleQuiver, s_dims, n_dims) -> tuple:
    """psi_v . inj_v at every vertex, for the unknowns psi_v of d1(n, s), read with the families ({}, inj)."""
    terms = [(v, 1, v, True, v) for v in range(dq.vertex_count)]
    return _vertex_blocks(dq, s_dims, s_dims), _vertex_blocks(dq, n_dims, s_dims), terms
