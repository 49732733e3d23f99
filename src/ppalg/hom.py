"""First extension groups via an explicit four-term complex, the symmetric
bilinear form, and extension realization.

The extension group of a pair (m, n) is the middle cohomology of

    0 -> Hom(m,n) -> (+)_v Hom(m_v, n_v) --d1--> (+)_a Hom(m_sa, n_ta)
                                          --d2--> (+)_v Hom(m_v, n_v)

with d1(f) = (n_a f_sa - f_ta m_a)_a and
d2(phi) = (sum over arrows a out of v of eps(a) (n_{a*} phi_a + phi_{a*} m_a))_v.
Both differentials come from the one builder ``rep.linear_system``, in the
flat layout ``rep.unflatten`` reads back: d1 is ``rep.hom_system(m, n)``,
whose kernel is Hom(m, n), and d2 is ``_delta2(m, n)``.  The extension
dimension always satisfies the bilinear-form identity, which is asserted at
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .errors import CocycleError, InternalInvariantError
from .linalg import Matrix, hstack_all, vstack_all
from .quiver import DoubleQuiver
from .rep import Representation, block_module, hom_dim, hom_system, linear_system, unflatten


def bilinear_form(dq: DoubleQuiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """The symmetric form on dimension vectors attached to the double quiver."""
    return dq.bilinear(alpha, beta)


@dataclass(frozen=True)
class Ext1Space:
    cocycle_basis: tuple
    dim: int


def _delta2(m: Representation, n: Representation) -> tuple[Matrix, list[tuple[str, int, int]]]:
    """Matrix of d2 from arrow maps to vertex maps, one equation block per relation.

    The returned shapes are the (arrow id, rows, cols) triples of the unknowns.
    """
    dq = m.dq
    shapes = [(a.aid, n.dims[a.dst], m.dims[a.src]) for a in dq.arrows]
    eqs = [(v, n.dims[v], m.dims[v]) for v in range(dq.vertex_count)]
    terms = []
    for rel in dq.relations:
        for sign, aid, sid in rel.terms:
            terms.append((rel.vertex, sign, n.mats[sid], aid, None))
            terms.append((rel.vertex, sign, None, sid, m.mats[aid]))
    return linear_system(m.field, eqs, shapes, terms), shapes


def ext1_space(m: Representation, n: Representation) -> Ext1Space:
    """First extension group computed as middle cohomology of the complex.

    Raises InternalInvariantError when the computed dimension disagrees with
    the bilinear-form identity; that always indicates an implementation bug.
    """
    d1, _ = hom_system(m, n)
    d2, shapes = _delta2(m, n)
    ker = d2.kernel_basis()
    # one echelon of [d1 | ker]: the pivots inside d1 count its rank, and those
    # past it are the kernel columns that extend the image of d1 to a basis of
    # ker d2, since whether a column is a pivot depends on the span before it
    pivots = hstack_all(m.field, d1.rows, (d1, ker))._echelon_pivots()
    chosen = [ker.column_vector(j - d1.cols) for j in pivots if j >= d1.cols]
    dim = len(chosen)
    expected = (d1.cols - (len(pivots) - dim)) + hom_dim(n, m) - bilinear_form(m.dq, m.dims, n.dims)
    if dim != expected:
        raise InternalInvariantError(
            f"extension dimension {dim} violates the form identity (expected {expected})"
        )
    basis = tuple(unflatten(m.field, vec, shapes) for vec in chosen)
    return Ext1Space(cocycle_basis=basis, dim=dim)


def ext1_dim_via_complex(m: Representation, n: Representation) -> int:
    """Middle cohomology dimension computed with no appeal to the form identity."""
    d1, _ = hom_system(m, n)
    d2, _ = _delta2(m, n)
    return (d2.cols - d2.rank()) - d1.rank()


def extension_from_cocycle(
    m: Representation, n: Representation, cocycle: Dict[str, Matrix]
) -> Representation:
    """The extension 0 -> n -> e -> m -> 0 classified by a closing cocycle.

    Arrow matrices are the block forms [[n_a, phi_a], [0, m_a]] of
    ``rep.block_module``; the result is relation-checked and a failure raises
    CocycleError.
    """
    e = block_module(n, m, cocycle)
    if e.check_relations():
        raise CocycleError("cocycle does not close, extension violates the relations")
    return e


def extension_splits(m: Representation, n: Representation, e: Representation) -> bool:
    """Whether the evident surjection e -> m admits a section.

    ``e`` must be in the block form produced by extension_from_cocycle.  The
    dual of the kernel-side test: the projection e -> m has a section exactly
    when its dual injection Dm -> De, with blocks [[0], [I]], has a retraction.
    """
    f = m.field
    inj = {
        v: vstack_all(f, d, (Matrix.zero(f, n.dims[v], d), Matrix.identity(f, d)))
        for v, d in enumerate(m.dims)
    }
    return retraction_exists(m.dual(), e.dual(), inj)


def retraction_exists(s: Representation, n: Representation, inj: Dict[int, Matrix]) -> bool:
    """Whether an injection s -> n admits a one-sided inverse n -> s.

    Solved as one affine system: the intertwining system for maps
    psi: n -> s, stacked with psi_v . inj_v = identity at every vertex.
    """
    f = s.field
    d1, shapes = hom_system(n, s)
    eqs = [(v, s.dims[v], s.dims[v]) for v in range(s.dq.vertex_count)]
    retract = linear_system(f, eqs, shapes, [(v, 1, None, v, inj[v]) for v, _, _ in eqs])
    identity = [x for v, d, _ in eqs for row in Matrix.identity(f, d).data for x in row]
    rhs = Matrix.column(f, [f.zero()] * d1.rows + identity)
    return vstack_all(f, d1.cols, (d1, retract)).solve(rhs) is not None

