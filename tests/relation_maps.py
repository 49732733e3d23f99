"""The maps of the preprojective relation at a vertex, as matrices, the top,
the socle, the dual, stacking and right inverses, for the tests.

The library tests relations on row data (``Representation.check_relations``)
and reflects on the row data of the blocks at a vertex, so it forms none of
these matrices, never needs the top, the socle or a whole dual module, and
reads the arrows out of a vertex only through ``dq.relations[v]``; the
reference constructions of the tests read them.
"""

from ppalg.errors import ShapeError
from ppalg.fields import check_same_field
from ppalg.linalg import Matrix, hstack_all
from ppalg.quiver import DimensionVector
from ppalg.rep import Representation
from reference_linalg import reference_solve


def arrows_out(dq, v):
    """The arrows of the double quiver that leave v, in ``dq.arrows`` order."""
    return [a for a in dq.arrows if a.src == v]


def is_zero(mat):
    """Whether every entry of a matrix is the zero of its field."""
    return mat == Matrix.zero(mat.field, mat.rows, mat.cols)


def negated(mat):
    """The matrix times minus one."""
    f = mat.field
    return mat.scale(f.neg(f.one()))


def vstack_all(field, cols, mats):
    """The blocks stacked top to bottom (0 x cols when there are none)."""
    if cols < 0:
        raise ShapeError("negative dimensions")
    for m in mats:
        check_same_field(field, m.field)
        if m.cols != cols:
            raise ShapeError("vstack column mismatch")
    data = [row for m in mats for row in m.data]
    return Matrix._of(field, len(data), cols, data)


def right_inverse(mat):
    """Canonical X with mat . X = identity (requires full row rank), from the reference elimination."""
    x = reference_solve(mat, Matrix.identity(mat.field, mat.rows))
    if x is None:
        raise ShapeError("matrix has no right inverse")
    return x


def out_map(m, v):
    """M_v -> (+) M_{a.dst}: the arrows a of ``dq.relations[v]``, stacked."""
    blocks = [m.mats[aid] for _, aid, _ in m.dq.relations[v].terms]
    return vstack_all(m.field, m.dims[v], blocks)


def in_map(m, v):
    """(+) M_{a.dst} -> M_v: the blocks eps(a) M_{a*}, side by side in the same order."""
    blocks = [m.mats[sid] if sign > 0 else negated(m.mats[sid]) for sign, _, sid in m.dq.relations[v].terms]
    return hstack_all(m.field, m.dims[v], blocks)


def relation_matrix(m, v):
    """The relation sum at vertex v as a dims[v] x dims[v] matrix, from the rows the library accumulates."""
    n = m.dims[v]
    return Matrix._of(m.field, n, n, m._relation_rows(v))


def dual(m):
    """The vector-space dual: arrow a acts by the transpose of the matrix of a*.

    Relation matrices transpose, and dualizing twice gives m back.
    """
    mats = {a.aid: m.mats[m.dq.star[a.aid]].transpose() for a in m.dq.arrows}
    return Representation(m.dq, m.field, m.dims, mats)


def top_multiplicities(m):
    """Multiplicity of each vertex simple in M / (M . arrow ideal): dim Hom(M, S_i)."""
    whole = [Matrix.identity(m.field, d) for d in m.dims]
    return DimensionVector(d - m._image_into(v, whole).rank() for v, d in enumerate(m.dims))


def socle_multiplicities(m):
    """Multiplicity of each vertex simple in the socle of m: the top of the dual."""
    return top_multiplicities(dual(m))
