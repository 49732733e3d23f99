"""The maps of the preprojective relation at a vertex, as matrices, the socle,
and the arrows out of a vertex, for the tests.

The library tests relations on row data (``Representation.check_relations``)
and reflects on the row data of the blocks at a vertex, so it forms none of
these matrices, never needs the socle and reads the arrows out of a vertex
only through ``dq.relations[v]``; the reference constructions of the tests
read them.
"""

from ppalg.linalg import Matrix, hstack_all, vstack_all


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


def socle_multiplicities(m):
    """Multiplicity of each vertex simple in the socle of m: the top of the dual."""
    return m.dual().top_multiplicities()
