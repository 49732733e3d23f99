"""Plain Gauss-Jordan elimination: the reference the tests hold the library's echelon forms to.

Every row operation is done in full on dense rows, with the field operations
of a Galois field computed from its modulus rather than read from its tables,
and every result goes through the checked ``Matrix`` constructor.  Nothing
here calls the library's elimination, so an oracle built on it shares no
code with the reductions it checks.
"""

from ppalg.fields import GaloisField, _poly_mul_mod
from ppalg.linalg import Matrix


def untabled_ops(field):
    """sub, mul and inv computed from first principles, not from tables."""
    if not isinstance(field, GaloisField):
        return field.sub, field.mul, field.inv
    p, decode, encode = field.p, field._decode, field._encode

    def sub(a, b):
        return encode(tuple((x - y) % p for x, y in zip(decode(a), decode(b))))

    def mul(a, b):
        return encode(_poly_mul_mod(decode(a), decode(b), field.modulus, p))

    def inv(a):
        return next(b for b in range(1, field.q) if mul(a, b) == 1)

    return sub, mul, inv


def reference_rref(a: Matrix):
    """Plain Gauss-Jordan: every row operation in full, every result validated."""
    f = a.field
    sub, mul, inv_of = untabled_ops(f)
    z = f.zero()
    m = [list(row) for row in a.data]
    pivots = []
    pr = 0
    for pc in range(a.cols):
        pivot_row = None
        for r in range(pr, a.rows):
            if m[r][pc] != z:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = inv_of(m[pr][pc])
        m[pr] = [mul(inv, x) for x in m[pr]]
        for r in range(a.rows):
            if r != pr and m[r][pc] != z:
                c0 = m[r][pc]
                m[r] = [sub(x, mul(c0, y)) for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == a.rows:
            break
    return Matrix(f, a.rows, a.cols, m), tuple(pivots)


def reference_kernel_columns(a: Matrix) -> list[tuple]:
    """The canonical kernel basis: one vector per free column, one there and minus that column of R at the pivots."""
    f = a.field
    sub = untabled_ops(f)[0]
    R, pivots = reference_rref(a)
    cols = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [f.zero()] * a.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = sub(f.zero(), R.data[r][fc])
        cols.append(tuple(v))
    return cols


def reference_kernel(a: Matrix) -> Matrix:
    """The vectors of ``reference_kernel_columns`` as the columns of a cols x (cols - rank) matrix."""
    columns = reference_kernel_columns(a)
    return Matrix(a.field, a.cols, len(columns), list(zip(*columns)) if columns else [()] * a.cols)


def reference_solve(a: Matrix, rhs: Matrix):
    """The solution X of a . X = rhs with every free variable zero, read off R of [a | rhs]; None when inconsistent."""
    f = a.field
    aug = Matrix(f, a.rows, a.cols + rhs.cols, [r1 + r2 for r1, r2 in zip(a.data, rhs.data)])
    R, pivots = reference_rref(aug)
    if any(pc >= a.cols for pc in pivots):
        return None
    out = [[f.zero()] * rhs.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        out[pc] = list(R.data[r][a.cols :])
    return Matrix(f, a.cols, rhs.cols, out)
