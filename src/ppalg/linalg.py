"""Dense exact matrices and deterministic decompositions.

All bases are the canonical reduced-row-echelon choice, so repeated calls
produce bit-identical output.  Matrices are immutable after construction;
every operation returns a fresh value and is safe to call concurrently.
Empty matrices (zero rows or columns) are legal throughout.

Elimination updates each row only at the nonzero columns of the pivot
row, listed once per pivot.  Over QQ it runs on integers: every row is
scaled by the lcm of its denominators and reduced fraction-free, and the
``Fraction`` entries are built once at the end.  ``rank`` and the callers
that need only the pivot columns clear below each pivot only.

Entries are validated at the public constructors (``Matrix(...)``,
``column``, ``from_json``) and ``scale`` checks its scalar.  Everything
computed from already-valid matrices (products, stacks, echelon forms,
bases, solutions) is trusted and built through the unchecked
``Matrix._of``, so no intermediate re-checks its entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import FieldMismatch, ShapeError
from .fields import Field, check_same_field


class Matrix:
    """An immutable rows x cols matrix over a single exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ShapeError(f"data does not match shape {rows}x{cols}")
        for row in data:
            for x in row:
                if not field.is_element(x):
                    raise FieldMismatch(f"{x!r} is not an element of {field!r}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def _of(field: Field, rows: int, cols: int, data: Sequence[Sequence]) -> "Matrix":
        """A trusted result: entries already lie in ``field`` and fit the shape."""
        m = object.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = tuple(map(tuple, data))
        return m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        row = (field.zero(),) * cols
        return Matrix._of(field, rows, cols, (row,) * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        if n < 0:
            raise ShapeError("negative dimensions")
        z, o = field.zero(), field.one()
        return Matrix._of(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def column(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, len(entries), 1, [[x] for x in entries])

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format_scalar(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.cols, self.rows, _transpose(self.data, self.cols))

    def add(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        f = self.field
        return Matrix._of(
            f,
            self.rows,
            self.cols,
            [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        if not f.is_element(c):
            raise FieldMismatch(f"{c!r} is not an element of {f!r}")
        return Matrix._of(f, self.rows, self.cols, [[f.mul(c, x) for x in row] for row in self.data])

    def mul(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(f"product shape mismatch {self.rows}x{self.cols} . {other.rows}x{other.cols}")
        return Matrix._of(self.field, self.rows, other.cols, _mul_rows(self.field, self.data, other.data, other.cols))

    def column_vector(self, j: int) -> tuple:
        return tuple(self.data[r][j] for r in range(self.rows))

    # -- echelon machinery -------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form together with the pivot column indices.

        Each pivot row lists its nonzero (column, value) pairs once, and a
        row with a nonzero in the pivot column is updated at those columns
        only.  Over QQ the rows are scaled to integers and eliminated
        fraction-free; each entry becomes a ``Fraction`` once, at the end.
        """
        f = self.field
        if f.kind == "rationals":
            m = _integer_rows(self.data)
            pivots = _integer_pivots(m, self.cols, True)
            m = _fraction_rows(m, pivots)
        else:
            m = [list(row) for row in self.data]
            pivots = _field_pivots(f, m, self.cols, True)
        return Matrix._of(f, self.rows, self.cols, m), pivots

    def rank(self) -> int:
        """The number of pivots, from an echelon form cleared below each pivot only."""
        return len(self._echelon_pivots())

    def _echelon_pivots(self) -> tuple[int, ...]:
        """The pivot columns of ``rref()``, without clearing the rows above each pivot.

        The pivot search never reads the rows above the pivot, so the
        columns found are the same.
        """
        if self.field.kind == "rationals":
            return _integer_pivots(_integer_rows(self.data), self.cols, False)
        return _field_pivots(self.field, [list(row) for row in self.data], self.cols, False)

    def kernel_basis(self) -> "Matrix":
        """Columns form the canonical RREF basis of {x : Ax = 0}."""
        return _null_rows(*self.rref()).transpose()

    def image_basis(self) -> "Matrix":
        """Columns form the canonical basis of the column space."""
        return _pivot_rows(*self.transpose().rref()).transpose()

    def cokernel_projection(self) -> "Matrix":
        """A (rows - rank) x rows matrix whose kernel is exactly the column space."""
        return _null_rows(*self.transpose().rref())

    def solve(self, rhs: "Matrix") -> Optional["Matrix"]:
        """Canonical solution X of self . X = rhs, or None when inconsistent.

        Free variables are set to zero, so the answer is the particular
        solution read off the reduced echelon form.
        """
        f = self.field
        z = f.zero()
        # hstack_all checks that rhs shares the field and the row count
        R, pivots = hstack_all(f, self.rows, (self, rhs)).rref()
        for pc in pivots:
            if pc >= self.cols:
                return None
        out = [[z] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.cols):
                out[pc][j] = R.data[r][self.cols + j]
        return Matrix._of(f, self.cols, rhs.cols, out)

    def right_inverse(self) -> "Matrix":
        """Canonical X with self . X = identity (requires full row rank)."""
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None:
            raise ShapeError("matrix has no right inverse")
        return x

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        return [[self.field.format_scalar(x) for x in row] for row in self.data]

    @staticmethod
    def from_json(field: Field, data: list, rows: int, cols: int) -> "Matrix":
        """Read a list of rows, each a list of decimal-string or integer entries.

        Anything else raises ValueError: a float or boolean entry, or a string
        where a row or the whole matrix belongs (a string iterates as characters).
        """

        def scalar(x):
            if isinstance(x, (bool, float)):
                raise ValueError(f"matrix entry {x!r} is neither a decimal string nor an integer")
            return field.parse_scalar(x)

        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("a matrix must be a list of rows, each a list of entries")
        return Matrix(field, rows, cols, [[scalar(x) for x in row] for row in data])


def _integer_rows(data: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators: integers with the same reduced echelon form."""
    m = []
    for row in data:
        pairs = [x.as_integer_ratio() for x in row]
        d = lcm(*[q for _, q in pairs])
        m.append([n * (d // q) for n, q in pairs])
    return m


def _field_pivots(f: Field, m: list[list], cols: int, reduced: bool) -> tuple[int, ...]:
    """Gauss-Jordan over a finite field on the rows ``m`` in place: below each pivot only unless ``reduced``.

    Elements are int codes with zero 0 and one 1.  Zero tests are truth
    tests, so a zero entry costs no field operation at all.
    """
    sub, mul = f.sub, f.mul
    n = len(m)
    pivots = []
    pr = 0
    for pc in range(cols):
        for r in range(pr, n):
            if m[r][pc]:
                break
        else:
            continue
        prow = m[r]
        if prow[pc] != 1:
            inv = f.inv(prow[pc])
            prow = [mul(inv, x) if x else x for x in prow]
        m[r], m[pr] = m[pr], prow
        nz = [(j, prow[j]) for j in range(pc + 1, cols) if prow[j]]
        for row in m if reduced else m[pr + 1 :]:
            c = row[pc]
            if c and row is not prow:
                row[pc] = 0
                for j, y in nz:
                    row[j] = sub(row[j], mul(c, y))
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return tuple(pivots)


def _integer_pivots(m: list[list[int]], cols: int, reduced: bool) -> tuple[int, ...]:
    """``_field_pivots`` over the integers, fraction-free, with every row kept primitive.

    A row with c in the pivot column becomes (p/g) row - (c/g) pivot row for
    g = gcd(p, c), a nonzero multiple of the row that Gauss-Jordan over QQ
    would hold, so the zero pattern, the pivots and the reduced form agree.
    Only when p/g > 1 is the whole row rescaled, and its content divided out.
    """
    n = len(m)
    pivots = []
    pr = 0
    for pc in range(cols):
        for r in range(pr, n):
            if m[r][pc]:
                break
        else:
            continue
        prow = m[r]
        m[r], m[pr] = m[pr], prow
        g = gcd(*prow)
        if prow[pc] < 0:
            g = -g
        if g != 1:
            prow[:] = [x // g for x in prow]
        p = prow[pc]
        nz = [(j, prow[j]) for j in range(pc + 1, cols) if prow[j]]
        for row in m if reduced else m[pr + 1 :]:
            c = row[pc]
            if c and row is not prow:
                g = gcd(p, c)
                a, b = p // g, c // g
                if a != 1:
                    row[:] = [a * x for x in row]
                row[pc] = 0
                for j, y in nz:
                    row[j] -= b * y
                if a != 1:
                    g = gcd(*row)
                    if g > 1:
                        row[:] = [x // g for x in row]
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return tuple(pivots)


def _fraction_rows(m: list[list[int]], pivots: tuple[int, ...]) -> list[list]:
    """The reduced form over QQ of the integer rows of ``_integer_pivots``: each row over its pivot."""
    zero = Fraction(0)
    out = [[Fraction(x, row[pc]) if x else zero for x in row] for row, pc in zip(m, pivots)]
    out += [[zero] * len(row) for row in m[len(pivots) :]]
    return out


def _mul_rows(f: Field, left: Sequence[Sequence], right: Sequence[Sequence], cols: int) -> list[list]:
    """The rows of the product of two blocks given by their rows; ``right`` has ``cols`` columns."""
    z = f.zero()
    out = []
    for lrow in left:
        row = []
        for j in range(cols):
            acc = z
            for a, rrow in zip(lrow, right):
                if a != z:
                    acc = f.add(acc, f.mul(a, rrow[j]))
            row.append(acc)
        out.append(row)
    return out


def _transpose(rows: Sequence[tuple], width: int) -> list:
    """The rows of the transpose of a block given by its rows, each ``width`` long."""
    return list(zip(*rows)) if rows else [()] * width


def _null_rows(R: Matrix, pivots: tuple[int, ...]) -> Matrix:
    """Rows forming the canonical basis of {x : Rx = 0}, for R in reduced echelon form.

    One row per free column: one there, zero at the other free columns, and
    minus that column of R at the pivots.
    """
    f, n = R.field, R.cols
    z, o = f.zero(), f.one()
    pivot_set = set(pivots)
    rows = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [z] * n
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R.data[r][fc])
        rows.append(v)
    return Matrix._of(f, len(rows), n, rows)


def _pivot_rows(R: Matrix, pivots: tuple[int, ...]) -> Matrix:
    """The nonzero rows of a reduced echelon form: the canonical basis of its row space."""
    return Matrix._of(R.field, len(pivots), R.cols, R.data[: len(pivots)])


def hstack_all(field: Field, rows: int, mats: Sequence[Matrix]) -> Matrix:
    """The blocks side by side, built in one pass (rows x 0 when there are none)."""
    if rows < 0:
        raise ShapeError("negative dimensions")
    for m in mats:
        check_same_field(field, m.field)
        if m.rows != rows:
            raise ShapeError("hstack row mismatch")
    data = [sum(row, ()) for row in zip(*(m.data for m in mats))] if mats else [()] * rows
    return Matrix._of(field, rows, sum(m.cols for m in mats), data)


def vstack_all(field: Field, cols: int, mats: Sequence[Matrix]) -> Matrix:
    """The blocks stacked top to bottom, built in one pass (0 x cols when there are none)."""
    if cols < 0:
        raise ShapeError("negative dimensions")
    for m in mats:
        check_same_field(field, m.field)
        if m.cols != cols:
            raise ShapeError("vstack column mismatch")
    data = [row for m in mats for row in m.data]
    return Matrix._of(field, len(data), cols, data)
