"""Dense exact matrices, sparse row systems and deterministic decompositions.

All bases are the canonical reduced-row-echelon choice, so repeated calls
produce bit-identical output.  Matrices are immutable after construction;
every operation returns a fresh value and is safe to call concurrently.
Empty matrices (zero rows or columns) are legal throughout.

A matrix keeps the (row, col, entry) triples of its nonzero entries,
``entries``, and the same triples negated, ``negated_entries``: each is read
off ``data`` on its first read into a slot that construction leaves None,
and a second read returns the same tuple (two threads that race build equal
ones).  ``rep.linear_system`` places these triples into the hom and Ext
systems, at offsets that ``rep.system_plan`` compiles once per pair of
dimension vectors, so a block read by many systems is scanned and negated once.

There is one elimination, on rows stored as ``{column: coefficient}`` dicts
of their nonzero entries: the hom and Ext systems of ``rep.linear_system``
are built that way, and a ``Matrix`` feeds it the nonzero entries of its
rows.  A row is reduced only by the pivot rows of the columns where it is
nonzero, at the nonzero columns of each.  Its row steps are picked once per
call by the field's kind and call no ``Field`` method: over GF(p) they work
on the residues with one ``% p`` per entry, over GF(p^k) they read the
tables of ``GaloisField``, and over QQ they work on integers, every row
scaled by the lcm of the denominators of its nonzero entries (its
numerators, when these are all 1) and reduced fraction-free, with the
``Fraction`` entries built once at the end.  Empty rows are dropped and the
rest are eliminated shortest first, which only saves work: the pivot
columns and the reduced echelon form of a span are unique, so no order of
its rows can change a key, a tail or a null vector.  It is two passes:
``forward_pass`` keeps the normalised pivot rows, keyed by their pivot
columns, and ``back_substitute`` reduces them, so a caller may hold the
forward rows and reduce them later, or never: ``rank`` and the callers that
need only the pivot columns read the keys of the first.  ``rref`` and
``image_basis`` read the tails of one reduced form, ``_reduced()``, and a
caller that needs a kernel, or a quotient and its section, reads it off
the same tails through ``null_space``.

Entries are validated at the public constructors (``Matrix(...)`` and
``from_json``) and ``scale`` checks its scalar.  Everything computed from
already-valid matrices (products, stacks, echelon forms, bases) is trusted
and built through the unchecked ``Matrix._of``, so no intermediate
re-checks its entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import FieldMismatch, ShapeError
from .fields import Field, check_same_field


class Matrix:
    """An immutable rows x cols matrix over a single exact field."""

    __slots__ = ("field", "rows", "cols", "data", "_entries", "_negated_entries")

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
        self._entries = self._negated_entries = None

    @staticmethod
    def _of(field: Field, rows: int, cols: int, data: Sequence[Sequence]) -> "Matrix":
        """A trusted result: entries already lie in ``field`` and fit the shape."""
        m = object.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = tuple(map(tuple, data))
        m._entries = m._negated_entries = None
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

    # -- nonzero entries ---------------------------------------------------

    @property
    def entries(self) -> tuple:
        """The (row, col, entry) triples of the nonzero entries, row-major, read off ``data`` on first read."""
        if self._entries is None:
            self._entries = tuple([(r, c, x) for r, row in enumerate(self.data) for c, x in enumerate(row) if x])
        return self._entries

    @property
    def negated_entries(self) -> tuple:
        """The triples of ``entries`` with each entry negated, built on first read."""
        if self._negated_entries is None:
            neg = self.field.neg
            self._negated_entries = tuple([(r, c, neg(x)) for r, c, x in self.entries])
        return self._negated_entries

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

    # -- echelon machinery -------------------------------------------------

    def _reduced(self) -> tuple[list[dict], tuple[int, ...]]:
        """The tails and pivot columns of the reduced echelon form: ``forward_pass`` then ``back_substitute``."""
        return back_substitute(self.field, forward_pass(self.field, _sparse_rows(self.data), self.cols))

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form together with the pivot column indices, written out dense."""
        f = self.field
        tails, pivots = self._reduced()
        rows = _pivot_rows(f, tails, pivots) + [{}] * (self.rows - len(pivots))
        return Matrix._of(f, self.rows, self.cols, _dense(f, rows, self.cols)), pivots

    def rank(self) -> int:
        """The number of pivots, from ``forward_pass`` without clearing above the pivots."""
        return len(forward_pass(self.field, _sparse_rows(self.data), self.cols))

    def image_basis(self) -> "Matrix":
        """Columns form the canonical basis of the column space: the pivot rows of the transpose."""
        f = self.field
        pivot_rows = _dense(f, _pivot_rows(f, *self.transpose()._reduced()), self.rows)
        return Matrix._of(f, self.rows, len(pivot_rows), _transpose(pivot_rows, self.rows))

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


def forward_pass(field: Field, rows: list[dict], cols: int) -> dict:
    """The normalised pivot rows of a system of sparse rows, keyed by their pivot columns.

    Each row is a ``{column: coefficient}`` dict over ``cols`` columns that
    stores no zero; the rows are consumed.  Empty rows are dropped first and
    the rest are taken shortest first.  Row by row, a row is reduced by the
    pivot row of its leading column until no pivot row leads there, and then
    it becomes the pivot row of its leading column.  Whatever the order of
    the rows, these are the pivots of the reduced echelon form of their span,
    which is unique, and ``back_substitute`` turns the pivot rows into that
    form; so the order changes only how much work is done.  A pivot row is
    one at its pivot over a finite field, and over QQ the primitive integer
    row with a positive entry there; a row already one at its pivot is kept
    as it is, since over QQ it is then primitive too.  A system with no
    nonempty rows does no work.
    """
    rows = sorted(filter(None, rows), key=len)
    if not rows:
        return {}
    if field.kind == "rationals":
        rows = [_integer_row(row) for row in rows]
    reduce, normal = _steps(field)
    piv: dict = {}  # pivot column -> its row, normalised
    for row in rows:
        while row and (lead := min(row)) in piv:
            reduce(row, piv[lead], lead)
        if row:
            piv[lead] = row if row[lead] == 1 else normal(row, lead)
    return piv


def back_substitute(field: Field, piv: dict) -> tuple[list, tuple]:
    """The tails and pivot columns of the reduced echelon form of the pivot rows ``forward_pass`` keeps.

    Each pivot row is cleared at the later pivot columns, from the last one
    back; the rows are consumed, so a caller that reads them again passes
    copies.  The rows come back in pivot order as tails: the entries at the
    free columns, the pivot entry one left out.
    """
    reduce = _steps(field)[0]
    pivots = tuple(sorted(piv))
    for p in reversed(pivots):
        row = piv[p]
        for q in [q for q in row if q != p and q in piv]:
            reduce(row, piv[q], q)
    tails = [(piv[p], piv[p].pop(p)) for p in pivots]  # each row without its pivot entry d
    if field.kind == "rationals":
        return [{j: Fraction(x, d) for j, x in tail.items()} for tail, d in tails], pivots
    return [tail for tail, _ in tails], pivots


def _steps(field: Field):
    """The row steps (reduce, normal) of the elimination: on int codes, or over QQ on integer rows."""
    return (_integer_reduce, _integer_normal) if field.kind == "rationals" else _field_steps(field)


def _field_steps(f: Field):
    """The row steps of the elimination over a finite field, on int codes, picked by the field's kind.

    ``reduce(row, prow, lead)`` sets row <- row - c . prow, for c the entry
    of row at lead and prow[lead] = 1, and ``normal(row, lead)`` is the row
    scaled to one at lead, where it is not one.  Over GF(p) they work on the
    residues with one ``% p`` per entry, and invert by Fermat's little
    theorem; over GF(p^k) they read the addition and multiplication tables
    of ``GaloisField``, one row of the multiplication table per step.  No
    step calls a ``Field`` method, so the tables and the residues are the
    one arithmetic of the elimination.  Zero tests are truth tests.
    """
    if f.kind == "prime":
        p = f.p

        def reduce(row, prow, lead):
            c = p - row[lead]  # -c, as a residue
            get = row.get
            for j, y in prow.items():
                x = (get(j, 0) + c * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]

        def normal(row, lead):
            inv = pow(row[lead], p - 2, p)
            return {j: x * inv % p for j, x in row.items()}

    else:
        add, mul, neg, inverse = f._add, f._mul, f._neg, f._inv

        def reduce(row, prow, lead):
            times = mul[neg[row[lead]]]  # the products by -c
            get = row.get
            for j, y in prow.items():
                x = add[get(j, 0)][times[y]]
                if x:
                    row[j] = x
                else:
                    del row[j]

        def normal(row, lead):
            times = mul[inverse[row[lead]]]
            return {j: times[x] for j, x in row.items()}

    return reduce, normal


def _integer_row(row: dict) -> dict:
    """A row over QQ scaled by the lcm of the denominators of its nonzero entries: its numerators when that is 1."""
    d = lcm(*[x.denominator for x in row.values()])
    if d == 1:
        return {j: x.numerator for j, x in row.items()}
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _integer_reduce(row: dict, prow: dict, lead: int) -> None:
    """row <- (p/g) row - (c/g) prow, for p and c the entries at lead of prow and row and g = gcd(p, c).

    This is a nonzero multiple of the row that elimination over QQ would
    hold, so the pivots and the reduced form agree.  Only when p/g > 1 is
    the row rescaled, and then its content divided out.
    """
    p, c = prow[lead], row[lead]
    g = gcd(p, c)
    a, b = p // g, c // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in prow.items():
        x = row.get(j, 0) - b * y
        if x:
            row[j] = x
        else:
            del row[j]
    if a != 1 and row:
        _divide(row, gcd(*row.values()))


def _integer_normal(row: dict, lead: int) -> dict:
    """The primitive integer row with a positive entry at lead."""
    g = gcd(*row.values())
    return _divide(row, -g if row[lead] < 0 else g)


def _divide(row: dict, g: int) -> dict:
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _sparse_rows(data: Sequence[Sequence]) -> list[dict]:
    """The nonzero entries of each dense row, as the ``{column: coefficient}`` rows of ``forward_pass``."""
    return [{j: x for j, x in enumerate(row) if x} for row in data]


def null_space(field: Field, tails: list[dict], pivots: tuple[int, ...], cols: int) -> list[dict]:
    """The canonical basis of the kernel of a reduced echelon form given by its tails, as sparse vectors.

    One vector per free column: one there, and minus that column of the
    form at the pivots.
    """
    one, neg = field.one(), field.neg
    pivot_set = set(pivots)
    basis = {fc: {fc: one} for fc in range(cols) if fc not in pivot_set}
    for pc, tail in zip(pivots, tails):
        for fc, x in tail.items():
            basis[fc][pc] = neg(x)
    return list(basis.values())


def _pivot_rows(field: Field, tails: list[dict], pivots: tuple[int, ...]) -> list[dict]:
    """The nonzero rows of a reduced echelon form given by its tails, as sparse vectors."""
    one = field.one()
    return [{pc: one, **tail} for pc, tail in zip(pivots, tails)]


def _dense(field: Field, vectors: list[dict], cols: int) -> list[list]:
    """Sparse ``{column: coefficient}`` vectors as dense rows, ``cols`` long."""
    z = field.zero()
    return [[v.get(j, z) for j in range(cols)] for v in vectors]


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
