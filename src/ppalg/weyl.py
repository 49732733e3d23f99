"""Coxeter words, dual reflection actions, finite root systems and chambers.

Words are tuples of vertex letters and denote the left-to-right product of
simple reflections, so the word (1, 2) is "s1 s2".  Functor-style operations
elsewhere consume the rightmost letter first, matching how a composite of
reflections acts on its argument.

Group-element equality uses the faithful matrix action on the quotient
lattice (the affine lattice modulo the imaginary root), which is all the
finite-chamber geometry needs; words containing the extending vertex 0 have
no chamber semantics and are rejected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalInvariantError, NotGeneric, NotInThetaD, RangeError, ShapeError, UsageError
from .fields import QQ
from .quiver import DimensionVector, DoubleQuiver


class StabilityParameter(tuple):
    """A rational linear form on dimension vectors, one entry per vertex.

    The entries stay ``Fraction``s for ``format()`` and the reports; their
    denominators are cleared once here, so values are integer dot products.
    """

    def __new__(cls, entries: Iterable):
        self = super().__new__(cls, (x if type(x) is Fraction else Fraction(x) for x in entries))
        den = math.lcm(*[t.denominator for t in self])
        self.denominator = den
        self.numerators = tuple(t.numerator * (den // t.denominator) for t in self)
        return self

    @staticmethod
    def _of(numerators: tuple, denominator: int) -> "StabilityParameter":
        """A trusted result: ``numerators``/``denominator`` are already the canonical cleared form."""
        self = tuple.__new__(StabilityParameter, (Fraction(k, denominator) for k in numerators))
        self.denominator = denominator
        self.numerators = numerators
        return self

    def __call__(self, alpha: Sequence[int]) -> Fraction:
        return Fraction(self.scaled(alpha), self.denominator)

    def scaled(self, alpha: Sequence[int]) -> int:
        """The value on alpha times ``denominator``: an int with the sign of the value.

        A vector of another length raises ShapeError.
        """
        if len(alpha) != len(self):
            raise ShapeError(f"theta has {len(self)} entries, the vector has {len(alpha)}")
        return sum(t * a for t, a in zip(self.numerators, alpha))

    def format(self) -> str:
        return ",".join(str(x) for x in self)

    @staticmethod
    def from_tail(d: Sequence[int], tail: Iterable) -> "StabilityParameter":
        """The parameter with ``tail`` off vertex 0 and the head that makes its value on d zero.

        A d that is zero at vertex 0 has no such head and raises ShapeError.
        """
        tail = StabilityParameter(tail)
        if len(tail) != len(d) - 1:
            raise UsageError("theta tail needs one entry per non-extending vertex")
        if d[0] == 0:
            raise ShapeError("d is zero at the extending vertex 0, so no head makes its value zero")
        return StabilityParameter([-tail(d[1:]) / d[0], *tail])

    @staticmethod
    def parse(text: str) -> "StabilityParameter":
        """Comma-separated rationals, each read by ``QQ.parse_scalar``; an entry that is not one raises UsageError."""
        try:
            return StabilityParameter(QQ.parse_scalar(part.strip()) for part in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"theta entries must be rationals, got {text!r}: {exc}") from None


def reflect_dimvec(dq: DoubleQuiver, i: int, alpha: Sequence[int]) -> DimensionVector:
    """Simple reflection on dimension vectors: x - (x, e_i) e_i, which moves entry i only."""
    row = dq.cartan_row(i)
    if len(alpha) != len(row):
        raise ShapeError(f"vector has {len(alpha)} entries, the quiver has {len(row)} vertices")
    pairing = sum(c * a for c, a in zip(row, alpha))
    return DimensionVector(a - pairing if j == i else a for j, a in enumerate(alpha))


def reflect_theta(dq: DoubleQuiver, i: int, theta: StabilityParameter) -> StabilityParameter:
    """Dual simple reflection on parameters, compatible with the pairing: theta - theta_i C_i."""
    return StabilityParameter._of(_reflect_numerators(dq, i, theta.numerators), theta.denominator)


def _reflect_numerators(dq: DoubleQuiver, i: int, numerators: tuple) -> tuple:
    """The cleared numerators of theta - theta_i C_i: one integer row operation.

    The reflection is an involution with an integer row, so the lcm of the
    denominators, and with it the canonical denominator, does not change; a
    word of reflections can run on numerators alone.
    """
    row = dq.cartan_row(i)
    if len(numerators) != len(row):
        raise ShapeError(f"theta has {len(numerators)} entries, the quiver has {len(row)} vertices")
    ni = numerators[i]
    return tuple(n - ni * c for n, c in zip(numerators, row))


def apply_word_to_dimvec(dq: DoubleQuiver, word: Sequence[int], alpha: Sequence[int]) -> DimensionVector:
    """Act by the product of the word on a vector (rightmost letter first)."""
    out = DimensionVector(alpha)
    for letter in reversed(list(word)):
        out = reflect_dimvec(dq, letter, out)
    return out


def apply_word_to_theta(dq: DoubleQuiver, word: Sequence[int], theta: StabilityParameter) -> StabilityParameter:
    theta = StabilityParameter(theta)
    numerators = theta.numerators
    for letter in reversed(list(word)):
        numerators = _reflect_numerators(dq, letter, numerators)
    return StabilityParameter._of(numerators, theta.denominator)


@dataclass(frozen=True)
class RootSystem:
    """Finite root data of the quotient lattice; a coordinate vector x is the affine (0, *x)."""

    dq: DoubleQuiver
    d: DimensionVector
    rank: int
    roots: tuple  # all roots, graded-lex order
    positive: tuple  # positive roots, graded-lex order
    simple: tuple  # unit coordinate vectors

    def project(self, alpha: Sequence[int]) -> tuple:
        """Class of an affine vector in the quotient lattice, in Delta coordinates."""
        shift = alpha[0]
        return tuple(alpha[i] - shift * self.d[i] for i in range(1, self.rank + 1))


def finite_root_system(dq: DoubleQuiver, d: DimensionVector) -> RootSystem:
    """Reflection closure of the simple roots in the quotient lattice.

    No finite ADE root system of rank r has more than max(r(r+1), 2r(r-1),
    240) roots (A_r, D_r, E8), so a closure past that count is a broken form
    and raises ``InternalInvariantError`` instead of growing without end.
    """
    n = dq.vertex_count - 1
    limit = max(n * (n + 1), 2 * n * (n - 1), 240)
    simple = tuple(tuple(1 if k == i else 0 for k in range(n)) for i in range(n))
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        x = (0, *frontier.pop())
        for i in range(1, n + 1):
            y = reflect_dimvec(dq, i, x)[1:]
            if y not in roots:
                roots.add(y)
                frontier.append(y)
        if len(roots) > limit:
            raise InternalInvariantError(f"root closure passed {limit} roots, more than any rank {n} root system has")
    ordered = sorted(roots, key=lambda r: (sum(r), r))
    positive = tuple(r for r in ordered if all(c >= 0 for c in r))
    negative = tuple(tuple(-c for c in r) for r in positive)
    if set(ordered) != set(positive) | set(negative):
        raise RangeError("root closure did not split into positive and negative parts")
    return RootSystem(dq, DimensionVector(d), n, tuple(ordered), positive, simple)


class WeylGroup:
    """The finite Weyl group acting on the quotient lattice."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self._identity = tuple(rs.simple)
        # i is a 1-based vertex letter; coordinates are 0-based
        self._gens = {
            i: tuple(reflect_dimvec(rs.dq, i, (0, *e))[1:] for e in rs.simple)
            for i in range(1, self.rank + 1)
        }
        self._elements: dict[tuple, tuple] | None = None

    def _act(self, mat: tuple, x: Sequence[int]) -> tuple:
        # mat stores images of the simple roots as rows
        out = [0] * self.rank
        for i in range(self.rank):
            if x[i]:
                for k in range(self.rank):
                    out[k] += x[i] * mat[i][k]
        return tuple(out)

    def matrix_of(self, word: Sequence[int]) -> tuple:
        """Matrix of the word product (row k is the image of the k-th simple root)."""
        mat = self._identity
        for letter in reversed(tuple(word)):
            if not 1 <= letter <= self.rank:
                raise RangeError(f"letter {letter} has no finite-Weyl meaning")
            # rightmost letter acts first, each later letter post-composes
            gen = self._gens[letter]
            mat = tuple(self._act(gen, row) for row in mat)
        return mat

    def act_on_root(self, word: Sequence[int], x: Sequence[int]) -> tuple:
        return self._act(self.matrix_of(word), x)

    def length(self, word: Sequence[int]) -> int:
        """Number of positive roots sent to negative roots."""
        mat = self.matrix_of(word)
        count = 0
        for r in self.rs.positive:
            if any(c < 0 for c in self._act(mat, r)):
                count += 1
        return count

    def is_reduced(self, word: Sequence[int]) -> bool:
        return len(tuple(word)) == self.length(word)

    def all_elements(self) -> dict[tuple, tuple]:
        """Map from group matrices to one shortest (BFS-first) word each.

        The matrix of word + (i,) is the generator of i composed onto that of
        word: row k is ``_act(mat, gen_i[k])``, one step per BFS edge.
        """
        if self._elements is None:
            start = self.matrix_of(())
            found = {start: ()}
            queue = [start]
            while queue:
                nxt = []
                for mat in queue:
                    word = found[mat]
                    for i in range(1, self.rank + 1):
                        longer = word + (i,)
                        m2 = tuple(self._act(mat, g) for g in self._gens[i])
                        if m2 not in found:
                            found[m2] = longer
                            nxt.append(m2)
                queue = nxt
            self._elements = found
        return self._elements

    def canonical_words(self) -> list[tuple]:
        """One reduced word per element, sorted by (length, letters)."""
        return sorted(self.all_elements().values(), key=lambda w: (len(w), w))


def is_generic(rs: RootSystem, theta: StabilityParameter) -> bool:
    """Whether the parameter avoids every root hyperplane; a root x is the affine (0, *x)."""
    if theta.scaled(rs.d) != 0:
        raise NotInThetaD("parameter does not kill the imaginary root vector")
    return all(theta.scaled((0, *r)) != 0 for r in rs.roots)


def chamber_of(rs: RootSystem, theta: StabilityParameter) -> tuple:
    """The chamber word of theta, read from a root system: ``chamber_word(rs.dq, rs.d, theta)``."""
    return chamber_word(rs.dq, rs.d, theta)


def chamber_word(dq: DoubleQuiver, d: Sequence[int], theta: StabilityParameter) -> tuple:
    """The word w with theta positive on the w-image of the simple system.

    Descends by reflecting at any negative entry; the recorded letters, in
    the order applied, spell the chamber word as a left-to-right product.
    The descent runs on the cleared numerators, as ``apply_word_to_theta``
    does: a reflection keeps the positive denominator, so their signs are
    the entries'.  It is bounded by the number of roots, rank . h, where the
    Coxeter number h is the sum of the entries of the imaginary root d for
    A_n, D_n and E6-E8, so no root system is built.
    """
    if theta.scaled(d) != 0:
        raise NotInThetaD("parameter does not kill the imaginary root vector")
    rank = dq.vertex_count - 1
    cur = theta.numerators
    letters: list[int] = []
    for _ in range(rank * sum(d) + 1):
        neg = [i for i in range(1, rank + 1) if cur[i] < 0]
        if any(cur[i] == 0 for i in range(1, rank + 1)):
            raise NotGeneric("parameter lies on a wall")
        if not neg:
            return tuple(letters)
        i = neg[0]
        cur = _reflect_numerators(dq, i, cur)
        letters.append(i)
    raise NotGeneric("descent did not terminate; parameter is not generic")


def chamber_label(word: Sequence[int]) -> str:
    if not word:
        return "C(1)"
    return "C(" + "".join(f"s{letter}" for letter in word) + ")"
