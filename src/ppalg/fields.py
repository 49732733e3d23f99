"""Exact scalar fields: arbitrary-precision rationals and small Galois fields.

Every field here is exact, there is no rounding anywhere.  Elements are plain
hashable Python values: ``Fraction`` for the rationals, ``int`` residues for
prime fields, and ``int`` codes (base-p digit vectors of polynomial
coefficients) for prime-power fields.  In every field the zero is the only
falsy element, so ``if x`` is a zero test that costs no field operation.
Field objects are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator

from .errors import FieldMismatch, RangeError, UsageError

MAX_PRIME = 2**31 - 1


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division up to sqrt(n)."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def _is_prime(p: int) -> bool:
    return p >= 2 and _smallest_factor(p) == p


class Field:
    """Common interface of the exact scalar fields.

    Every field defines ``zero``, ``one``, ``add``, ``sub``, ``neg``, ``mul``,
    ``inv``, ``from_int``, ``is_element``, ``is_finite``, ``parse_scalar`` and
    ``to_json``; a finite field also ``elements`` and ``order``.
    """

    kind: str

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def nonzero_elements(self) -> Iterator:
        for x in self.elements():
            if x != self.zero():
                yield x

    def format_scalar(self, a) -> str:
        return str(a)


class Rationals(Field):
    """The field of rationals, with always-reduced fractions."""

    kind = "rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def is_element(self, a) -> bool:
        return isinstance(a, Fraction)

    @property
    def is_finite(self) -> bool:
        return False

    def parse_scalar(self, s: str):
        """Read ``n`` or ``n/d`` (or an int); an exponent, which ``Fraction`` would expand, raises ValueError."""
        if isinstance(s, str) and ("e" in s or "E" in s):
            raise ValueError(f"{s!r} has an exponent; write a rational as n or n/d")
        return Fraction(s)

    def to_json(self) -> dict:
        return {"kind": "rationals"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class _FiniteField(Field):
    """GF(q) with elements the codes 0..q-1; subclasses set ``p`` and ``q`` and do the arithmetic."""

    p: int  # the characteristic
    q: int  # the order

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        # embed the prime subfield
        return n % self.p

    def is_element(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.q

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return self.q

    def parse_scalar(self, s: str):
        """Read a finite-field element code, which must lie in [0, order)."""
        v = int(s)
        if not 0 <= v < self.q:
            raise ValueError(f"{v} is not an element code of {self!r}")
        return v

    def __repr__(self):
        return f"GF({self.q})"


class PrimeField(_FiniteField):
    """Integers modulo a prime p, with inverses by Fermat's little theorem."""

    kind = "prime"

    def __init__(self, p: int):
        if not (2 <= p <= MAX_PRIME) or not _is_prime(p):
            raise RangeError(f"modulus {p} is not a prime in [2, 2^31-1]")
        self.p = self.q = p

    @staticmethod
    def _of(p: int) -> "PrimeField":
        """A trusted modulus: a prime in [2, 2^31-1], found by the caller's trial division."""
        field = object.__new__(PrimeField)
        field.p = field.q = p
        return field

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    # schoolbook product of coefficient tuples, reduced mod the monic modulus
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        for j in range(k + 1):
            prod[deg - k + j] = (prod[deg - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def _find_irreducible(p: int, k: int) -> tuple:
    """Lexicographically first monic irreducible polynomial of degree k over F_p.

    Coefficient tuples are (c0, ..., c_{k-1}, 1).  Irreducibility is decided by
    trial division: no monic polynomial of degree up to k//2 leaves remainder
    zero, which is plenty for the small extension degrees supported here.
    """
    for low in product(range(p), repeat=k):
        f = low + (1,)
        if all(
            any(_poly_mul_mod(f, (1,), d + (1,), p))
            for deg in range(1, k // 2 + 1)
            for d in product(range(p), repeat=deg)
        ):
            return f
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


class GaloisField(_FiniteField):
    """GF(p^k) for small prime powers, with all arithmetic tabled.

    Elements are integer codes 0..p^k-1 whose base-p digits are polynomial
    coefficients modulo a fixed irreducible polynomial (the lexicographically
    first one, so the tables are reproducible).  Addition, negation,
    multiplication and inversion are each one table lookup (subtraction is
    two); the tables are built once in the constructor.
    """

    kind = "prime-power"
    MAX_ORDER = 256

    def __init__(self, p: int, k: int):
        if k < 2:
            raise RangeError("use PrimeField for k = 1")
        # the order is bounded before the trial division of p, which grows as sqrt(p);
        # 2^k <= p^k bounds k before p^k is formed
        if k >= self.MAX_ORDER.bit_length() or p**k > self.MAX_ORDER:
            raise RangeError(f"prime power {p}^{k} exceeds supported order {self.MAX_ORDER}")
        if not _is_prime(p):
            raise RangeError(f"characteristic {p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _find_irreducible(p, k)
        self._add, self._neg = self._additive_tables()
        self._mul, self._inv = self._multiplicative_tables()

    def _additive_tables(self) -> tuple[list, list]:
        # codes add digit by digit mod p with no carry: XOR when p = 2, else
        # row a of GF(p^j) is built from row a // p of GF(p^(j-1)) and the low digit
        p, q = self.p, self.q
        if p == 2:
            add = [[a ^ b for b in range(q)] for a in range(q)]
        else:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            low = add
            while len(add) < q:
                add = [
                    [low[a % p][b0] + p * x for x in add[a // p] for b0 in range(p)]
                    for a in range(len(add) * p)
                ]
        neg = [row.index(0) for row in add]
        return add, neg

    def _multiplicative_tables(self) -> tuple[list, list]:
        # log/antilog tables of the first primitive element g, whose powers
        # come from the schoolbook product mod the modulus
        q, n = self.q, self.q - 1
        for g in range(2, q):
            gp, exp = self._decode(g), [1]
            while len(exp) < n:
                power = self._encode(_poly_mul_mod(self._decode(exp[-1]), gp, self.modulus, self.p))
                if power == 1:
                    break
                exp.append(power)
            if len(exp) == n:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp + exp
        mul = [[0] * q] + [[0] + [exp2[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)]
        inv = [0] + [exp[-log[a] % n] for a in range(1, q)]
        return mul, inv

    def _decode(self, code: int) -> tuple:
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return tuple(digits)

    def _encode(self, poly: tuple) -> int:
        code = 0
        for c in reversed(poly):
            code = code * self.p + c
        return code

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def to_json(self) -> dict:
        return {"kind": "prime-power", "p": self.p, "k": self.k}

    def __eq__(self, other):
        return isinstance(other, GaloisField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("prime-power", self.p, self.k))


QQ = Rationals()


def GF(q: int) -> Field:
    """The finite field with q elements, q a prime or a small prime power."""
    if q < 2:
        raise RangeError(f"{q} is not a prime power")
    # no supported order lies above MAX_PRIME, so refuse before the trial division, which grows as sqrt(q)
    if q > MAX_PRIME:
        raise RangeError(f"order {q} is above the largest supported order 2^31-1")
    p = _smallest_factor(q)
    k, m = 1, q // p
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise RangeError(f"{q} is not a prime power")
    return PrimeField._of(p) if k == 1 else GaloisField(p, k)


def check_same_field(f1: Field, f2: Field) -> None:
    if f1 != f2:
        raise FieldMismatch(f"mixed fields {f1!r} and {f2!r}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def field_from_json(data: dict) -> Field:
    """Read a field payload; a malformed one raises UsageError naming its JSON path."""
    if not isinstance(data, dict):
        raise UsageError("field: expected an object")
    kind = data.get("kind")
    if kind == "rationals":
        return QQ
    if kind not in ("prime", "prime-power"):
        raise UsageError(f"field.kind: unknown field kind {kind!r}")
    keys = "p" if kind == "prime" else "pk"
    for key in keys:
        if not _is_int(data.get(key)):  # a float or a bool is not a parameter
            raise UsageError(f"field.{key}: expected an integer, got {data.get(key)!r}")
    params = [data[key] for key in keys]
    return PrimeField(*params) if kind == "prime" else GaloisField(*params)
