import random
import time
from fractions import Fraction

import pytest

from ppalg import fields
from ppalg.errors import RangeError
from ppalg.fields import GF, QQ, GaloisField, PrimeField, _is_prime, _poly_mul_mod, field_from_json


def test_rationals_are_exact_and_reduced():
    x = QQ.parse_scalar("3/7")
    y = QQ.parse_scalar("2/7")
    assert QQ.add(x, y) == Fraction(5, 7)
    assert QQ.format_scalar(Fraction(6, 14)) == "3/7"
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)


def test_prime_field_fermat_inverse():
    f = GF(7)
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("field", [QQ, GF(7), GF(4)], ids=["QQ", "GF7", "GF4"])
def test_zero_has_no_inverse(field):
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        field.inv(field.zero())


def test_prime_validation():
    with pytest.raises(RangeError):
        PrimeField(1)
    with pytest.raises(RangeError):
        PrimeField(9)
    with pytest.raises(RangeError):
        GF(6)
    assert isinstance(GF(2147483647), PrimeField)


def _factors(q):
    """The prime factors of q with multiplicity, by the test's own trial division."""
    out, f = [], 2
    while f * f <= q:
        while q % f == 0:
            out.append(f)
            q //= f
        f += 1
    return out + [q] if q > 1 else out


def test_gf_builds_exactly_the_supported_prime_powers():
    for q in [*range(2, 1001), 2**30, 2**31 - 1, 2**31, 46337**2]:
        factors = _factors(q)
        if len(set(factors)) == 1 and (len(factors) == 1 or q <= GaloisField.MAX_ORDER):
            f = GF(q)
            assert (f.order, f.p) == (q, factors[0]), q
        else:
            with pytest.raises(RangeError):
                GF(q)


def test_gf_of_a_prime_trial_divides_it_once(monkeypatch):
    calls = []
    divide = fields._smallest_factor
    monkeypatch.setattr(fields, "_smallest_factor", lambda n: calls.append(n) or divide(n))
    f = GF(2147483647)
    assert calls == [2147483647]
    assert isinstance(f, PrimeField) and (f.p, f.order) == (2147483647, 2147483647)
    assert f == PrimeField(2147483647) and hash(f) == hash(PrimeField(2147483647))
    assert f.mul(f.inv(3), 3) == 1


@pytest.mark.parametrize("payload", [
    {"kind": "prime", "p": 9},
    {"kind": "prime", "p": 65537 * 32749},  # no factor below 32749
    {"kind": "prime-power", "p": 4, "k": 2},
    {"kind": "prime-power", "p": 6, "k": 3},
])
def test_field_json_refuses_a_composite_characteristic(payload):
    with pytest.raises(RangeError):
        field_from_json(payload)


def test_is_prime_agrees_with_a_sieve():
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [_is_prime(x) for x in range(n)] == sieve
    assert not any(_is_prime(x) for x in range(-5, 2))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_prime_power_field_axioms_by_enumeration(q):
    f = GF(q)
    assert isinstance(f, GaloisField)
    elems = list(f.elements())
    assert len(elems) == q
    for a in elems:
        assert f.add(a, f.zero()) == a
        assert f.mul(a, f.one()) == a
        assert f.add(a, f.neg(a)) == f.zero()
        if a != f.zero():
            assert f.mul(a, f.inv(a)) == f.one()
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf4_has_no_zero_divisors():
    f = GF(4)
    for a in f.elements():
        for b in f.elements():
            if a != 0 and b != 0:
                assert f.mul(a, b) != 0


def test_field_json_round_trip():
    for field in (QQ, GF(5), GF(4)):
        assert field_from_json(field.to_json()) == field


def test_scalar_strings_round_trip():
    f5 = GF(5)
    assert f5.parse_scalar(f5.format_scalar(3)) == 3
    assert QQ.parse_scalar("-2") == Fraction(-2)
    assert QQ.parse_scalar("-5/10") == Fraction(-1, 2) and QQ.parse_scalar("2.5") == Fraction(5, 2)


@pytest.mark.parametrize("make", [
    lambda: GF(10**14 + 31),  # a prime above 2^31-1
    lambda: GF(2**61 - 1),
    lambda: field_from_json({"kind": "prime-power", "p": 1000000000039, "k": 2}),  # a prime, p^2 far above 256
    lambda: GaloisField(2, 10**9),
])
def test_an_order_out_of_range_is_refused_before_any_factoring(make):
    # trial division up to sqrt(p) would take seconds here; the order bound comes first
    start = time.perf_counter()
    with pytest.raises(RangeError):
        make()
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("text", ["1e999999999", "1E5", "2.5e-3", "-1e2/3"])
def test_rationals_refuse_an_exponent(text):
    # Fraction would expand 1e999999999 into a billion-digit integer
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        QQ.parse_scalar(text)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("field", [GF(3), GF(4)])
def test_parse_scalar_rejects_codes_outside_the_field(field):
    assert field.parse_scalar(str(field.order - 1)) == field.order - 1
    for code in (str(field.order), "5", "-1"):
        with pytest.raises(ValueError):
            field.parse_scalar(code)


def digits(f: GaloisField, code: int) -> list[int]:
    return [code // f.p**i % f.p for i in range(f.k)]


def from_digits(f: GaloisField, ds) -> int:
    return sum(d * f.p**i for i, d in enumerate(ds))


def assert_additive_tables_match_digit_arithmetic(f: GaloisField, pairs) -> None:
    p = f.p
    for a in f.elements():
        assert f.neg(a) == from_digits(f, [-x % p for x in digits(f, a)])
    for a, b in pairs:
        da, db = digits(f, a), digits(f, b)
        assert f.add(a, b) == from_digits(f, [(x + y) % p for x, y in zip(da, db)])
        assert f.sub(a, b) == from_digits(f, [(x - y) % p for x, y in zip(da, db)])


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_additive_tables_match_digit_arithmetic_on_every_pair(q):
    f = GF(q)
    assert_additive_tables_match_digit_arithmetic(f, [(a, b) for a in f.elements() for b in f.elements()])


def test_additive_tables_match_digit_arithmetic_on_a_gf256_sample():
    rng = random.Random(256)
    f = GF(256)
    assert_additive_tables_match_digit_arithmetic(f, [(rng.randrange(256), rng.randrange(256)) for _ in range(5000)])


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_mul_table_is_the_schoolbook_product_mod_the_modulus(q):
    f = GF(q)
    for a in f.elements():
        for b in f.elements():
            product = _poly_mul_mod(tuple(digits(f, a)), tuple(digits(f, b)), f.modulus, f.p)
            assert f.mul(a, b) == from_digits(f, product)
        if a:
            assert f.mul(a, f.inv(a)) == 1


# the lexicographically first monic irreducible of each order, (c0, ..., 1);
# the multiplication tables and every output over GF(q) depend on it
MODULI = {
    4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1), 16: (1, 0, 0, 1, 1),
    25: (1, 1, 1), 27: (1, 0, 2, 1), 32: (1, 0, 0, 1, 0, 1), 49: (1, 0, 1),
    64: (1, 0, 0, 0, 0, 1, 1), 81: (1, 0, 1, 1, 1), 121: (1, 0, 1), 125: (1, 0, 1, 1),
    128: (1, 0, 0, 0, 0, 0, 1, 1), 169: (1, 3, 1), 243: (1, 0, 0, 0, 2, 1),
    256: (1, 0, 0, 0, 1, 1, 0, 1, 1),
}


def test_every_prime_power_field_keeps_its_modulus():
    assert {q: GF(q).modulus for q in MODULI} == MODULI


@pytest.mark.parametrize("field", [GF(2), GF(7), GF(4), GF(27), GF(256)])
def test_zero_is_the_only_falsy_element_of_a_finite_field(field):
    assert [x for x in field.elements() if not x] == [field.zero()]


def test_zero_is_the_only_falsy_rational():
    samples = [QQ.parse_scalar(s) for s in ("0", "-0", "0/5", "1", "-1", "1/3", "-7/2")]
    assert [x for x in samples if not x] == [QQ.zero()] * 3
