import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbx.errors import (
    FieldMismatchError,
    InvalidSpecError,
    NotInvertibleError,
    UnsupportedFieldError,
)
from rbx.fields import (
    PrimeField,
    QuadraticExtension,
    Rationals,
    _sqrt_mod_prime,
    field_from_text,
    field_to_text,
)

Q = Rationals()
F5 = PrimeField(5)
F13 = PrimeField(13)
E13 = QuadraticExtension(13, 2)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
f5_ints = st.integers(min_value=0, max_value=4)


@given(rationals, rationals, rationals)
def test_rational_ring_laws(a, b, c):
    x, y, z = Q.element(a), Q.element(b), Q.element(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Q.zero
    assert x * Q.one == x


@given(f5_ints, f5_ints)
def test_prime_field_inverse(a, b):
    x = F5.element(a)
    if not x.is_zero():
        assert x * x.inverse() == F5.one
    y = F5.element(b)
    assert (x * y).value == (a * b) % 5


def test_zero_inverse_rejected():
    with pytest.raises(NotInvertibleError):
        F5.zero.inverse()


def test_char2_rejected_by_default():
    with pytest.raises(UnsupportedFieldError):
        PrimeField(2)
    f2 = PrimeField(2, allow_char2=True)
    assert f2.one + f2.one == f2.zero


def test_composite_modulus_rejected():
    with pytest.raises(InvalidSpecError):
        PrimeField(6)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _builds(p):
    try:
        PrimeField(p, allow_char2=True)
    except InvalidSpecError:
        return False
    return True


def test_primality_agrees_with_trial_division():
    assert all(_builds(n) == _is_prime_by_trial_division(n) for n in range(-2, 20000))


def test_large_primes_decided_exactly():
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    assert field_from_text("F1000000000000000003") == PrimeField(10**18 + 3)
    # 10^18 + 1 = 101 * 9901 * 999999000001
    with pytest.raises(InvalidSpecError, match="not prime"):
        PrimeField(10**18 + 1)
    # a strong pseudoprime to every prime base up to 37, not to 41
    with pytest.raises(InvalidSpecError, match="not prime"):
        PrimeField(399165290221 * 798330580441)


@pytest.mark.parametrize(
    "p", [3317044064679887385961981, 10**400, 10**5000], ids=["bound", "10^400", "10^5000"]
)
def test_primes_past_the_bound_refused(p):
    with pytest.raises(InvalidSpecError, match="below 3.3e24"):
        PrimeField(p)
    with pytest.raises(InvalidSpecError, match="below 3.3e24"):
        QuadraticExtension(p, 2)


@pytest.mark.parametrize(
    "text",
    ["F3317044064679887385961981", "F1" + "0" * 400, "F1" + "0" * 5000],
    ids=["bound", "10^400", "10^5000"],
)
def test_field_text_past_the_bound_refused(text):
    # int() would refuse the 5001 digits with a ValueError
    with pytest.raises(InvalidSpecError, match="below 3.3e24"):
        field_from_text(text)


def test_element_enumeration_order():
    assert [e.value for e in F5.elements()] == [0, 1, 2, 3, 4]
    ext = QuadraticExtension(3, 2)
    seen = list(ext.elements())
    assert len(seen) == 9
    assert len(set(seen)) == 9


def test_rationals_cannot_enumerate():
    with pytest.raises(UnsupportedFieldError):
        list(Q.elements())


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        F5.one + F13.one
    # Field.element takes an element of its own field only
    assert F5.element(F5.element(3)) == F5.element(3)
    for field, x in ((F5, F13.one), (F13, E13.one), (E13, F13.one), (Q, F5.one)):
        with pytest.raises(FieldMismatchError):
            field.element(x)


def test_field_text_round_trip():
    for f in (Q, F5, F13, E13):
        assert field_from_text(field_to_text(f)) == f
    assert field_to_text(E13) == "F13(s=2)"
    with pytest.raises(InvalidSpecError):
        field_from_text("R")


def test_element_text_round_trip():
    samples = [Q.element(Fraction(-3, 7)), Q.element(2), F5.element(4)]
    for x in samples:
        assert x.field.parse(str(x)) == x
    e = E13.element((4, 9))
    assert str(e) == "4+9*s"
    assert E13.parse("4+9*s") == e
    assert Q.parse("3/06") == Q.element(Fraction(1, 2))


@pytest.mark.parametrize("field,text", [(Q, "1/0"), (Q, "-2/00"), (Q, "1.5"), (F5, "1/2")])
def test_bad_literal_rejected(field, text):
    with pytest.raises(InvalidSpecError):
        field.parse(text)


NINES = "9" * 5000


@pytest.mark.parametrize(
    "field,text,kind",
    [
        (F5, NINES, "residue"),
        (F5, "-" + NINES, "residue"),
        (E13, NINES, "extension"),
        (E13, "1+" + NINES + "*s", "extension"),
        (Q, NINES, "rational"),
        (Q, "1/" + NINES, "rational"),
    ],
    ids=["residue", "negative-residue", "extension", "extension-s", "rational", "denominator"],
)
def test_long_literal_refused(field, text, kind):
    # int() would refuse the 5000 digits with a ValueError
    with pytest.raises(InvalidSpecError, match=f"^{kind} literal of more than 4300 digits$"):
        field.parse(text)


def test_longest_literal_read():
    # 4300 digits after the leading zeros are still read, and reduced
    digits = "0" * 10 + "9" * 4300
    assert F5.parse(digits) == F5.element(10**4300 - 1)
    assert E13.parse(f"{digits}+1*s") == E13.element(((10**4300 - 1) % 13, 1))
    assert Q.parse(f"-1/{digits}") == Q.element(Fraction(-1, 10**4300 - 1))


def test_long_extension_root_refused():
    with pytest.raises(InvalidSpecError, match="^s= has more than 4300 digits$"):
        field_from_text(f"F5(s={NINES})")
    # a root of any length up to the bound is reduced mod p
    assert field_from_text("F5(s=0000000000002)") == QuadraticExtension(5, 2)


def test_extension_adjoined_root():
    s = E13.sqrt_symbol()
    assert s * s == E13.element(2)
    # 2 has no root in F13 itself
    assert F13.sqrt(F13.element(2)) is None
    r = E13.sqrt(E13.element(2))
    assert r is not None and r * r == E13.element(2)


def test_prime_sqrt_exact():
    for v in range(13):
        x = F13.element(v)
        r = F13.sqrt(x)
        if r is not None:
            assert r * r == x
    squares = {(v * v) % 13 for v in range(13)}
    for v in range(13):
        if v not in squares:
            assert F13.sqrt(F13.element(v)) is None


@pytest.mark.parametrize("p", [13, 17, 41])
def test_sqrt_mod_prime_matches_brute_force(p):
    # p = 1 mod 4 takes Tonelli-Shanks; at 17 and 41, 2 is a square, so the
    # search for a non-residue moves past it
    for a in range(p):
        roots = [r for r in range(p) if r * r % p == a]
        assert _sqrt_mod_prime(a, p) == (min(roots) if roots else None)


@pytest.mark.parametrize("p, a", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
def test_extension_sqrt_matches_brute_force(p, a):
    # every element, including u + v*s with v != 0; the root with the
    # smaller encoding u + v*p is the one returned
    field = QuadraticExtension(p, a)
    elements = list(field.elements())
    for x in elements:
        roots = [y for y in elements if y * y == x]
        expect = min(roots, key=lambda y: y.encoding()) if roots else None
        assert field.sqrt(x) == expect


@given(st.integers(min_value=0, max_value=168))
def test_extension_field_laws(n):
    # sample the 169-element extension by encoding index
    x = E13.element((n % 13, n // 13))
    if not x.is_zero():
        assert x * x.inverse() == E13.one
    assert x + (-x) == E13.zero


def test_int_coercion_in_arithmetic():
    assert F5.element(3) + 4 == F5.element(2)
    assert 2 * Q.element(Fraction(1, 2)) == Q.one
    assert F5.element(3) - 1 == F5.element(2)
    assert Q.element(3) / 2 == Q.element(Fraction(3, 2))


def test_finiteness_flags():
    assert not Q.is_finite
    assert F5.is_finite and F5.order() == 5
    assert E13.is_finite and E13.order() == 169
