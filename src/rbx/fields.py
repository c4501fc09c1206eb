"""Exact scalar arithmetic: rationals, odd prime fields, quadratic extensions.

Three field kinds are supported:

* ``Rationals()``          -- arbitrary-precision fractions (stdlib Fraction),
* ``PrimeField(p)``        -- residues mod an odd prime below 3.3e24 (p = 2
                              only behind an explicit override flag, since
                              most of the theory divides by 2),
* ``QuadraticExtension(p, a)`` -- F_p adjoined s with s*s = a, where a is a
                              quadratic non-residue mod p.

Elements are immutable and carry their field; mixing fields raises
FieldMismatchError rather than coercing silently.  Canonical forms: reduced
fraction with positive denominator, residue in 0..p-1, coefficient pair
(u, v) of u + v*s with both residues canonical.

``sqrt`` returns None when the argument has no square root in the field.
When roots exist there are two; the canonical choice is the one with the
smaller integer encoding (the residue itself for F_p, u + v*p for the
extension), which keeps every downstream normalization deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    FieldMismatchError,
    InvalidSpecError,
    NotInvertibleError,
    UnsupportedFieldError,
)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """Square root of a mod odd prime p via Tonelli-Shanks, or None.

    Returns the root with the smaller residue of the pair {r, p - r}.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


# Miller-Rabin on the first thirteen primes as bases decides primality
# exactly below _PRIME_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017); the first twelve are fooled
# by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
_TOO_LARGE = "p must be below 3.3e24, where primality is decided exactly"
# int() refuses a decimal string of more digits with a ValueError
MAX_DIGITS = 4300


def bounded_int(text: str, error: str, max_digits: int = MAX_DIGITS) -> int:
    """The value of a decimal literal (digits after an optional minus sign).

    Raises InvalidSpecError(error) when it has more than max_digits digits
    after its leading zeros.  The digits are counted before int() reads
    them, and read without the leading zeros, which int() would count.
    """
    digits = text.lstrip("-").lstrip("0")
    if len(digits) > max_digits:
        raise InvalidSpecError(error)
    value = int(digits or "0")
    return -value if text.startswith("-") else value


def _check_prime(p: int) -> None:
    """Raise InvalidSpecError unless p is a prime below _PRIME_BOUND."""
    if p >= _PRIME_BOUND:
        raise InvalidSpecError(_TOO_LARGE)
    if p in _MR_BASES:
        return
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        raise InvalidSpecError(f"{p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise InvalidSpecError(f"{p} is not prime")


class Field:
    """Common interface of the three scalar fields."""

    char: int

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            # the identity test spares the hot path a call to __eq__
            if value.field is not self and value.field != self:
                raise FieldMismatchError("cannot move elements between fields")
            return value
        return FieldElement(self, self._coerce(value))

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    # --- hooks implemented by subclasses -------------------------------
    def _coerce(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        return a == self._coerce(0)

    def _sqrt(self, a):
        raise NotImplementedError

    def _format(self, a) -> str:
        raise NotImplementedError

    def _parse(self, text: str):
        raise NotImplementedError

    def _encoding(self, a) -> int:
        """Integer used for deterministic tie-breaks; finite fields only."""
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return self.char != 0

    def elements(self):
        """Iterate all elements (finite fields only), in encoding order."""
        raise UnsupportedFieldError("cannot enumerate an infinite field")

    def parse(self, text: str) -> "FieldElement":
        return self.element(self._parse(text.strip()))

    def sqrt(self, x: "FieldElement") -> "FieldElement | None":
        if x.field != self:
            raise FieldMismatchError("sqrt argument from a different field")
        root = self._sqrt(x.value)
        return None if root is None else FieldElement(self, root)


class Rationals(Field):
    """The field of rational numbers, backed by fractions.Fraction."""

    char = 0

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def _coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise InvalidSpecError(f"cannot interpret {value!r} as a rational")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise NotInvertibleError("inverse of zero")
        return 1 / a

    def _is_zero(self, a):
        return not a

    def _sqrt(self, a):
        raise UnsupportedFieldError("square roots over Q are out of scope")

    def _format(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def _parse(self, text):
        # the denominator needs a nonzero digit
        if not re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", text):
            raise InvalidSpecError(f"bad rational literal {text!r}")
        error = f"rational literal of more than {MAX_DIGITS} digits"
        return Fraction(*(bounded_int(part, error) for part in text.split("/")))


class PrimeField(Field):
    """Residues modulo a prime p, canonical representatives 0..p-1.

    p = 2 is refused unless allow_char2=True: nearly every construction in
    this package divides by 2, so silent use of characteristic 2 would only
    produce confusing downstream errors.
    """

    def __init__(self, p: int, allow_char2: bool = False):
        _check_prime(p)
        if p == 2 and not allow_char2:
            raise UnsupportedFieldError("characteristic 2 requires the explicit override")
        self.p = p
        self.char = p

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def order(self) -> int:
        return self.p

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise InvalidSpecError(f"cannot interpret {value!r} in {self!r}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if a == 0:
            raise NotInvertibleError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return not a

    def _sqrt(self, a):
        if self.p == 2:
            return a  # both residues are their own squares
        return _sqrt_mod_prime(a, self.p)

    def _format(self, a):
        return str(a)

    def _parse(self, text):
        if not re.fullmatch(r"-?\d+", text):
            raise InvalidSpecError(f"bad residue literal {text!r}")
        return bounded_int(text, f"residue literal of more than {MAX_DIGITS} digits") % self.p

    def _encoding(self, a):
        return a


class QuadraticExtension(Field):
    """F_p(s) with s*s = a for a fixed quadratic non-residue a.

    Elements are pairs (u, v) for u + v*s.  The printed form is "u+v*s"
    (just "u" when v = 0); the integer encoding is u + v*p.
    """

    def __init__(self, p: int, a: int):
        _check_prime(p)
        if p == 2:
            raise UnsupportedFieldError("no quadratic extension over F2 here")
        a %= p
        if a == 0 or _sqrt_mod_prime(a, p) is not None:
            raise InvalidSpecError(f"{a} is a square mod {p}; the extension needs a non-residue")
        self.p = p
        self.char = p
        self.a = a

    def __repr__(self):
        return f"F{self.p}(s={self.a})"

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and (other.p, other.a) == (self.p, self.a)

    def __hash__(self):
        return hash(("Fp2", self.p, self.a))

    def order(self) -> int:
        return self.p * self.p

    def elements(self):
        for v in range(self.p):
            for u in range(self.p):
                yield FieldElement(self, (u, v))

    def _coerce(self, value):
        p = self.p
        if isinstance(value, int):
            return (value % p, 0)
        if isinstance(value, tuple) and len(value) == 2:
            return (value[0] % p, value[1] % p)
        raise InvalidSpecError(f"cannot interpret {value!r} in {self!r}")

    def _add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def _neg(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def _mul(self, x, y):
        p, a = self.p, self.a
        u1, v1 = x
        u2, v2 = y
        return ((u1 * u2 + a * v1 * v2) % p, (u1 * v2 + u2 * v1) % p)

    def _inv(self, x):
        p, a = self.p, self.a
        u, v = x
        if u == 0 and v == 0:
            raise NotInvertibleError("inverse of zero")
        norm = (u * u - a * v * v) % p  # nonzero: a is a non-residue
        ninv = pow(norm, p - 2, p)
        return (u * ninv % p, -v * ninv % p)

    def _is_zero(self, x):
        return x == (0, 0)

    def _sqrt(self, x):
        p, a = self.p, self.a
        u, v = x
        if u == 0 and v == 0:
            return (0, 0)
        if v == 0:
            r = _sqrt_mod_prime(u, p)
            if r is not None:
                return (r, 0)
            # u is a non-residue, so u/a is a residue and sqrt(u) = sqrt(u/a)*s
            r = _sqrt_mod_prime(u * pow(a, p - 2, p) % p, p)
            return None if r is None else (0, min(r, p - r))
        # (x + y*s)^2 = u + v*s  =>  x^2 = (u +- n)/2 with n^2 = u^2 - a v^2,
        # y = v / (2x).  The norm must be a residue for a root to exist.
        n = _sqrt_mod_prime((u * u - a * v * v) % p, p)
        if n is None:
            return None
        inv2 = pow(2, p - 2, p)
        best = None
        for w in ((u + n) * inv2 % p, (u - n) * inv2 % p):
            xr = _sqrt_mod_prime(w, p)
            if xr is None or xr == 0:
                continue
            for x0 in (xr, p - xr):
                y0 = v * pow(2 * x0 % p, p - 2, p) % p
                cand = (x0, y0)
                if self._mul(cand, cand) == (u, v):
                    enc = cand[0] + cand[1] * p
                    if best is None or enc < best[0]:
                        best = (enc, cand)
        return None if best is None else best[1]

    def _format(self, x):
        u, v = x
        return str(u) if v == 0 else f"{u}+{v}*s"

    def _parse(self, text):
        m = re.fullmatch(r"(-?\d+)\+(-?\d+)\*s", text)
        if m:
            u, v = m.groups()
        elif re.fullmatch(r"-?\d+", text):
            u, v = text, "0"
        else:
            raise InvalidSpecError(f"bad extension literal {text!r}")
        error = f"extension literal of more than {MAX_DIGITS} digits"
        return (bounded_int(u, error) % self.p, bounded_int(v, error) % self.p)

    def _encoding(self, x):
        return x[0] + x[1] * self.p

    def sqrt_symbol(self) -> "FieldElement":
        """The adjoined root s itself."""
        return FieldElement(self, (0, 1))


class FieldElement:
    """An immutable scalar with operator overloading.

    Arithmetic accepts plain ints (and Fractions over Q) on either side and
    coerces them into the element's field; elements of a different field are
    rejected.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"{self.field!r} vs {other.field!r}")
            return other.value
        return self.field._coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field._add(self.value, self._lift(other)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        return FieldElement(self.field, self.field._add(self.value, self.field._neg(self._lift(other))))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field._add(self._lift(other), self.field._neg(self.value)))

    def __mul__(self, other):
        return FieldElement(self.field, self.field._mul(self.value, self._lift(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field._mul(self.value, self.field._inv(self._lift(other))))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field._mul(self._lift(other), self.field._inv(self.value)))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.value))

    def sqrt(self) -> "FieldElement | None":
        return self.field.sqrt(self)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def encoding(self) -> int:
        return self.field._encoding(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self._lift(other)
        except (FieldMismatchError, InvalidSpecError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.field._format(self.value)

    def __repr__(self):
        return f"{self}"


_FIELD_TEXT = re.compile(r"Q|F(\d+)(?:\(s=(\d+)\))?")


def field_from_text(text: str, allow_char2: bool = False) -> Field:
    """Build a field from its textual spec: "Q", "F<p>" or "F<p>(s=<a>)"."""
    m = _FIELD_TEXT.fullmatch(text.strip())
    if not m:
        raise InvalidSpecError(f"bad field spec {text!r}")
    if m.group(1) is None:
        return Rationals()
    p = bounded_int(m.group(1), _TOO_LARGE, len(str(_PRIME_BOUND)))
    if m.group(2) is None:
        return PrimeField(p, allow_char2=allow_char2)
    return QuadraticExtension(p, bounded_int(m.group(2), f"s= has more than {MAX_DIGITS} digits"))


def field_to_text(field: Field) -> str:
    return repr(field)
