"""Fixed-precision p-adic arithmetic: units mod p^K, valuation-carrying numbers,
Teichmuller lifts, and exact integer reconstruction.

Every value is immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class PadicError(Exception):
    """Base class for p-adic arithmetic failures."""


class PrecisionError(PadicError):
    """A result would carry fewer than one significant p-adic digit, or a
    reconstruction was attempted with insufficient precision."""


class NotAnIntegerError(PadicError):
    """Integer reconstruction was attempted on a value of negative valuation."""


class RangeError(PadicError):
    """No representative of the residue class lies in the requested range."""


def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 3 or n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PadicUnit:
    """A unit of Z_p known modulo p^precision."""

    residue: int
    p: int
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise PrecisionError("unit with < 1 known digit")
        if not 0 <= self.residue < self.p ** self.precision:
            raise ValueError("residue out of range for p^precision")
        if self.residue % self.p == 0:
            raise ValueError("residue divisible by p: not a unit")

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    def mul(self, other: "PadicUnit") -> "PadicUnit":
        prec = min(self.precision, other.precision)
        mod = self.p ** prec
        return PadicUnit(self.residue * other.residue % mod, self.p, prec)

    def inv(self) -> "PadicUnit":
        return PadicUnit(pow(self.residue, -1, self.modulus), self.p, self.precision)

    def pow(self, e: int) -> "PadicUnit":
        if e < 0:
            return self.inv().pow(-e)
        return PadicUnit(pow(self.residue, e, self.modulus), self.p, self.precision)

    def neg(self) -> "PadicUnit":
        return PadicUnit((-self.residue) % self.modulus, self.p, self.precision)


class ValuedPadic:
    """A p-adic number p^valuation * unit, or a distinguished zero.

    The unit carries its own relative precision; absolute_precision is
    valuation + (digits known of the unit).  A zero produced by cancellation
    remembers the absolute precision at which it was observed; a constructed
    exact zero has infinite absolute precision.
    """

    __slots__ = ("p", "valuation", "unit", "_zero_prec")

    def __init__(self, p: int, valuation: int = 0, unit: PadicUnit | None = None,
                 zero_precision=math.inf):
        self.p = p
        self.valuation = valuation
        self.unit = unit
        self._zero_prec = zero_precision
        if unit is not None and unit.p != p:
            raise ValueError("unit prime mismatch")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(p: int, precision=math.inf) -> "ValuedPadic":
        return ValuedPadic(p, 0, None, precision)

    @staticmethod
    def from_int(c: int, p: int, digits: int) -> "ValuedPadic":
        if c == 0:
            return ValuedPadic.zero(p)
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        return ValuedPadic(p, v, PadicUnit(c % p ** digits, p, digits))

    @staticmethod
    def from_fraction(q: Fraction, p: int, digits: int) -> "ValuedPadic":
        if q == 0:
            return ValuedPadic.zero(p)
        num, den = q.numerator, q.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        mod = p ** digits
        return ValuedPadic(p, v, PadicUnit(num * pow(den, -1, mod) % mod, p, digits))

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    @property
    def absolute_precision(self):
        if self.unit is None:
            return self._zero_prec
        return self.valuation + self.unit.precision

    def residue_mod(self, exponent: int) -> int:
        """The value mod p^exponent, for 0 <= exponent <= absolute_precision.

        Requires valuation >= 0 (the value must be a p-adic integer).
        """
        if exponent > self.absolute_precision:
            raise PrecisionError("requested more digits than are known")
        if self.unit is None:
            return 0
        if self.valuation < 0:
            raise NotAnIntegerError("negative valuation")
        if self.valuation >= exponent:
            return 0
        return self.p ** self.valuation * self.unit.residue % self.p ** exponent

    def digits(self, count: int | None = None) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        if self.unit is None:
            return []
        if count is None:
            count = self.unit.precision
        r, out = self.unit.residue, []
        for _ in range(count):
            r, dig = divmod(r, self.p)
            out.append(dig)
        return out

    def __repr__(self):
        if self.unit is None:
            return f"O({self.p}^{self._zero_prec})" if self._zero_prec != math.inf else "0"
        return f"{self.p}^{self.valuation} * ({self.unit.residue} + O({self.p}^{self.unit.precision}))"

    def __eq__(self, other):
        if not isinstance(other, ValuedPadic):
            return NotImplemented
        if self.p != other.p:
            return False
        if self.is_zero or other.is_zero:
            return (self.is_zero and other.is_zero
                    and self._zero_prec == other._zero_prec)
        return (self.valuation == other.valuation
                and self.unit == other.unit)

    def __hash__(self):
        if self.is_zero:
            return hash((self.p, "zero", self._zero_prec))
        return hash((self.p, self.valuation, self.unit))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "ValuedPadic"):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __add__(self, other: "ValuedPadic") -> "ValuedPadic":
        self._check(other)
        if self.is_zero and other.is_zero:
            return ValuedPadic.zero(self.p, min(self._zero_prec, other._zero_prec))
        if self.is_zero:
            return other._truncate(min(self._zero_prec, other.absolute_precision))
        if other.is_zero:
            return self._truncate(min(other._zero_prec, self.absolute_precision))
        prec = min(self.absolute_precision, other.absolute_precision)
        base = min(self.valuation, other.valuation)
        span = prec - base
        if span < 1:
            raise PrecisionError("addition lost all significant digits")
        mod = self.p ** span
        total = (self.unit.residue * self.p ** (self.valuation - base)
                 + other.unit.residue * self.p ** (other.valuation - base)) % mod
        if total == 0:
            return ValuedPadic.zero(self.p, prec)
        v = 0
        while total % self.p == 0:
            total //= self.p
            v += 1
        rel = span - v
        return ValuedPadic(self.p, base + v, PadicUnit(total % self.p ** rel, self.p, rel))

    def _truncate(self, abs_prec) -> "ValuedPadic":
        if abs_prec == self.absolute_precision:
            return self
        if self.is_zero:
            return ValuedPadic.zero(self.p, abs_prec)
        rel = abs_prec - self.valuation
        if rel < 1:
            # every remaining digit is cut away: indistinguishable from zero
            return ValuedPadic.zero(self.p, abs_prec)
        return ValuedPadic(self.p, self.valuation,
                           PadicUnit(self.unit.residue % self.p ** rel, self.p, rel))

    def __neg__(self) -> "ValuedPadic":
        if self.is_zero:
            return self
        return ValuedPadic(self.p, self.valuation, self.unit.neg())

    def __sub__(self, other: "ValuedPadic") -> "ValuedPadic":
        return self + (-other)

    def __mul__(self, other: "ValuedPadic") -> "ValuedPadic":
        self._check(other)
        if self.is_zero or other.is_zero:
            # p^v*unit times a zero known mod p^N vanishes mod p^(N+v)
            if self.is_zero and other.is_zero:
                prec = min(self._zero_prec + other._zero_prec, math.inf)
            elif self.is_zero:
                prec = self._zero_prec + other.valuation if self._zero_prec != math.inf else math.inf
            else:
                prec = other._zero_prec + self.valuation if other._zero_prec != math.inf else math.inf
            return ValuedPadic.zero(self.p, prec)
        return ValuedPadic(self.p, self.valuation + other.valuation,
                           self.unit.mul(other.unit))

    def inv(self) -> "ValuedPadic":
        if self.is_zero:
            raise ZeroDivisionError("inverse of p-adic zero")
        return ValuedPadic(self.p, -self.valuation, self.unit.inv())

    def __pow__(self, e: int) -> "ValuedPadic":
        if self.is_zero:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            if e == 0:
                return ValuedPadic.from_int(1, self.p, 1)
            return ValuedPadic.zero(self.p, self._zero_prec)
        base = self.inv() if e < 0 else self
        return ValuedPadic(base.p, base.valuation * abs(e), base.unit.pow(abs(e)))


def teichmuller(x: int, p: int, digits: int) -> PadicUnit:
    """The Teichmuller lift of x: the unique (p-1)-st root of unity == x (mod p).

    Computed by the closed form x^(p^(digits-1)) mod p^digits.
    """
    if x % p == 0:
        raise ValueError("Teichmuller lift undefined at 0 (handled at the character layer)")
    return PadicUnit(pow(x % p, p ** (digits - 1), p ** digits), p, digits)


def primitive_root(p: int) -> int:
    """The smallest generator of F_p^* for an odd prime p."""
    m, factors, q = p - 1, [], 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def batch_inverse(values, mod: int) -> list[int]:
    """Inverses mod `mod` of units, from one modular inversion (Montgomery's trick)."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % mod
    inv = pow(acc, -1, mod)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        out[i] = inv * prefix[i] % mod
        inv = inv * values[i] % mod
    return out


def chirp_dft(a, powers, mod: int) -> list[int]:
    """[sum_e a_e rho^(ek) mod `mod` for k in range(m)] for residues 0 <= a_e < mod,
    given powers[e] = rho^e of a root of unity rho of even order m = len(powers)
    with rho^(m/2) = -1.

    Bluestein's identity ek = C(e+k, 2) - C(e, 2) - C(k, 2) turns the DFT into
    the correlation c_k = sum_e u_e v_(e+k) of u_e = a_e rho^-C(e,2) with the
    chirp v_i = rho^C(i,2), and the k-th sum is rho^-C(k,2) c_k.  As
    rho^(m/2) = -1, the chirp satisfies v_(i+m) = -v_i, so c_k = P[m-1+k] - P[k-1]
    for the product P of two length-m polynomials, computed as one big-integer
    product by Kronecker substitution: slots of `width` bytes hold every
    coefficient, a sum of m products below mod^2, without carries.
    """
    size = len(powers)
    tri = [0] * size  # C(i, 2) mod m
    for i in range(1, size):
        tri[i] = (tri[i - 1] + i - 1) % size
    width = (size * (mod - 1) ** 2).bit_length() // 8 + 1
    packed_u = int.from_bytes(b"".join((c * powers[-e] % mod).to_bytes(width, "little")
                                       for c, e in zip(reversed(a), reversed(tri))),
                              "little")
    packed_v = int.from_bytes(b"".join(powers[e].to_bytes(width, "little") for e in tri),
                              "little")
    raw = (packed_u * packed_v).to_bytes(2 * size * width, "little")
    slots = [int.from_bytes(raw[i:i + width], "little")
             for i in range(0, (2 * size - 1) * width, width)]
    return [powers[-tri[k]] * (slots[size - 1 + k] - (slots[k - 1] if k else 0)) % mod
            for k in range(size)]


@lru_cache(maxsize=None)
def teichmuller_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of the Teichmuller lifts for 1..p-1; index 0 is a 0 sentinel.

    One primitive root g is lifted by the closed form; the rest follow from
    w(g^k) = w(g)^k, one multiplication each.
    """
    g, mod = primitive_root(p), p ** digits
    wg = teichmuller(g, p, digits).residue
    table = [0] * p
    x, t = 1, 1
    for _ in range(p - 1):
        table[x] = t
        x, t = x * g % p, t * wg % mod
    return tuple(table)


def char_value(j: int, x: int, p: int, digits: int) -> ValuedPadic:
    """omega-bar^j(x) with the chi(0) := 0 convention (including j == 0)."""
    x %= p
    if x == 0:
        return ValuedPadic.zero(p)
    t = teichmuller_table(p, digits)[x]
    e = (-j) % (p - 1)
    return ValuedPadic(p, 0, PadicUnit(pow(t, e, p ** digits), p, digits))


def reconstruct_integer(x: ValuedPadic, bound: int) -> int:
    """The unique integer in [0, bound] congruent to x mod p^absolute_precision."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if x.is_zero:
        if x._zero_prec != math.inf and x.p ** x._zero_prec <= bound:
            raise PrecisionError("p^precision does not exceed the bound")
        return 0
    if x.valuation < 0:
        raise NotAnIntegerError("value has negative valuation")
    prec = x.absolute_precision
    if x.p ** prec <= bound:
        raise PrecisionError("p^precision does not exceed the bound; raise the working precision")
    r = x.residue_mod(prec)
    if r > bound:
        raise RangeError(f"no representative of the value lies in [0, {bound}]")
    return r
