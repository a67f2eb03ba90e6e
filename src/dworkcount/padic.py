"""Fixed-precision p-adic values and the one character-sum kernel: units mod
p^K, the valuation-carrying ValuedPadic, Teichmuller lifts, the chirp DFT,
CharSum, and exact integer reconstruction.

CharSum is the one character-sum kernel: a residue constant plus one residue
per character index, summed mod p^K by Horner's rule at one y or by one
transform over its whole domain.  Every count method (dwork) and every mGm/mFm
evaluation (hyperfun) goes through it; a count's residues carry no
valuation, and hyperfun folds its valued coefficients into residues first.
dwork._reconstruct turns a count's residue into the count: counts never
build a ValuedPadic.  ValuedPadic carries no arithmetic: it is the value type
of the API boundaries (valued, reconstruct_integer, method_value, gfun/ffun
and the CLI), a named tuple of the same integers.

Every table here and in pgamma has p entries, so a prime over TABLE_LIMIT,
the module constant read at call time, is refused with advice
(TableLimitError) before any table is allocated, as pgamma.SWEEP_LIMIT
refuses long lift sweeps and oracle.ORACLE_LIMIT long enumerations.

Every value but a CharSum is immutable after construction and every operation
is a pure function.  A CharSum memoizes residue per y, and each write stores
the one value the Horner pass gives at that y (two racing writes store the
same integer), so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


# Largest p for which the p-entry Teichmuller and gamma tables are built.  One
# cold `count --method main` at n = 4 took 4.9-5.3 s and 63 MB at p = 100003,
# and 27.8 s and 157 MB at p = 300007, the smallest prime above the limit,
# before the limit existed (CPython 3.11, 2-core machine).  The cost grows
# faster than p (Karatsuba transforms) and with the digits at larger n; at
# p = 10^9 + 7 each table would take about 8 GB.
TABLE_LIMIT = 300_000


# Entries kept by each lru-cached table, kernel, Y^0 power (dwork._gamma_y0)
# and check: one (p, n) family's (a count's K_w and K_target kernels and
# powers, verify's three kernels over one power).
# Over 120 cold count_main(q, 4, 3), q the first 120 primes above 10007, peak
# RSS after 120 was x5.7 that after 10 unbounded (24 -> 142 MB), x1.068 at 2,
# x1.079 at 4 (20.4 -> 22.0 MB) and x1.103 at 8 (CPython 3.11, 2-core machine).
CACHE_SIZE = 4


class TableLimitError(PadicError):
    """p is too large for the p-entry tables every count and mGm/mFm reads."""


def check_table_size(p: int) -> None:
    """Refuse, with advice, a p over TABLE_LIMIT (read at call time)."""
    if p > TABLE_LIMIT:
        raise TableLimitError(
            f"p = {p} is over the table limit of {TABLE_LIMIT}: counts, gfun and "
            f"ffun read Teichmuller and gamma tables of p entries each; use a "
            f"prime p <= {TABLE_LIMIT}")


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


class PadicUnit(namedtuple("PadicUnit", "residue p precision")):
    """A unit of Z_p known modulo p^precision."""

    __slots__ = ()

    def __new__(cls, residue: int, p: int, precision: int):
        if precision < 1:
            raise PrecisionError("unit with < 1 known digit")
        if not 0 <= residue < p ** precision:
            raise ValueError("residue out of range for p^precision")
        if residue % p == 0:
            raise ValueError("residue divisible by p: not a unit")
        return super().__new__(cls, residue, p, precision)


class ValuedPadic(namedtuple("ValuedPadic", "p valuation unit zero_precision")):
    """A p-adic number p^valuation * unit, or a distinguished zero (unit None).

    The unit carries its own relative precision; absolute_precision is
    valuation + (digits known of the unit).  A zero produced by cancellation
    remembers the absolute precision at which it was observed; a constructed
    exact zero has infinite absolute precision.  Every value the package
    builds is a zero of valuation 0 or a non-zero of zero_precision inf, so
    tuple equality compares zeros by precision and non-zeros by valuation
    and unit.
    """

    __slots__ = ()

    def __new__(cls, p: int, valuation: int = 0, unit: PadicUnit | None = None,
                zero_precision=math.inf):
        if unit is not None and unit.p != p:
            raise ValueError("unit prime mismatch")
        return super().__new__(cls, p, valuation, unit, zero_precision)

    @staticmethod
    def zero(p: int, precision=math.inf) -> "ValuedPadic":
        return ValuedPadic(p, 0, None, precision)

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    @property
    def absolute_precision(self):
        if self.unit is None:
            return self.zero_precision
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

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        if self.unit is None:
            return []
        r, out = self.unit.residue, []
        for _ in range(self.unit.precision):
            r, dig = divmod(r, self.p)
            out.append(dig)
        return out

    def __repr__(self):
        if self.unit is None:
            return f"O({self.p}^{self.zero_precision})" if self.zero_precision != math.inf else "0"
        return f"{self.p}^{self.valuation} * ({self.unit.residue} + O({self.p}^{self.unit.precision}))"


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
    given powers[e] = rho^e, e < m = len(powers) = len(a), of a root of unity
    rho with rho^m = 1 (rho^(m/2) = -1 when m is even).

    An even length splits by radix 2 (Cooley-Tukey decimation in frequency):
    X_2k and X_(2k+1) are the length-m/2 DFTs, with root rho^2, of
    a_e + a_(e+m/2) and of (a_e - a_(e+m/2)) rho^e.  Under Karatsuba the two
    half-length products cost about two thirds of one full-length product.

    An odd length runs Bluestein's chirp: ek = C(e+k, 2) - C(e, 2) - C(k, 2)
    turns the DFT into the correlation c_k = sum_e u_e v_(e+k) of
    u_e = a_e rho^-C(e,2) with the chirp v_i = rho^C(i,2), and the k-th sum is
    rho^-C(k,2) c_k.  For odd m, C(i+m, 2) == C(i, 2) (mod m), so the chirp is
    periodic, v_(i+m) = v_i, and c_k = P[m-1+k] + P[k-1] for the product P of
    two length-m polynomials, computed as one big-integer product by Kronecker
    substitution and folded as (P >> (m-1) slots) + (P mod (m-1) slots, moved
    up one slot): slots of `width` bytes hold every c_k, a sum of m products
    below mod^2, without carries, so only m slots are unpacked.
    """
    size = len(powers)
    if size % 2 == 0:
        half, sub = size // 2, powers[::2]
        lo, hi = a[:half], a[half:]
        out = [0] * size
        out[::2] = chirp_dft([(x + y) % mod for x, y in zip(lo, hi)], sub, mod)
        out[1::2] = chirp_dft([(x - y) * w % mod for x, y, w in zip(lo, hi, powers)],
                              sub, mod)
        return out
    tri = [0] * size  # C(i, 2) mod m
    for i in range(1, size):
        tri[i] = (tri[i - 1] + i - 1) % size
    width = (size * (mod - 1) ** 2).bit_length() // 8 + 1
    packed_u = int.from_bytes(b"".join((c * powers[-e] % mod).to_bytes(width, "little")
                                       for c, e in zip(reversed(a), reversed(tri))),
                              "little")
    packed_v = int.from_bytes(b"".join(powers[e].to_bytes(width, "little") for e in tri),
                              "little")
    prod, shift = packed_u * packed_v, 8 * width * (size - 1)
    folded = (prod >> shift) + ((prod & ((1 << shift) - 1)) << 8 * width)
    raw = folded.to_bytes(size * width, "little")
    return [powers[-tri[k]] * int.from_bytes(raw[k * width:(k + 1) * width], "little") % mod
            for k in range(size)]


@lru_cache(maxsize=CACHE_SIZE)
def teichmuller_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of the Teichmuller lifts for 1..p-1; index 0 is a 0 sentinel.

    One primitive root g is lifted by the closed form; the rest follow from
    w(g^k) = w(g)^k, one multiplication each.
    """
    check_table_size(p)
    g, mod = primitive_root(p), p ** digits
    wg = teichmuller(g, p, digits).residue
    table = [0] * p
    x, t = 1, 1
    for _ in range(p - 1):
        table[x] = t
        x, t = x * g % p, t * wg % mod
    return tuple(table)


class CharSum:
    """const + sum_e C_e * wbar^e(y) mod p^digits, for residues const and C_e.

    C has one entry per character index e < t = len(C), a divisor of p-1: a
    kernel whose index is taken mod t is defined at y = 0, where every
    character vanishes, and at the y with y^t = 1, where wbar^t(y) = 1, and
    raises ValueError at any other y.  residue (one y, by Horner) and
    residues (the whole domain, by one transform) are its one evaluation, on
    plain integers; a caller whose terms carry valuations folds them into
    residues first and wraps a result with valued.

    residue memoizes its value per y mod p (the constant at y = 0 from the
    start), so a family of counts that meets each of the t values of y many
    times runs each Horner pass once; the memo holds at most t + 1 entries,
    and residues neither reads nor fills it.
    """

    def __init__(self, p: int, digits: int, const: int, coeffs):
        self.p, self.digits, self.mod = p, digits, p ** digits
        self.const, self.coeffs = const, list(coeffs)
        self.period = len(self.coeffs)
        if self.period < 1 or (p - 1) % self.period:
            raise ValueError(f"period {self.period} does not divide p-1 = {p - 1}")
        self._memo = {0: self.const}

    def residue(self, y: int) -> int:
        """The value at y mod p^digits, by one Horner pass the first time
        y mod p is asked; a y outside the domain raises every time."""
        value = self._memo.get(y % self.p)
        if value is not None:
            return value
        p, mod = self.p, self.mod
        if pow(y, self.period, p) != 1:
            raise ValueError(f"y = {y} is outside the domain of a period-{self.period} "
                             f"character sum mod {p}: y^{self.period} != 1")
        z = teichmuller_table(p, self.digits)[pow(y, -1, p)]  # wbar(y)
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * z + c) % mod
        value = self._memo[y % p] = (acc + self.const) % mod
        return value

    def residues(self) -> dict[int, int]:
        """{y: residue(y)} over the whole domain, y = 0 (the constant) and
        every y with y^t = 1, from one transform of the coefficients.

        With rho = w(g) for the primitive root g and s = (p-1)/t, wbar(g^-sk) =
        rho^sk, so the character sums at every y = g^-sk are the length-t DFT
        sum_e C_e (rho^s)^(ek), which padic.chirp_dft computes at once.
        """
        p, t, mod = self.p, self.period, self.mod
        teich, g = teichmuller_table(p, self.digits), primitive_root(p)
        gs = pow(g, (p - 1) // t, p)
        powers, x = [], 1
        for _ in range(t):
            powers.append(teich[x])  # (rho^s)^e = w(g^se)
            x = x * gs % p
        out, gs_inv, y = {0: self.const}, pow(gs, -1, p), 1
        for acc in chirp_dft(self.coeffs, powers, mod):
            out[y] = (acc + self.const) % mod
            y = y * gs_inv % p
        return out


def valued(p: int, v: int, r: int, digits: int) -> ValuedPadic:
    """p^v * r for a residue r known mod p^digits, as a ValuedPadic of absolute
    precision v + digits (a zero carries that precision)."""
    r %= p ** digits
    if r == 0:
        return ValuedPadic.zero(p, v + digits)
    w = v
    while r % p == 0:
        r, w = r // p, w + 1
    return ValuedPadic(p, w, PadicUnit(r, p, v + digits - w))


def char_value(j: int, x: int, p: int, digits: int) -> ValuedPadic:
    """omega-bar^j(x) with the chi(0) := 0 convention (including j == 0)."""
    x %= p
    if x == 0:
        return ValuedPadic.zero(p)
    t = teichmuller_table(p, digits)[x]
    e = (-j) % (p - 1)
    return ValuedPadic(p, 0, PadicUnit(pow(t, e, p ** digits), p, digits))


def reconstruct_integer(x: ValuedPadic, bound: int) -> int:
    """The unique integer in [0, bound] congruent to x mod p^absolute_precision
    (math.inf for an exact zero: its residue 0 is exact)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if x.valuation < 0:  # 0 for a zero
        raise NotAnIntegerError("value has negative valuation")
    prec = x.absolute_precision
    if prec != math.inf and x.p ** prec <= bound:
        raise PrecisionError(f"{x.p}^{prec} does not exceed the bound {bound}: the value "
                             f"is known to absolute precision {prec} only")
    r = x.residue_mod(prec)
    if r > bound:
        raise RangeError(f"no representative of the value lies in [0, {bound}]")
    return r
