"""Evaluators for the p-adic hypergeometric sum mGm and its finite-field
counterpart mFm, plus their parameter containers.

Both are character sums -1/(p-1) * sum_j c_j wbar^j(x) whose x-free
coefficients c_j = p^v_j u_j are built in plain integers, folded into
residues at their smallest valuation and summed by padic.CharSum, the one
summation path the count formulas use too.  mGm's coefficients come
literally from its definition (g_coefficients): gamma-quotient products with
(-p)-power corrections whose exponents are exact rational floors.  mFm's are
Gauss-sum ratios read from the gamma table (f_coefficients).  The two
are linked by an exact bridge: with A_i = wbar^(a_i (p-1)) and
B_i = wbar^(b_i (p-1)), mFm(A; B | t) = mGm[a; b | 1/t].
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .padic import CharSum, ValuedPadic, check_table_size, valued
from .pgamma import frac_gamma_table, gamma_residues


class GParams(namedtuple("GParams", "a b")):
    """Upper and lower parameter lists of an mGm, as reduced fractions."""

    __slots__ = ()

    def __new__(cls, a: tuple, b: tuple):
        if len(a) != len(b):
            raise ValueError("parameter lists must have equal length")
        return super().__new__(cls, a, b)

    @property
    def m(self) -> int:
        return len(self.a)

    def validate_for(self, p: int) -> None:
        for q in self.a + self.b:
            if q.denominator % p == 0:
                raise ValueError(f"parameter {q} has denominator divisible by p={p}")


class FParams(namedtuple("FParams", "a_exps b_exps")):
    """Character-exponent lists of an mFm: the lists A_i = wbar^a, B_i = wbar^b."""

    __slots__ = ()

    def __new__(cls, a_exps: tuple, b_exps: tuple):
        if len(a_exps) != len(b_exps):
            raise ValueError("character lists must have equal length")
        return super().__new__(cls, a_exps, b_exps)

    @property
    def m(self) -> int:
        return len(self.a_exps)

    @staticmethod
    def from_fractions(params: GParams, p: int) -> "FParams":
        """The bridge correspondence a -> wbar^(a(p-1)); denominators must divide p-1."""
        def exps(qs):
            out = []
            for q in qs:
                e = q * (p - 1)
                if e.denominator != 1:
                    raise ValueError(f"{q} does not define a character of F_{p}^* "
                                     "(denominator does not divide p-1)")
                out.append(int(e) % (p - 1))
            return tuple(out)
        return FParams(exps(params.a), exps(params.b))


def g_coefficients(params: GParams, p: int, digits: int) -> list[tuple[int, int]]:
    """The x-free part of each mGm summand (before the -1/(p-1) factor), as
    (exponent, unit residue) pairs: the j-th summand at x is this coefficient
    times wbar^j(x).

    The literal definition: gamma quotients with (-p)-exponents that are exact
    rational floors.  It is the reference the reduced main kernel is pinned to.
    Every argument is put over den = lcm(p-1, the parameter denominators), so
    <a_i>, <-b_i> and theta_j = j/(p-1) are integer numerators, and a floor is
    -1 or 1 exactly where its numerator leaves [0, den).  Arguments whose
    denominator does not divide p-1 need pgamma's lift sweep.
    """
    params.validate_for(p)
    check_table_size(p)  # before the p-1 arguments below
    mod, m = p ** digits, params.m
    den = lcm(p - 1, *(q.denominator for q in params.a + params.b))
    step = den // (p - 1)
    av = [q.numerator * (den // q.denominator) % den for q in params.a]    # <a_i> den
    bv = [-q.numerator * (den // q.denominator) % den for q in params.b]  # <-b_i> den
    # c -+ j * step mod den over all j covers the numerators == c (mod step)
    cosets = {c % step for c in av + bv}
    residues = gamma_residues((Fraction(r, den) for c in cosets for r in range(c, den, step)),
                              p, digits)
    gamma = {q.numerator * (den // q.denominator): v for q, v in residues.items()}
    denom = 1
    for r in av + bv:
        denom = denom * gamma[r] % mod
    inv_denom = pow(denom, -1, mod)
    coeffs = []
    for j, t in enumerate(range(0, den, step)):  # t = theta_j den
        unit, exponent = inv_denom, 0
        for a in av:
            if a < t:  # floor(<a_i> - theta_j) = -1
                exponent += 1
            unit = unit * gamma[(a - t) % den] % mod
        for b in bv:
            if b + t >= den:  # floor(<-b_i> + theta_j) = 1
                exponent -= 1
            unit = unit * gamma[(b + t) % den] % mod
        if (j * m + exponent) % 2:  # (-1)^{jm} and the sign of (-p)^exponent
            unit = (mod - unit) % mod
        coeffs.append((exponent, unit))
    return coeffs


def _character_sum(coeffs, x: int, p: int, digits: int) -> ValuedPadic:
    """-1/(p-1) * sum_j p^v_j u_j wbar^j(x) for coefficients (v_j, u_j): the
    terms fold into residues at v0 = min v_j, which one CharSum sums."""
    mod = p ** digits
    scale = mod - pow(p - 1, -1, mod)
    v0 = min(v for v, _ in coeffs)
    folded = [u * scale * p ** (v - v0) % mod for v, u in coeffs]
    return valued(p, v0, CharSum(p, digits, 0, folded).residue(x), digits)


def eval_G(params: GParams, x: int, p: int, digits: int) -> ValuedPadic:
    """The mGm value at x in F_p; exact zero at x = 0 (chi(0) := 0 kills every term)."""
    if x % p == 0:
        params.validate_for(p)
        return ValuedPadic.zero(p)
    return _character_sum(g_coefficients(params, p, digits), x, p, digits)


def f_coefficients(params: FParams, p: int, digits: int) -> list[tuple[int, int]]:
    """The x-free part of each mFm summand, as (valuation, unit residue) pairs:
    the k-th summand at x is this coefficient times wbar^k(x).

    Each is the Gauss-sum ratio prod g(A_i wbar^k) g(B_i^-1 wbar^-k) / g(A_i) g(B_i^-1)
    times chi(-1)^(km), with g(wbar^r) = pi^r u_r, u_r = -Gamma(r/(p-1))
    (Gross-Koblitz), and the pi-exponents summed inline; the k-free
    denominator is inverted once.  Each ratio has 2m units over 2m, so the
    gamma table entries serve as units without a sign.
    """
    check_table_size(p)
    q, mod = p - 1, p ** digits
    table = frac_gamma_table(p, digits)
    den_exps = [a % q for a in params.a_exps] + [-b % q for b in params.b_exps]
    den = 1
    for r in den_exps:
        den = den * table[r] % mod
    inv_den, den_pi, m = pow(den, -1, mod), sum(den_exps), params.m
    coeffs = []
    for k in range(q):
        total, unit = -den_pi, inv_den
        for a in params.a_exps:
            r = (a + k) % q
            total += r
            unit = unit * table[r] % mod
        for b in params.b_exps:
            r = (-b - k) % q
            total += r
            unit = unit * table[r] % mod
        val, rem = divmod(total, q)
        if rem:
            raise AssertionError(f"pi-exponent {total} not divisible by {q}")
        if (val + k * m) % 2:  # the sign of (-p)^val and chi(-1)^m = (-1)^{km}
            unit = (mod - unit) % mod
        coeffs.append((val, unit))
    return coeffs


def eval_F(params: FParams, x: int, p: int, digits: int) -> ValuedPadic:
    """The mFm value at x in F_p; exact zero at x = 0."""
    if x % p == 0:
        return ValuedPadic.zero(p)
    return _character_sum(f_coefficients(params, p, digits), x, p, digits)
