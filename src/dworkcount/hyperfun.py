"""Evaluators for the p-adic hypergeometric sum mGm and its finite-field
counterpart mFm, plus the parameter containers the CLI parses into.

mGm is evaluated literally from its definition: a sum over j = 0..p-2 of
gamma-quotient products with (-p)-power corrections whose exponents are exact
rational floors.  mFm is a character sum of Gauss-sum ratios whose
x-free coefficients are built once, in plain integers, from the Gross-Koblitz
units (f_coefficients).  The two are linked by an exact bridge: with
A_i = wbar^(a_i (p-1)) and B_i = wbar^(b_i (p-1)),
mFm(A; B | t) = mGm[a; b | 1/t].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .gauss import gk_units, pi_valuation
from .padic import PadicUnit, ValuedPadic, teichmuller_table
from .pgamma import SWEEP_LIMIT, GammaEvaluator


@dataclass(frozen=True)
class GParams:
    """Upper and lower parameter lists of an mGm, as reduced fractions."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("parameter lists must have equal length")

    @property
    def m(self) -> int:
        return len(self.a)

    @staticmethod
    def parse(a_text: str, b_text: str) -> "GParams":
        def lst(s):
            return tuple(Fraction(t.strip()) for t in s.split(",")) if s.strip() else ()
        return GParams(lst(a_text), lst(b_text))

    def validate_for(self, p: int) -> None:
        for q in self.a + self.b:
            if q.denominator % p == 0:
                raise ValueError(f"parameter {q} has denominator divisible by p={p}")


@dataclass(frozen=True)
class FParams:
    """Character-exponent lists of an mFm: the lists A_i = wbar^a, B_i = wbar^b."""

    a_exps: tuple[int, ...]
    b_exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.a_exps) != len(self.b_exps):
            raise ValueError("character lists must have equal length")

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


def eval_g_terms(params: GParams, x: int, p: int, digits: int,
                 sweep_limit: int | None = SWEEP_LIMIT) -> list[ValuedPadic]:
    """The p-1 summands of the mGm sum (before the -1/(p-1) factor).

    Exposed so tests can assert the reduction is schedule-independent.
    """
    params.validate_for(p)
    x %= p
    if x == 0:
        raise ValueError("x = 0 annihilates every term; eval_G returns exact zero")
    mod = p ** digits
    m = params.m
    av = [q % 1 for q in params.a]   # <a_i>
    bv = [(-q) % 1 for q in params.b]  # <-b_i>
    gammas = GammaEvaluator(p, digits, sweep_limit)
    args = set(av) | set(bv)
    for j in range(p - 1):
        theta = Fraction(j, p - 1)
        args.update((q - theta) % 1 for q in av)
        args.update((q + theta) % 1 for q in bv)
    gammas.prefetch(args)
    denom = 1
    for q in av + bv:
        denom = denom * gammas.get(q) % mod
    inv_denom = pow(denom, -1, mod)
    teich_x = teichmuller_table(p, digits)[x]
    chi = 1  # wbar^j(x), updated multiplicatively
    chi_step = pow(teich_x, p - 2, mod)  # teich(x)^-1
    terms = []
    for j in range(p - 1):
        theta = Fraction(j, p - 1)
        unit = chi * inv_denom % mod
        exponent = 0
        for q in av:
            unit = unit * gammas.get((q - theta) % 1) % mod
            exponent -= floor(q - theta)
        for q in bv:
            unit = unit * gammas.get((q + theta) % 1) % mod
            exponent -= floor(q + theta)
        if (j * m + exponent) % 2:  # (-1)^{jm} and the sign of (-p)^exponent
            unit = (mod - unit) % mod
        terms.append(ValuedPadic(p, exponent, PadicUnit(unit, p, digits)))
        chi = chi * chi_step % mod
    return terms


def eval_G(params: GParams, x: int, p: int, digits: int,
           sweep_limit: int | None = SWEEP_LIMIT) -> ValuedPadic:
    """The mGm value at x in F_p; exact zero at x = 0 (chi(0) := 0 kills every term)."""
    if x % p == 0:
        params.validate_for(p)
        return ValuedPadic.zero(p)
    total = ValuedPadic.zero(p)
    for term in eval_g_terms(params, x, p, digits, sweep_limit):
        total = total + term
    return total * ValuedPadic.from_fraction(Fraction(-1, p - 1), p, digits)


def f_coefficients(params: FParams, p: int, digits: int) -> list[tuple[int, int]]:
    """The x-free part of each mFm summand, as (valuation, unit residue) pairs:
    the k-th summand at x is this coefficient times wbar^k(x).

    Each is the Gauss-sum ratio prod g(A_i wbar^k) g(B_i^-1 wbar^-k) / g(A_i) g(B_i^-1)
    times chi(-1)^(km), read from the Gross-Koblitz units with the pi-exponents
    summed inline; the k-free denominator is inverted once.
    """
    q, mod = p - 1, p ** digits
    units = gk_units(p, digits)
    den_exps = [a % q for a in params.a_exps] + [-b % q for b in params.b_exps]
    den = 1
    for r in den_exps:
        den = den * units[r] % mod
    inv_den, den_pi, m = pow(den, -1, mod), sum(den_exps), params.m
    coeffs = []
    for k in range(q):
        total, unit = -den_pi, inv_den
        for a in params.a_exps:
            r = (a + k) % q
            total += r
            unit = unit * units[r] % mod
        for b in params.b_exps:
            r = (-b - k) % q
            total += r
            unit = unit * units[r] % mod
        val = pi_valuation(total, p)
        if (val + k * m) % 2:  # the sign of (-p)^val and chi(-1)^m = (-1)^{km}
            unit = (mod - unit) % mod
        coeffs.append((val, unit))
    return coeffs


def eval_f_terms(params: FParams, x: int, p: int, digits: int) -> list[ValuedPadic]:
    """The p-1 character summands of the mFm sum (before the -1/(p-1) factor)."""
    x %= p
    if x == 0:
        raise ValueError("x = 0 annihilates every term; eval_F returns exact zero")
    mod = p ** digits
    chi = 1
    chi_step = pow(teichmuller_table(p, digits)[x], p - 2, mod)
    terms = []
    for v, unit in f_coefficients(params, p, digits):
        terms.append(ValuedPadic(p, v, PadicUnit(unit * chi % mod, p, digits)))
        chi = chi * chi_step % mod
    return terms


def eval_F(params: FParams, x: int, p: int, digits: int) -> ValuedPadic:
    """The mFm value at x in F_p; exact zero at x = 0."""
    if x % p == 0:
        return ValuedPadic.zero(p)
    total = ValuedPadic.zero(p)
    for term in eval_f_terms(params, x, p, digits):
        total = total + term
    return total * ValuedPadic.from_fraction(Fraction(-1, p - 1), p, digits)
