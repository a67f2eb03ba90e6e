"""Gauss sums in Gross-Koblitz form and their collapse to p-adic values.

Characters are powers of wbar (the inverse Teichmuller character); a Gauss sum
is g(wbar^r) = pi^r * u_r for 0 <= r < p-1, with pi^(p-1) = -p and the unit
u_r = -Gamma_p(r/(p-1)).  pi itself is never materialized: every formula in
scope combines Gauss sums so that pi-exponents cancel to multiples of p-1, and
a product that does not fails loudly (PiBalanceError).

gk_units is the plain-integer list of the u_r that the count formulas read
directly, summing pi-exponents inline; gauss_gk/gk_product wrap the same units
as objects and are the object-level reference the tests pin them against.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .padic import PadicError, PadicUnit, ValuedPadic, teichmuller_table
from .pgamma import frac_gamma_table


class PiBalanceError(PadicError):
    """A Gauss-sum product left a pi-exponent not divisible by p-1.

    This signals a bug in a formula's balancing, never a user error.
    """


class GaussSumGK(namedtuple("GaussSumGK", "pi_exp unit")):
    """g(wbar^j) = pi^pi_exp * unit, where unit = -Gamma_p(<j/(p-1)>)."""

    __slots__ = ()

    @property
    def p(self) -> int:
        return self.unit.p


@lru_cache(maxsize=None)
def gk_units(p: int, digits: int) -> tuple[int, ...]:
    """Residues of the Gross-Koblitz units -Gamma_p(r/(p-1)) mod p^digits, r = 0..p-2."""
    mod = p ** digits
    return tuple((mod - g) % mod for g in frac_gamma_table(p, digits))


def gauss_gk(j: int, p: int, digits: int) -> GaussSumGK:
    """Gross-Koblitz pair for g(wbar^j); (p-1)-periodic in j."""
    r = j % (p - 1)
    return GaussSumGK(r, PadicUnit(gk_units(p, digits)[r], p, digits))


def pi_valuation(pi_exp: int, p: int) -> int:
    """The k with pi^pi_exp = (-p)^k; PiBalanceError unless p-1 divides pi_exp."""
    if pi_exp % (p - 1):
        raise PiBalanceError(f"pi-exponent {pi_exp} not divisible by {p - 1}")
    return pi_exp // (p - 1)


def gk_product(factors, p: int, digits: int) -> ValuedPadic:
    """Collapse a product of Gauss sums (with exponents +-1) to a ValuedPadic.

    factors: iterable of (GaussSumGK, exponent).  The total pi-exponent must be
    a multiple of p-1; the (-p)^k it encodes becomes the valuation and sign.
    """
    mod = p ** digits
    total_pi = 0
    unit = 1
    for g, e in factors:
        total_pi += g.pi_exp * e
        unit = unit * (g.unit.residue if e == 1 else pow(g.unit.residue, -1, mod)) % mod
    val = pi_valuation(total_pi, p)
    if val % 2:
        unit = (mod - unit) % mod  # (-p)^val contributes the sign
    return ValuedPadic(p, val, PadicUnit(unit, p, digits))


def jacobi_sum(a: int, b: int, p: int, digits: int) -> int:
    """J(wbar^a, wbar^b) = sum over x of wbar^a(x) wbar^b(1-x), mod p^digits.

    Direct character-sum evaluation through the Teichmuller table; serves as
    the independent oracle for gk_product.
    """
    mod = p ** digits
    teich = teichmuller_table(p, digits)
    ea, eb = (-a) % (p - 1), (-b) % (p - 1)
    acc = 0
    for x in range(2, p):  # x=0 kills chi(x), x=1 kills psi(1-x)
        acc += pow(teich[x], ea, mod) * pow(teich[(1 - x) % p], eb, mod)
    return acc % mod
