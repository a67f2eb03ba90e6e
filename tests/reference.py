"""Object-level references the tests pin the count path against.

Gauss sums in Gross-Koblitz form: characters are powers of wbar (the inverse
Teichmuller character), and g(wbar^r) = pi^r * u_r for 0 <= r < p-1, with
pi^(p-1) = -p and the unit u_r = -Gamma_p(r/(p-1)), an entry of the one gamma
table negated.  pi itself is never materialized: every product in scope
balances its pi-exponents to a multiple of p-1, and one that does not fails
loudly (PiBalanceError).  jacobi_sum is the direct character sum that
gk_product is checked against.

derive_params spells out a class's mGm parameter lists A_w, B_w from its
definition; the count kernels never build them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from dworkcount.padic import PadicError, PadicUnit, ValuedPadic, teichmuller_table
from dworkcount.pgamma import frac_gamma_table


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


def gauss_gk(j: int, p: int, digits: int) -> GaussSumGK:
    """Gross-Koblitz pair for g(wbar^j); (p-1)-periodic in j."""
    r, mod = j % (p - 1), p ** digits
    return GaussSumGK(r, PadicUnit(mod - frac_gamma_table(p, digits)[r], p, digits))


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


class ParamData(namedtuple("ParamData", "w d n_k S_w S_wc A_w B_w s prefactor_exponent")):
    """Derived combinatorics of a zero-containing class representative."""

    __slots__ = ()


def derive_params(w: tuple[int, ...], n: int, d: int) -> ParamData:
    """A_w, B_w, s and friends for a zero-containing w (any such member works;
    the class summand is representative-independent and tests assert it)."""
    if 0 not in w:
        raise ValueError("the main count needs a representative with a zero entry")
    if len(w) != n or any(not 0 <= wi < d for wi in w) or sum(w) % d:
        raise ValueError("w is not a member of W(n, d)")
    n_k = tuple(sum(1 for wi in w if wi == k) for k in range(d))
    S_w = frozenset(k for k in range(d) if n_k[k] == 0)
    S_wc = frozenset(range(d)) - S_w
    A_w = sorted(Fraction(d - k, d) for k in S_w)
    A_w += sorted(Fraction(h, n) for h in range(n) if h % (n // d))
    B_w = []
    for k in sorted(S_wc):
        B_w.extend([Fraction(d - k, d)] * (n_k[k] - 1))
    s = n - len(S_wc)
    assert len(A_w) == len(B_w) == s
    return ParamData(w, d, n_k, S_w, S_wc, tuple(sorted(A_w)), tuple(sorted(B_w)),
                     s, sum(w) // d)
