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

literal_g_coefficients is the mGm coefficient build on Fraction arguments,
the reference for hyperfun.g_coefficients' integer numerators.

reference_ff_kernel builds the finite-field count's kernel class by class from
these Gauss sums, with any character generator wbar^alpha: the count's own
build fixes alpha = 1, and every alpha gives the same kernel.

A reference yields valued terms (index, valuation, unit); fold sums them at
their smallest valuation, and reference_kernel is the Folded state a count
kernel (padic.CharSum, plain residues) is compared with at offsets 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import floor

from dworkcount.dwork import canonical_classes
from dworkcount.hyperfun import FParams, GParams
from dworkcount.padic import (PadicError, PadicUnit, ValuedPadic, check_table_size,
                              teichmuller_table)
from dworkcount.pgamma import frac_gamma_table, gamma_residues


def fold(terms, size: int, p: int, mod: int):
    """Sum (index, valuation, unit) terms into `size` integers mod p^digits at the
    smallest valuation seen; returns (that valuation or None, the integers)."""
    v0, ints = None, [0] * size
    for i, v, u in terms:
        if v0 is None:
            v0 = v
        elif v < v0:
            shift = p ** (v0 - v)
            ints = [c * shift % mod for c in ints]
            v0 = v
        ints[i] = (ints[i] + u * p ** (v - v0)) % mod
    return v0, ints


class Folded(namedtuple("Folded", "const_offset const offset coeffs")):
    """Valued constant and character terms, each folded at its own smallest
    valuation: a count kernel's const and coeffs where both offsets are 0."""

    __slots__ = ()


def reference_kernel(p: int, digits: int, const_terms, char_terms, period: int) -> Folded:
    """Fold (valuation, unit) constant terms and (index, valuation, unit)
    character terms of one period mod p^digits."""
    mod = p ** digits
    const_offset, (const,) = fold(((0, v, u) for v, u in const_terms), 1, p, mod)
    offset, coeffs = fold(char_terms, period, p, mod)
    return Folded(const_offset, const, offset, coeffs)


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


def reference_f_coefficients(params, p, digits):
    """(valuation, unit) of each mFm coefficient k < p-1, a Gauss-sum product."""
    mod = p ** digits
    m = params.m
    denominators = ([(gauss_gk(a, p, digits), -1) for a in params.a_exps]
                    + [(gauss_gk(-b, p, digits), -1) for b in params.b_exps])
    coeffs = []
    for k in range(p - 1):
        factors = [(gauss_gk(a + k, p, digits), 1) for a in params.a_exps]
        factors += [(gauss_gk(-b - k, p, digits), 1) for b in params.b_exps]
        factors += denominators
        v = gk_product(factors, p, digits)
        unit = v.unit.residue
        if k * m % 2:
            unit = (mod - unit) % mod
        coeffs.append((v.valuation, unit))
    return coeffs


def reference_ff_terms(p, n, digits, alpha):
    """Folded by k mod t: the kernel is evaluated at lambda^-n, an n-th power."""
    t, mod = (p - 1) // n, p ** digits
    scale = -pow(p - 1, -1, mod)
    for rep in canonical_classes(n, n):
        pd = derive_params(rep.wstar, n, n)
        pref = gk_product([(gauss_gk(alpha * wi * t, p, digits), 1)
                           for wi in rep.wstar], p, digits)
        a_exps = tuple((alpha * (n - k) * t) % (p - 1) for k in sorted(pd.S_w))
        b_exps = []
        for k in sorted(pd.S_wc):
            b_exps.extend([(alpha * (n - k) * t) % (p - 1)] * (pd.n_k[k] - 1))
        unit = pref.unit.residue * scale
        for k, (v, u) in enumerate(reference_f_coefficients(FParams(a_exps, tuple(b_exps)),
                                                            p, digits)):
            yield k % t, pref.valuation + v, unit * u % mod


def reference_ff_kernel(p, n, digits, alpha):
    """The ff kernel (p == 1 mod n) with the generator wbar^alpha, gcd(alpha, p-1) = 1."""
    return reference_kernel(p, digits, [(0, (p ** (n - 1) - 1) // (p - 1))],
                            reference_ff_terms(p, n, digits, alpha), (p - 1) // n)


def literal_g_coefficients(params: GParams, p: int, digits: int) -> list[tuple[int, int]]:
    """hyperfun.g_coefficients with every argument a Fraction: p-1 thetas,
    (q -+ theta) % 1 for each parameter, and floor() of the exact rationals.
    """
    params.validate_for(p)
    check_table_size(p)  # before the p-1 arguments below
    mod = p ** digits
    m = params.m
    av = [q % 1 for q in params.a]   # <a_i>
    bv = [(-q) % 1 for q in params.b]  # <-b_i>
    thetas = [Fraction(j, p - 1) for j in range(p - 1)]
    args = set(av) | set(bv)
    for theta in thetas:
        args.update((q - theta) % 1 for q in av)
        args.update((q + theta) % 1 for q in bv)
    gamma = gamma_residues(args, p, digits)
    denom = 1
    for q in av + bv:
        denom = denom * gamma[q] % mod
    inv_denom = pow(denom, -1, mod)
    coeffs = []
    for j, theta in enumerate(thetas):
        unit, exponent = inv_denom, 0
        for q in av:
            unit = unit * gamma[(q - theta) % 1] % mod
            exponent -= floor(q - theta)
        for q in bv:
            unit = unit * gamma[(q + theta) % 1] % mod
            exponent -= floor(q + theta)
        if (j * m + exponent) % 2:  # (-1)^{jm} and the sign of (-p)^exponent
            unit = (mod - unit) % mod
        coeffs.append((exponent, unit))
    return coeffs
