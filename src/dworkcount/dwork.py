"""Dwork-hypersurface combinatorics (the residue-vector set W, its diagonal-shift
classes, the derived parameter lists) and the four point-count formulas:
the main p-adic hypergeometric count, its d = 1 and p == 1 (mod n) specializations,
and the Gauss-sum count (which also covers lambda = 0).

The main count evaluates each class's mGm through a reduced kernel in which the
h/n-argument gamma family is rewritten, via the gamma multiplication lemma, as
denominator-(p-1) data:

    prod_{h not== 0 (n/d)} Gamma(<h/n - j/(p-1)>) / Gamma(h/n)
        = Gamma(<-nj/(p-1)>) w(n^{-nj}) prod_{0<k<d} Gamma(k/d)
          / prod_{0<=k<d} Gamma(<k/d - j/(p-1)>),

so every gamma lookup hits the seeded table and a count costs O(p) per class
instead of a p^digits lift sweep.  The (-p)-exponents are still the exact
floors of the literal definition, and tests pin the kernel against the literal
evaluator on instances small enough to sweep.

All four formulas share one evaluation kernel, CharSum: a lambda-free constant
plus sum_e C_e wbar^e(y), with y = lambda^n (main, and relprime as its d = 1
case), y = n*lambda (Gauss-sum count) or y = lambda^{-n} (finite-field form).
Each method only builds its coefficients, once per (p, n, K_target).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .gauss import gauss_gk, gk_product
from .hyperfun import FParams, f_coefficients
from .padic import (PadicUnit, ValuedPadic, is_odd_prime, reconstruct_integer,
                    teichmuller_table)
from .pgamma import frac_gamma_table


class InstanceError(ValueError):
    """The (p, n, lambda) triple violates a precondition of the chosen method."""


@dataclass(frozen=True)
class DworkInstance:
    """A Dwork hypersurface instance: x_1^n + ... + x_n^n - n*lam*x_1...x_n over F_p."""

    p: int
    n: int
    lam: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise InstanceError(f"p={self.p} is not an odd prime")
        if self.n < 2:
            raise InstanceError("n must be at least 2")
        if self.n % self.p == 0:
            raise InstanceError(f"p={self.p} divides n={self.n}: "
                                "the problem reduces to the lambda=0 diagonal case")
        object.__setattr__(self, "lam", self.lam % self.p)

    @property
    def d(self) -> int:
        return gcd(self.p - 1, self.n)

    @property
    def t(self) -> int:
        return (self.p - 1) // self.d

    @property
    def projective_total(self) -> int:
        return (self.p ** self.n - 1) // (self.p - 1)


@dataclass(frozen=True)
class ClassRep:
    """A diagonal-shift equivalence class, named by its canonical representative."""

    wstar: tuple[int, ...]
    orbit_size: int


def enumerate_W(n: int, d: int) -> list[tuple[int, ...]]:
    """All d^(n-1) vectors with entries in [0, d) summing to 0 mod d, lex order."""
    out = []
    for head in product(range(d), repeat=n - 1):
        out.append(head + ((-sum(head)) % d,))
    return out


def orbit(w: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The d diagonal shifts of w (all distinct: the shift stabilizer is trivial)."""
    return [tuple((wi + c) % d for wi in w) for c in range(d)]


def canonical_classes(n: int, d: int) -> list[ClassRep]:
    """One representative per class: the lex-smallest zero-containing member."""
    seen = set()
    reps = []
    for w in enumerate_W(n, d):
        if w in seen:
            continue
        orb = orbit(w, d)
        seen.update(orb)
        rep = min(v for v in orb if 0 in v)
        reps.append(ClassRep(rep, d))
    return sorted(reps, key=lambda c: c.wstar)


@dataclass(frozen=True)
class ParamData:
    """Derived combinatorics of a zero-containing class representative."""

    w: tuple[int, ...]
    d: int
    n_k: tuple[int, ...]
    S_w: frozenset[int]
    S_wc: frozenset[int]
    A_w: tuple[Fraction, ...]
    B_w: tuple[Fraction, ...]
    s: int
    prefactor_exponent: int

    def gamma_prefactor(self, p: int, digits: int) -> PadicUnit:
        """prod_i Gamma_p(w_i / d) mod p^digits."""
        table = frac_gamma_table(p, digits)
        t = (p - 1) // self.d
        res = 1
        mod = p ** digits
        for wi in self.w:
            res = res * table[wi * t] % mod
        return PadicUnit(res, p, digits)


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


# -- precision policy --------------------------------------------------------

def k_target(p: int, n: int) -> int:
    """Smallest K with p^K > 2*(p^n - 1)/(p - 1): enough to pin the point count."""
    bound = 2 * ((p ** n - 1) // (p - 1))
    k, pk = 1, p
    while pk <= bound:
        pk *= p
        k += 1
    return k


def k_working(p: int, n: int, kt: int | None = None) -> int:
    """Digits carried internally: target + widest parameter count (n-1) + 2 guards."""
    return (kt if kt is not None else k_target(p, n)) + (n - 1) + 2


# -- the reduced mGm kernel ---------------------------------------------------

def class_g_coefficients(pd: ParamData, p: int, n: int,
                         digits: int) -> list[tuple[int, int]]:
    """Per-j coefficients c_j with  G[A_w; B_w | x] = -1/(p-1) * sum_j c_j wbar^j(x).

    Each c_j = (-1)^{js} (-p)^{E_j} * (gamma quotients), with the h/n family
    reduced to denominator-(p-1) lookups; E_j comes from the exact floors of
    the literal definition.  Returned as (E_j, unit residue mod p^digits) pairs.
    """
    d, t = pd.d, (p - 1) // pd.d
    mod = p ** digits
    table = frac_gamma_table(p, digits)
    teich = teichmuller_table(p, digits)
    S = sorted(pd.S_w)
    Sc = sorted(pd.S_wc)
    cd_prod = 1
    for k in range(1, d):
        cd_prod = cd_prod * table[k * t] % mod
    denom = 1
    for k in S:
        denom = denom * table[(d - k) * t] % mod
    for k in Sc:
        denom = denom * pow(table[k * t], pd.n_k[k] - 1, mod) % mod
    inv_denom = pow(denom, -1, mod)
    teich_n = teich[n % p]
    # exact floor bookkeeping: a < j/(p-1) and <-b> >= 1 - j/(p-1), cross-multiplied
    a_list = [(q.numerator, q.denominator) for q in pd.A_w]
    b_thresholds = []  # <-b> = k/d for the k in S_wc repeated n_k - 1 times (k=0 never fires)
    for k in Sc:
        if k > 0:
            b_thresholds.extend([k * t] * (pd.n_k[k] - 1))
    coeffs = []
    for j in range(p - 1):
        unit = inv_denom * cd_prod % mod
        for k in S:
            unit = unit * table[((d - k) * t - j) % (p - 1)] % mod
        for k in Sc:
            e = pd.n_k[k] - 1
            if e:
                unit = unit * pow(table[(k * t + j) % (p - 1)], e, mod) % mod
        r = (-n * j) % (p - 1)
        unit = unit * table[r] % mod * pow(teich_n, r, mod) % mod
        hden = 1
        for k in range(d):
            hden = hden * table[(k * t - j) % (p - 1)] % mod
        unit = unit * pow(hden, -1, mod) % mod
        exponent = sum(1 for (u, v) in a_list if u * (p - 1) < j * v) \
            - sum(1 for thr in b_thresholds if j >= p - 1 - thr)
        if (j * pd.s + exponent) % 2:
            unit = (mod - unit) % mod
        coeffs.append((exponent, unit))
    return coeffs


# -- the shared character-sum kernel -------------------------------------------

def _fold(terms, size: int, p: int, mod: int):
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


class CharSum:
    """const + sum_e C_e * wbar^e(y) for lambda-free terms p^v * u, u known mod p^digits.

    The constant and C are folded into plain integers, each at its smallest term
    valuation, so a value costs one Horner pass.  Like a term-by-term
    ValuedPadic sum, the result is known to absolute precision digits plus the
    smallest valuation among the terms it sums; at y = 0 every character
    vanishes and only the constant's terms count.
    """

    def __init__(self, p: int, digits: int, const_terms, char_terms):
        self.p, self.digits = p, digits
        self.mod = p ** digits
        self.const_offset, (self.const,) = _fold(((0, v, u) for v, u in const_terms),
                                                 1, p, self.mod)
        self.offset, self.coeffs = _fold(char_terms, p - 1, p, self.mod)

    def value(self, y: int) -> ValuedPadic:
        p, mod = self.p, self.mod
        parts = [] if self.const_offset is None else [(self.const_offset, self.const)]
        if y % p and self.offset is not None:
            z = teichmuller_table(p, self.digits)[pow(y, -1, p)]  # wbar(y)
            acc = 0
            for c in reversed(self.coeffs):
                acc = (acc * z + c) % mod
            parts.append((self.offset, acc))
        if not parts:
            return ValuedPadic.zero(p)
        v0 = min(v for v, _ in parts)
        x = sum(c * p ** (v - v0) for v, c in parts) % mod
        if x == 0:
            return ValuedPadic.zero(p, v0 + self.digits)
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return ValuedPadic(p, v0 + v, PadicUnit(x, p, self.digits - v))


def _main_terms(p: int, n: int, digits: int):
    """(j, valuation, unit) of (-1)^n * prefactor * G-coefficient, per class."""
    d, mod = gcd(p - 1, n), p ** digits
    scale = (-1) ** (n + 1) * pow(p - 1, -1, mod)  # (-1)^n times G's -1/(p-1)
    for rep in canonical_classes(n, d):
        pd = derive_params(rep.wstar, n, d)
        e = pd.prefactor_exponent  # (-p)^e carries a sign
        pref = (-1) ** e * pd.gamma_prefactor(p, digits).residue * scale
        for j, (v, u) in enumerate(class_g_coefficients(pd, p, n, digits)):
            yield j, e + v, pref * u % mod


def _koblitz_consts(p: int, n: int, digits: int):
    """(valuation, unit) of g(w)/p for each all-nonzero w; the all-zero w is the
    base term, and N_p(0, w) = 0 when some but not all entries vanish."""
    d = gcd(p - 1, n)
    t = (p - 1) // d
    for w in enumerate_W(n, d):
        if 0 in w:
            continue
        prod = gk_product([(gauss_gk(wi * t, p, digits), 1) for wi in w], p, digits)
        if prod.valuation < 1:
            raise AssertionError("all-nonzero Gauss product must have valuation >= 1")
        yield prod.valuation - 1, prod.unit.residue


def _koblitz_terms(p: int, n: int, digits: int):
    """(nj mod p-1, valuation, unit) of each collapsed Gauss-sum ratio / (p-1)."""
    d, mod = gcd(p - 1, n), p ** digits
    t, inv = (p - 1) // d, pow(p - 1, -1, mod)
    for w in enumerate_W(n, d):
        for j in range(t):
            factors = [(gauss_gk(wi * t + j, p, digits), 1) for wi in w]
            factors.append((gauss_gk(n * j, p, digits), -1))
            c = gk_product(factors, p, digits)
            yield (n * j) % (p - 1), c.valuation, c.unit.residue * inv % mod


def _ff_terms(p: int, n: int, digits: int, alpha: int):
    """(k, valuation, unit) of prefactor * mFm-coefficient per class (p == 1 mod n),
    with the character generator T = wbar^alpha, gcd(alpha, p-1) = 1."""
    if (p - 1) % n:
        raise InstanceError(f"p={p} is not 1 mod n={n}")
    if gcd(alpha, p - 1) != 1:
        raise InstanceError("generator exponent must be coprime to p-1")
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
        for k, (v, u) in enumerate(f_coefficients(FParams(a_exps, tuple(b_exps)),
                                                  p, digits)):
            yield k, pref.valuation + v, unit * u % mod


@lru_cache(maxsize=None)
def _kernel(method: str, p: int, n: int, kt: int, alpha: int) -> CharSum:
    """The lambda-free kernel of main, koblitz or ff for fixed (p, n, K_target)."""
    digits = k_working(p, n, kt)
    consts = [(0, (p ** (n - 1) - 1) // (p - 1))]  # the base count, a p-adic unit
    if method == "main":
        chars = _main_terms(p, n, digits)
    elif method == "koblitz":
        consts += _koblitz_consts(p, n, digits)
        chars = _koblitz_terms(p, n, digits)
    else:
        chars = _ff_terms(p, n, digits, alpha)
    return CharSum(p, digits, consts, chars)


# the character argument y(lambda) of each method's kernel
_ARGUMENT = {
    "main": lambda p, n, lam: pow(lam, n, p),
    "relprime": lambda p, n, lam: pow(lam, n, p),
    "koblitz": lambda p, n, lam: n * lam % p,
    "ff": lambda p, n, lam: pow(lam, -n, p),
}


def _value(name: str, inst: DworkInstance, kt: int | None, alpha: int = 1) -> ValuedPadic:
    p, n = inst.p, inst.n
    if name not in _ARGUMENT:
        raise ValueError(f"unknown method {name!r}")
    if name == "relprime":  # the main kernel at d = 1: one (n-1)G(n-1) class
        if inst.d != 1:
            raise InstanceError(f"gcd(p-1, n) = {inst.d} != 1: "
                                "the d = 1 formula does not apply")
        pd = derive_params((0,) * n, n, 1)
        assert pd.A_w == tuple(Fraction(h, n) for h in range(1, n))
        assert pd.B_w == (Fraction(1),) * (n - 1)
    if inst.lam == 0 and name != "koblitz":
        raise InstanceError("lambda = 0: use the Gauss-sum count")
    kernel = _kernel("main" if name == "relprime" else name, p, n,
                     kt if kt is not None else k_target(p, n), alpha)
    return kernel.value(_ARGUMENT[name](p, n, inst.lam))


def _count(name: str, p: int, n: int, lam: int, kt: int | None, alpha: int = 1) -> int:
    inst = DworkInstance(p, n, lam)
    return reconstruct_integer(_value(name, inst, kt, alpha), inst.projective_total)


def count_main(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the main hypergeometric formula; lambda != 0, p not dividing n."""
    return _count("main", p, n, lam, kt)


def main_value(p: int, n: int, lam: int, kt: int | None = None) -> ValuedPadic:
    """The pre-reconstruction p-adic value of the main count."""
    return _value("main", DworkInstance(p, n, lam), kt)


def count_relprime(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the d = 1 specialization: one (n-1)G(n-1) evaluation."""
    return _count("relprime", p, n, lam, kt)


def count_ff(p: int, n: int, lam: int, kt: int | None = None,
             generator_exponent: int = 1) -> int:
    """N_p(lambda) by the finite-field-hypergeometric form (p == 1 mod n)."""
    return _count("ff", p, n, lam, kt, generator_exponent)


def count_koblitz(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the Gauss-sum count; lambda = 0 allowed."""
    return _count("koblitz", p, n, lam, kt)


def method_value(name: str, p: int, n: int, lam: int,
                 kt: int | None = None) -> ValuedPadic:
    """Pre-reconstruction p-adic value of a named formula method."""
    return _value(name, DworkInstance(p, n, lam), kt)
