"""Dwork-hypersurface combinatorics (the residue-vector set W and its
diagonal-shift classes) and the four point-count formulas:
the main p-adic hypergeometric count, its d = 1 and p == 1 (mod n) specializations,
and the Gauss-sum count (which also covers lambda = 0).

The main count evaluates each class's mGm through a reduced kernel in which the
h/n-argument gamma family is rewritten, via the gamma multiplication lemma, as
denominator-(p-1) data:

    prod_{h not== 0 (n/d)} Gamma(<h/n - j/(p-1)>) / Gamma(h/n)
        = Gamma(<-nj/(p-1)>) w(n^{-nj}) prod_{0<k<d} Gamma(k/d)
          / prod_{0<=k<d} Gamma(<k/d - j/(p-1)>),

so every gamma lookup hits the seeded table instead of a p^digits lift sweep.
The (-p)-exponents are still the exact floors of the literal definition, and
tests pin the kernel against the literal evaluator on instances small enough
to sweep.

The denominator on the right cancels by Morita's reflection formula
Gamma(x) Gamma(1-x) = (-1)^R(x), R(x) in [1, p], R(x) == x (mod p).  A class's
G-coefficient c_j carries (-1)^(js) and the factors
Gamma(<(d-k)/d - j/(p-1)>), k in S_w: exactly the denominator's factors at
-S_w (mod d).  Each remaining one, at -k for k in S^c_w, inverts to
(-1)^(1 + kt + j) Gamma(<k/d + j/(p-1)>), or to 1 where that argument is 0
(at j = ((-k) mod d) t; r_j = 1 marks these j).  Alike, prod_i Gamma(w_i/d)
prod_{0<k<d} Gamma(k/d) over the class's constant denominator is
(-1)^(sum_{k in S^c_w, k>0} (1 + kt)).  These signs come to (-1)^(nj+1+r_j),
so with t = (p-1)/d and the sign of (-p)^(E_j)

    prod_i Gamma(w_i/d) c_j = -(-1)^(E_j + r_j) p^(E_j) L_(j mod t) P_j,

where L_j = (-1)^(nj) Gamma(<-nj/(p-1)>) w(n)^(-nj) is class-free with period
t (main_l_factors) and P_j = prod_{k in S^c_w} Gamma(<k/d + j/(p-1)>)^(n_k) is
a product of gamma table entries: the main build inverts nothing but p-1.

Every kernel is evaluated only at a d-th power, y = lambda^n (main),
(n*lambda)^n (Gauss-sum count, whose wbar^(nj)(n*lambda) is wbar^j(y)) or
lambda^-n (finite-field form, d = n).  There wbar^t(y) = 1 with t = (p-1)/d,
so wbar^j and wbar^(j+t) agree, the coefficients fold mod t, and a value is a
Horner pass (or, for every lambda, a transform) of length t, not p-1.

A class's folded summand depends on its representative only through the
counts n_k of each residue, and every zero-containing member of a class is a
representative.  A shift w -> w + c rotates the counts to n'_k = n_(k-c mod d)
and reindexes j by c*t, which the fold absorbs.  So the main count sums its
classes as the members w' of W with a fixed first entry b.  At j = bt + i,
P_j is a monomial of P_i(Y)^n, P_i(Y) = sum_k Gamma(<(kt + i)/(p-1)>) Y^k in
Z[Y]/(Y^d + p), with Y^d = -p carrying (-p)^(sum(w')/d); the floors
H_j = floor(nj/(p-1)) - floor(dj/(p-1)) obey H_(bt+i) = b(n/d - 1) + H_i, so
the b-sum is (-p)^(H_i) [Y^0] P_i^n at i > 0 and -A - (1 - p) B/p at i = 0,
A and B the Y^0 coefficients of P_0^n and (P_0 - 1)^n (_main_terms derives
both).

The finite-field build sums its classes as the members w of W with w_1 = 0
(a class term is not rotation-invariant when the rotation empties residue 0:
at (5, 2) the counts (2, 0) fold to [12, 13] but (0, 2) to [10, 15] mod 25).
Its C_i is a class-free Gauss-sum ratio times main's [Y^0] P_c^n at
c = (-i) mod t, and its i = 0 term reads B/p as main's does (_ff_terms).

All four formulas share one evaluation kernel, padic.CharSum: a lambda-free
constant plus sum_e C_e wbar^e(y) (relprime is main's d = 1 case).  Each
method only builds its coefficients, once per (p, n, K_target), from the
one gamma table; the Gauss-sum counts read its entries as the Gross-Koblitz
units u = -Gamma and fold the signs into a scale.  Each count's sum over W
at a column is the Y^0 coefficient of one n-th power of the table's d rows
in Z[Y]/(Y^d + p) (_gamma_rows), and B/p, B that of (P_0 - P_0(0))^n, gives
main's and ff's i = 0 term and koblitz's constant: _y0_read reads both.
The builders' own factors are what the identities between kernels check.

Validation happens once per (p, n), not once per lambda or per method.  The
lambda-free input checks and budgets (the DworkInstance preconditions with
their Miller-Rabin test, the table limit, and the K_target and its default) run
once per (p, n, K_target) in the cached _checked, which every method shares,
and the kernel is built once per (method, p, n, digits) in the cached
_kernel.  A count then checks the method name and takes lambda mod p, the
domain rule (_refusal), y(lambda), one Horner pass (CharSum.residue) and an
integer reconstruction (_reconstruct), all on plain integers; only
method_value wraps a kernel value as a ValuedPadic (padic.valued).

Precision: a count is an integer in [0, (p^n - 1)/(p - 1)], so it is pinned by
its residue mod p^K_target, the smallest power of p over twice that bound
(k_target).  Every kernel carries exactly K_target digits, with no headroom
and no guard digits, and holds residues mod p^K_target: main and koblitz
fold one (-p)-exponent, the floor nj // (p-1) >= 0, into their residues, and
the one division by p (B/p, _y0_read) is asserted exact, so a value is exact
mod p^K_target.
Reconstruction refuses p^K_target <= bound with a PrecisionError carrying
the precision ledger.

A smooth fibre (lambda != 0, lambda^n != 1) needs fewer digits: the
Weil-Deligne bound puts its count in a window [base - h, base + h]
(weil_window), which K_w digits pin, p^K_w > 2h.  A single count there at the
default K_target reads a K_w-digit kernel wherever 2 K_w <= K_target
(_checked), and returns the window's one integer congruent to the residue;
a residue with none is a RangeError, so the bound is checked at run time by
code that shares nothing with the formulas.  Singular fibres, lambda = 0, any
other K_target, count_all and method_value stay at K_target.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from .padic import (CACHE_SIZE, CharSum, PrecisionError, RangeError, ValuedPadic,
                    batch_inverse, check_table_size, is_odd_prime, teichmuller_table,
                    valued)
from .pgamma import frac_gamma_table


class InstanceError(ValueError):
    """The (p, n, lambda) triple violates a precondition of the chosen method."""


class DworkInstance(namedtuple("DworkInstance", "p n lam")):
    """A Dwork hypersurface instance: x_1^n + ... + x_n^n - n*lam*x_1...x_n over F_p."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, lam: int):
        if not is_odd_prime(p):
            raise InstanceError(f"p={p} is not an odd prime")
        if n < 2:
            raise InstanceError("n must be at least 2")
        if n % p == 0:
            raise InstanceError(f"p={p} divides n={n}: "
                                "the problem reduces to the lambda=0 diagonal case")
        return super().__new__(cls, p, n, lam % p)

    @property
    def d(self) -> int:
        return gcd(self.p - 1, self.n)

    @property
    def projective_total(self) -> int:
        return (self.p ** self.n - 1) // (self.p - 1)


class ClassRep(namedtuple("ClassRep", "wstar")):
    """A diagonal-shift equivalence class, named by its canonical representative."""

    __slots__ = ()


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
    """One representative per class for d | n, in lex order: the members of W
    with first entry 0.  The class of w is its d shifts, exactly one of which
    has first entry 0, and that shift is its lex-smallest member."""
    return [ClassRep(w) for w in enumerate_W(n, d) if w[0] == 0]


# -- precision policy --------------------------------------------------------

def _digits_over(p: int, x: int) -> int:
    """Smallest K >= 1 with p^K > x."""
    k, pk = 1, p
    while pk <= x:
        pk *= p
        k += 1
    return k


def k_target(p: int, n: int) -> int:
    """Smallest K with p^K > 2*(p^n - 1)/(p - 1): enough to pin the point count."""
    return _digits_over(p, 2 * ((p ** n - 1) // (p - 1)))


def weil_window(p: int, n: int) -> tuple[int, int, int]:
    """(K_w, base, h): on a smooth fibre (lambda != 0, lambda^n != 1) the count
    lies in [base - h, base + h], and K_w is the smallest K with p^K > 2h.

    base = (p^(n-1) - 1)/(p - 1) counts the points of P^(n-2), and Deligne's
    Weil conjecture bounds the rest by b p^((n-2)/2), with b = ((n-1)^n +
    (-1)^n (n-1))/n the primitive middle Betti number of a smooth degree-n
    hypersurface in P^(n-1); as the count is an integer, h = floor(b
    p^((n-2)/2)) = isqrt(b^2 p^(n-2))."""
    b = ((n - 1) ** n + (-1) ** n * (n - 1)) // n
    h = isqrt(b * b * p ** (n - 2))
    return _digits_over(p, 2 * h), (p ** (n - 1) - 1) // (p - 1), h


def k_working(p: int, n: int, kt: int | None = None) -> int:
    """kt, or k_target(p, n) when kt is None: a K_target kernel carries
    K_target digits (module docstring).  No count calls it; it stays in
    dwork because bench/worker.py does."""
    return kt if kt is not None else k_target(p, n)


# -- the reduced mGm kernel ---------------------------------------------------

def main_l_factors(p: int, n: int, digits: int) -> list[int]:
    """L_j = (-1)^(nj) Gamma(<-nj/(p-1)>) w(n)^(-nj) mod p^digits for one period
    j < t = (p-1)/d: the class-free factor of every main coefficient.  It has
    period t in j: n*t/(p-1) = n/d is an integer, w(n)^(-nt) = 1, and t is even
    when n is odd."""
    d = gcd(p - 1, n)
    t, mod = (p - 1) // d, p ** digits
    table = frac_gamma_table(p, digits)
    step = pow(teichmuller_table(p, digits)[n % p], (-n) % (p - 1), mod)  # w(n)^-n
    if n % 2:
        step = mod - step
    out, power = [], 1
    for j in range(t):
        out.append(table[(-n * j) % (p - 1)] * power % mod)
        power = power * step % mod
    return out


def _dot(pairs, width: int) -> list:
    """Entrywise sum of u * v over the (u, v) pairs of lists of length width."""
    if not pairs:
        return [0] * width
    (u, v), *rest = pairs
    acc = [x * y for x, y in zip(u, v)]
    for u, v in rest:
        acc = [a + x * y for a, x, y in zip(acc, u, v)]
    return acc


def _poly_mul(f, g, p: int, mod: int, top: int = 0) -> list:
    """Coefficients c < top (default d) of f * g in (Z/mod)[Y]/(Y^d + p), each
    a list over one index set: one product per index at once, d * top in all."""
    d, width = len(f), len(f[0])
    return [[(x - p * y) % mod for x, y in zip(  # Y^(c+d) = -p Y^c
        _dot([(f[a], g[c - a]) for a in range(c + 1)], width),
        _dot([(f[a], g[c + d - a]) for a in range(c + 1, d)], width))]
        for c in range(top or d)]


def _poly_square(f, p: int, mod: int, top: int = 0) -> list:
    """_poly_mul(f, f, p, mod, top) with each cross product f_a f_b, a < b,
    taken once and doubled: d(d+1)/2 products instead of d^2."""
    d, width = len(f), len(f[0])
    def sums(s):  # over a + b = s, a <= b < d: the terms a < b, then a = b
        return (_dot([(f[a], f[s - a]) for a in range(max(0, s - d + 1), (s + 1) // 2)], width),
                _dot([(f[s // 2], f[s // 2])] if s % 2 == 0 else [], width))
    return [[(2 * (x - p * y) + u - p * v) % mod for x, u, y, v in zip(*sums(c), *sums(c + d))]
            for c in range(top or d)]


def _y0_power(poly, e: int, p: int, mod: int) -> list:
    """[Y^0] poly^e in (Z/mod)[Y]/(Y^d + p), e >= 2, per index: square-and-
    multiply reduced after every product, the last taken at Y^0 only."""
    out, (*bits, last) = poly, bin(e)[3:]
    for bit in bits:
        out = _poly_square(out, p, mod)
        if bit == "1":
            out = _poly_mul(out, poly, p, mod)
    if last == "1":
        return _poly_mul(_poly_square(out, p, mod), poly, p, mod, 1)[0]
    return _poly_square(out, p, mod, 1)[0]


def _y0_read(rows, n: int, p: int, digits: int) -> tuple[list, int]:
    """([Y^0] P_i^n mod p^(digits+1) per column i, B/p mod p^digits) with
    P_i = sum_k rows[k][i] Y^k in Z[Y]/(Y^d + p) and B = [Y^0] (P_0 -
    rows[0][0])^n, one more column of the same power; p | B (each monomial
    carries some Y^d = -p) is asserted."""
    poly = [list(row) + [row[0] if k else 0] for k, row in enumerate(rows)]
    y0 = _y0_power(poly, n, p, p ** (digits + 1))
    b, rem = divmod(y0.pop(), p)
    if rem:
        raise AssertionError("a Y^0 term has a negative power of p")
    return y0, b


def _gamma_rows(p: int, n: int, digits: int) -> list:
    """The rows of the one Y^0 power main, koblitz and ff read: row k < d of
    the gamma table mod p^digits is Gamma(<(kt + i)/(p-1)>) over i < t."""
    t, table = (p - 1) // gcd(p - 1, n), frac_gamma_table(p, digits)
    return [table[k:k + t] for k in range(0, p - 1, t)]


def _main_terms(p: int, n: int, digits: int) -> list[int]:
    """[C_i for i < t = (p-1)/d]: the main count's classes, each term
    (-1)^n * prefactor * G-coefficient, summed and folded mod t.

    By the reflection formula the prefactor cancels (module docstring): a class
    with counts n_k has the term (-1)^n / (p-1) * (-1)^(r_j) (-p)^(e + E_j)
    L_(j mod t) P_j at j, e = sum_k k n_k / d, and the classes sum as their
    members w in W with w_1 = 0.  Write j = bt + i, 0 <= i < t, and
    g_k(i) = Gamma(<(kt + i)/(p-1)>).  The shift w' = w + b of W turns P_j
    into prod_k g_(w'_k)(i), a monomial of P_i(Y)^n, P_i(Y) = sum_(k<d)
    g_k(i) Y^k, with (-p)^(sum(w')/d) carried by Y^d = -p.  For i > 0 the
    floors give e + E_j = sum(w')/d + b(1 - n/d) + H_(bt+i), H_j =
    floor(nj/(p-1)) - floor(dj/(p-1)) >= 0 the steps of A_w's h/n
    (h not== 0 (n/d)) up to j.  As j -> j + t adds n/d to the first floor
    and 1 to the second, H_(bt+i) = b(n/d - 1) + H_i, the b-terms cancel,
    and as di < p-1 at i < t, H_i = floor(ni/(p-1)), koblitz's floor:

        C_i = (-1)^n L_i / (p-1) * (-p)^(H_i) * [Y^0] P_i(Y)^n.

    At i = 0, r_j flips the w' with an entry 0; the rest (b >= 1), the
    monomials of B = [Y^0] (P_0 - 1)^n, have one factor -p fewer (E_j steps
    at bt + 1), so with A = [Y^0] P_0^n the sum is -(A - B) + B/(-p) =
    -A - (1 - p) B/p, with B/p from _y0_read (sum(w') >= d)."""
    mod = p ** digits
    y0, b = _y0_read(_gamma_rows(p, n, digits), n, p, digits)
    y0[0] = -y0[0] - (1 - p) * b
    scale = (-1) ** n * pow(p - 1, -1, mod)
    return [scale * l * (-p) ** (n * i // (p - 1)) * c % mod
            for i, (c, l) in enumerate(zip(y0, main_l_factors(p, n, digits)))]


def _koblitz_terms(p: int, n: int, digits: int) -> tuple[int, list[int]]:
    """(const, [C_j for j < t]) of the Gauss-sum count less its base term (the
    all-zero w; N_p(0, w) = 0 when some but not all entries vanish): the sum of
    g(w)/p over the all-nonzero w, and C_j the sum over W of
    prod_i g(wbar^(w_i t + j)) / g(wbar^(nj)) / (p-1).

    A ratio's pi-exponent is (p-1)(m + f_j), m = sum(w)/d, and C_j carries
    (-p)^(f_j), f_j = floor(nj/(p-1)) >= 0; as w_i t + j < p-1, the sum over W
    of (-p)^m prod_i u(w_i t + j) is [Y^0] P_j^n in Z[Y]/(Y^d + p), P_j =
    sum_(a<d) u(at + j) Y^a, and the all-nonzero g(w) sum to _y0_read's B.
    The rows are gamma table entries Gamma = -u: [Y^0] P_j^n and B, sums of
    products of n units, each carry (-1)^n, and 1/u(nj) one more -1.

    The power is main's, so the twist lies in the factors: koblitz reads
    (n lambda)^n, wbar^j((n lambda)^n) = wbar^j(n^n) wbar^j(lambda^n), both
    count every lambda != 0, and there the t characters are independent (a
    length-t DFT, t a unit): wbar^j(n^n) C_j is main's C_j at j >= 1, and C_0
    plus the constant is main's (main's L_j holds w(n)^(-nj))."""
    d, mod = gcd(p - 1, n), p ** digits
    t, table = (p - 1) // d, frac_gamma_table(p, digits)
    inv = (-1) ** (n + 1) * pow(p - 1, -1, mod)
    inv_den = batch_inverse([table[n * j % (p - 1)] for j in range(t)], mod)  # -1/u(nj)
    y0, b = _y0_read(_gamma_rows(p, n, digits), n, p, digits)
    return (-1) ** n * b, [(-p) ** (n * j // (p - 1)) * y0[j] * inv * inv_den[j] % mod
                           for j in range(t)]


def _ff_terms(p: int, n: int, digits: int) -> list[int]:
    """[C_i for i < t = (p-1)/n] (p == 1 mod n): prefactor times
    mFm-coefficient per class, with the character generator T = wbar, summed
    and folded mod t.

    Write q = p-1, u_r = rt for each residue r, and g(x) = pi^(x mod q) U(x),
    U(x) = -Gamma((x mod q)/q).  The classes sum as their members w in W with
    w_1 = 0, so n_0 >= 1 and u_0 = 0 is present.  A class's term at
    character k is -1/q times g(u_r)^(n_r) at each residue,
    g(u_r - k)^(n_r - 1) / g(u_r)^(n_r - 1) at each present one,
    g(k - u_r) / g(-u_r) at each absent one, and chi(-1)^(km) for its m absent
    residues.  By g(chi) g(chibar) = chi(-1) p, an absent factor is
    (-1)^k g(u_r) / g(u_r - k), which cancels chi(-1)^(km), so the term is
    prod_r g(u_r) g(u_r - k)^(n_r - 1) = prod_r g(u_r) / g(u_r - k) *
    prod_i g(u_(w_i) - k); only an absent u_r = k leaves one factor p fewer.

    Write k = bt + i, 0 <= i < t.  The first product does not depend on b,
    and v = w - b is a bijection from the (w, b) onto W with
    u_(w_i) - bt = t v_i, so the b-sum of the second runs over all of W.  For
    i > 0, g(t v - i) = pi^(t((v - 1) mod n) + t - i) U(t v - i), and the
    pi-exponents cancel against the first product's, so

        C_i = -1/q * prod_r U(rt) / prod_r U(rt - i) * [Y^0] R_i(Y)^n,

    R_i = sum_r U(rt - i) Y^((r - 1) mod n) in Z[Y]/(Y^n + p), where
    Y^n = -p carries (-p)^(sum/n), is main's -P_c at c = (-i) mod t
    (rt - i = (r - 1)t + c at r >= 1, -i == (n - 1)t + c mod q).  At i = 0
    an absent u_r = bt, b >= 1, drops one factor p: those terms are the v
    with no entry 0, so with A and B the Y^0 coefficients of R_0^n = (-P_0)^n
    and (R_0 - U(0))^n, C_0 = -1/q (A - B + B/p).  So ff reads main's power
    at column c with a sign (-1)^n, and its product ratio is the rows'
    column 0 product over column c's: the scale is (-1)^(n+1)/q.  As ff reads
    lambda^-n, wbar^i(lambda^-n) = wbar^c(lambda^n), so C_i is main's C_c,
    constants alike (the argument of _koblitz_terms).  A generator
    wbar^alpha has u_r = t (alpha r mod n), the same residues reordered, so
    the same kernel."""
    t, mod, rows = (p - 1) // n, p ** digits, _gamma_rows(p, n, digits)
    dens = [1] * t  # prod_k Gamma(<(kt + c)/(p-1)>) per column c
    for row in rows:
        dens = [a * b % mod for a, b in zip(dens, row)]
    y0, b = _y0_read(rows, n, p, digits)
    y0[0] += b - p * b
    scale = (-1) ** (n + 1) * pow(p - 1, -1, mod) * dens[0]
    columns = [scale * inv * y % mod for y, inv in zip(y0, batch_inverse(dens, mod))]
    return [columns[-i % t] for i in range(t)]  # C_i is column c = (-i) mod t


@lru_cache(maxsize=CACHE_SIZE)
def _kernel(method: str, p: int, n: int, digits: int) -> CharSum:
    """The lambda-free kernel of main, koblitz or ff at (p, n) carrying the
    given digits (K_target, or K_w for a single count on a smooth fibre), of
    period (p-1)/d: each method's argument is a d-th power.  Its constant is
    the base count plus koblitz's."""
    const = (p ** (n - 1) - 1) // (p - 1)  # the base count
    if method == "main":
        coeffs = _main_terms(p, n, digits)
    elif method == "koblitz":
        extra, coeffs = _koblitz_terms(p, n, digits)
        const += extra
    else:
        coeffs = _ff_terms(p, n, digits)
    return CharSum(p, digits, const % p ** digits, coeffs)


# the character argument y(lambda) of each method's kernel, in applicable's order
_ARGUMENT = {
    "main": lambda p, n, lam: pow(lam, n, p),
    "koblitz": lambda p, n, lam: pow(n * lam, n, p),
    "relprime": lambda p, n, lam: pow(lam, n, p),
    "ff": lambda p, n, lam: pow(lam, -n, p),
}


def _refusal(name: str, p: int, n: int, lam: int) -> str | None:
    """Why a named method does not cover lambda at (p, n), or None: the one
    domain rule, in this order.  relprime needs d = 1, every method but
    koblitz needs lambda != 0, and ff needs p == 1 (mod n)."""
    if name == "relprime" and gcd(p - 1, n) != 1:
        return f"gcd(p-1, n) = {gcd(p - 1, n)} != 1: the d = 1 formula does not apply"
    if lam % p == 0 and name != "koblitz":
        return "lambda = 0: use the Gauss-sum count"
    if name == "ff" and (p - 1) % n:
        return f"p={p} is not 1 mod n={n}"
    return None


def applicable(p: int, n: int, lam: int) -> list[str]:
    """The formula methods that cover lambda at (p, n), in the order main,
    koblitz, relprime, ff; count refuses the others, and any over a budget."""
    return [name for name in _ARGUMENT if _refusal(name, p, n, lam) is None]


@lru_cache(maxsize=CACHE_SIZE)
def _checked(p: int, n: int, kt: int | None) -> tuple[int, int, tuple[int, int, int] | None]:
    """(K_target, projective bound, Weil digits) at (p, n) after every
    lambda-free input check and budget: the DworkInstance preconditions, the
    table limit and the K_target (k_target(p, n) by default).  Cached, so a
    family of counts at one (p, n) runs them once, for every method.

    The Weil digits are (K_w, low, high), the digits and the window
    [base - h, base + h] of weil_window, which a single count on a smooth
    fibre reads instead of K_target; None off the default K_target, or
    where 2 K_w > K_target.  A family of single counts at one (p, n) meets
    the singular fibre lambda = 1, which then needs a second kernel at
    K_target; the factor 2 is a judgment between the points below, not a
    measured threshold.  scripts/weil_rule.py times main at K_w against
    K_target in fresh processes, tables and kernels built inside the span,
    for one count at lambda = 2 and for the family of single counts at
    lambda = 1..p-1 (median ms of 7 alternating runs, CPython 3.11, shared
    2-core machine; medians move 10-20 % between invocations):

      (p, n)     K_w/K_target  rule   one count    family
      (13, 3)    2/3           admit  0.31 / 0.25  0.64 / 0.45
      (43, 4)    2/4           admit  0.44 / 0.46  1.03 / 0.82
      (601, 4)   2/4           admit  2.02 / 3.24  18.0 / 28.8
      (1009, 4)  2/4           admit  3.77 / 5.43  43.5 / 72.3
      (41, 4)    3/4           leave  0.51 / 0.52  1.10 / 0.78
      (31, 6)    5/6           leave  0.55 / 0.52  1.03 / 0.68
      (1009, 6)  4/6           leave  6.80 / 7.37  62.0 / 44.8

    So at small p, admitted or not, K_w gains nothing on one count, and a
    family of single counts pays 0.2-0.3 ms for the second build (count_all
    builds one kernel).  At (1009, 6) the rule gives up 8 % on one count to
    keep the family 28 % faster.  No other pair is measured."""
    inst = DworkInstance(p, n, 0)
    check_table_size(p)
    default = k_target(p, n)
    kt = default if kt is None else kt
    if kt < 1:
        raise ValueError(f"K_target must be at least 1, not {kt}")
    kw, base, h = weil_window(p, n)
    weil = (kw, base - h, base + h) if kt == default and 2 * kw <= kt else None
    return kt, inst.projective_total, weil


def _method_inputs(name: str, p: int, n: int, lam: int, kt: int | None
                   ) -> tuple[int, int, tuple[int, int, int] | None, str, int]:
    """(K_target, bound, Weil digits, kernel method, y(lambda)) of a named
    method, after its checks: _checked's, then the method name, then the
    domain rule (_refusal).  relprime reads main's kernel at the same y."""
    kt, bound, weil = _checked(p, n, kt)
    arg = _ARGUMENT.get(name)
    if arg is None:
        raise ValueError(f"unknown method {name!r}")
    lam %= p
    if refusal := _refusal(name, p, n, lam):
        raise InstanceError(refusal)
    return kt, bound, weil, "main" if name == "relprime" else name, arg(p, n, lam)


def _reconstruct(kernel: CharSum, r: int, low: int, high: int, kt: int) -> int:
    """The one integer in [low, high] congruent to a kernel's residue r mod
    p^digits.  p^digits <= high - low is a PrecisionError carrying the
    kernel's precision ledger, and a residue with no such integer is a
    RangeError."""
    p, prec, span = kernel.p, kernel.digits, high - low
    if kernel.mod <= span:
        raise PrecisionError(
            f"{p}^{prec} does not exceed the bound {span}: the value is known to "
            f"absolute precision {prec} only; K_target {kt}, working digits {prec}: "
            f"a count needs a K_target with p^K_target > {span}")
    offset = (r - low) % kernel.mod
    if offset > span:
        raise RangeError(
            f"no integer in [{low}, {high}] is congruent to the count's residue "
            f"{r} mod {p}^{prec}: a formula is wrong")
    return low + offset


def count(name: str, p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by a named formula method; InstanceError where
    applicable(p, n, lambda) leaves it out or a budget refuses it.

    On a smooth fibre (lambda != 0, lambda^n != 1) where _checked gives Weil
    digits, the kernel carries K_w digits and the count is read in the
    Weil-Deligne window [low, high]; elsewhere the kernel carries K_target
    digits and the count is read in [0, bound].  A residue with no integer in
    its window is a RangeError, so the Weil-Deligne bound is checked on every
    count that relies on it."""
    kt, bound, weil, method, y = _method_inputs(name, p, n, lam, kt)
    digits, low, high = weil if weil and pow(lam, n, p) not in (0, 1) else (kt, 0, bound)
    kernel = _kernel(method, p, n, digits)
    return _reconstruct(kernel, kernel.residue(y), low, high, kt)


def count_all(name: str, p: int, n: int, kt: int | None = None) -> dict[int, int]:
    """{lambda: N_p(lambda)} by one method for every lambda it covers: all of
    F_p for koblitz, F_p^* for main, relprime and ff.

    The checks run once, and the kernel is evaluated over its whole domain by
    one transform (CharSum.residues): as lambda runs over F_p^*, y(lambda)
    runs over exactly the d-th powers, and koblitz's lambda = 0 adds y = 0.
    Each y a covered lambda maps to is reconstructed once, and each count
    equals the method's single count at that lambda.
    """
    kt, bound, _, method, _ = _method_inputs(name, p, n, 1, kt)
    kernel = _kernel(method, p, n, kt)
    arg = _ARGUMENT[name]
    lams = range(1, p) if _refusal(name, p, n, 0) else range(p)
    ys = {lam: arg(p, n, lam) for lam in lams}
    values = kernel.residues()
    counts = {y: _reconstruct(kernel, values[y], 0, bound, kt) for y in set(ys.values())}
    return {lam: counts[y] for lam, y in ys.items()}


def count_main(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the main hypergeometric formula; lambda != 0, p not dividing n."""
    return count("main", p, n, lam, kt)


def count_relprime(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the d = 1 specialization: one (n-1)G(n-1) evaluation."""
    return count("relprime", p, n, lam, kt)


def count_ff(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the finite-field-hypergeometric form (p == 1 mod n)."""
    return count("ff", p, n, lam, kt)


def count_koblitz(p: int, n: int, lam: int, kt: int | None = None) -> int:
    """N_p(lambda) by the Gauss-sum count; lambda = 0 allowed."""
    return count("koblitz", p, n, lam, kt)


def method_value(name: str, p: int, n: int, lam: int,
                 kt: int | None = None) -> ValuedPadic:
    """Pre-reconstruction p-adic value of a named formula method."""
    kt, _, _, method, y = _method_inputs(name, p, n, lam, kt)
    kernel = _kernel(method, p, n, kt)
    return valued(p, 0, kernel.residue(y), kernel.digits)
