"""Morita's p-adic gamma function at integer lifts and rational arguments.

Two evaluation routes coexist:

* the definitional recurrence sweep over integer lifts (batch_pgamma_residues),
  Gamma(m+1) being -m*Gamma(m) for p-not-dividing-m and -Gamma(m) otherwise.
  Exact, but costs O(lift) multiplications with lifts as large as p^digits;
* a fast table (frac_gamma_table) for every argument r/(p-1), r = 0..p-2,
  seeded through the Gross-Koblitz form of the Gauss-sum product rule
  g(wbar^j) g(wbar) = J(wbar^j, wbar) g(wbar^(j+1)): the Jacobi sums are plain
  character sums over F_p, the seed Gamma(1/(p-1)) is the unique Hensel root of
  X^(p-1) = prod(J_j) with X == 1 (mod p), and the reflection formula closes
  the cycle.  All p-1 Jacobi sums are one DFT (padic.chirp_dft), which splits
  by radix 2 down to its odd part and runs Bluestein's chirp there, each
  chirp correlation a single big-integer product (Kronecker substitution),
  and the recursion runs backward from Gamma((p-2)/(p-1)) = 1/X with one
  modular inversion.  For p == 3 (mod 4), p > 3, h = (p-1)/2 is odd and
  only the even entries Gamma(s/h) are seeded, the same way, from the h
  sums J(wbar^2s, wbar^2), one length-h transform; the Gauss duplication
  formula Gamma(x/2) Gamma((x+1)/2) = w(4)^(x(p-1)/2) Gamma(x) Gamma(1/2)
  and reflection give the odd entries from the even ones, with
  Gamma(1/2) = +-1 from ((p-1)/2)! mod p.  Under Karatsuba the products
  then cost under half of one length-(p-1) product (4 | p-1 gives at least
  two radix-2 splits), and about a third for p == 3 (mod 4); the rest is
  O(p) work.  Digit-exact: tests compare it to the sweep and to the direct
  O(p^2) character sums.

General rational arguments route through gamma_residues: the table when the
denominator divides p-1, and otherwise one shared sweep, which is refused with
advice (SweepLimitError) when it would run more than SWEEP_LIMIT lift steps,
the module constant read at call time; the table itself refuses a p over
padic.TABLE_LIMIT (TableLimitError).  Sweep results are memoized in-process
per (p, digits); nothing is persisted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .padic import (PadicError, check_table_size, chirp_dft, primitive_root,
                    teichmuller_table)

SWEEP_LIMIT = 50_000_000


class SweepLimitError(PadicError):
    """A gamma evaluation would need an infeasibly long lift sweep."""


# per-(p, digits) map of lift -> Gamma_p(lift) residue; grows monotonically
_sweep_memo: dict[tuple[int, int], dict[int, int]] = {}


def batch_pgamma_residues(lifts, p: int, digits: int) -> dict[int, int]:
    """Gamma_p at every requested lift, from one shared forward sweep; values
    are memoized per (p, digits).  A sweep of more than SWEEP_LIMIT steps from
    one memoized lift to the next is refused with SweepLimitError."""
    mod = p ** digits
    memo = _sweep_memo.setdefault((p, digits), {})
    targets = sorted(set(lifts))
    if targets and not 0 <= targets[0] <= targets[-1] < mod:
        raise ValueError("lift out of range [0, p^digits)")
    out = {}
    pos, val = 0, 1
    for m in targets:
        if m not in memo:
            if m - pos > SWEEP_LIMIT:
                raise SweepLimitError(
                    f"gamma lift sweep of {m - pos} steps exceeds the {SWEEP_LIMIT} limit; "
                    "use a smaller working precision (gfun --kw) or "
                    "arguments with denominator dividing p-1")
            while pos < m:
                val = val * (mod - pos) % mod if pos % p else (mod - val) % mod
                pos += 1
            memo[m] = val
        out[m] = val = memo[m]
        pos = m
    return out


def lift_rational(num: int, den: int, p: int, digits: int) -> int:
    """Integer lift of num/den mod p^digits (den coprime to p)."""
    if den % p == 0:
        raise ValueError("denominator divisible by p")
    mod = p ** digits
    return num * pow(den, -1, mod) % mod


def _jacobi_inputs(p: int, digits: int) -> tuple[list[int], list[int]]:
    """zeta[e] = wbar(g^e) mod p^digits for e = 0..p-2, g the primitive root and
    zeta = wbar(g), and the discrete logarithm to base g of 1 - g^k for k = 1..p-2."""
    size = p - 1
    teich = teichmuller_table(p, digits)
    g = primitive_root(p)
    gpow, log = [1] * size, [0] * p
    for k in range(1, size):
        gpow[k] = gpow[k - 1] * g % p
    for k, x in enumerate(gpow):
        log[x] = k
    zeta = [teich[gpow[-e]] for e in range(size)]  # zeta^e = w(g^-e) = wbar(g^e)
    return zeta, [log[(1 - gpow[k]) % p] for k in range(1, size)]


def jacobi_sums(p: int, digits: int) -> list[int]:
    """J(wbar^j, wbar) = sum_x wbar^j(x) wbar(1-x) mod p^digits for j = 0..p-2.

    With x = g^k for a primitive root g and zeta = wbar(g), the sums are the
    length-(p-1) DFT J_j = sum_k a_k zeta^(jk) of a_k = wbar(1 - g^k), which
    padic.chirp_dft computes by big-integer products (zeta^((p-1)/2) = -1).
    """
    zeta, logs = _jacobi_inputs(p, digits)
    return chirp_dft([0] + [zeta[e] for e in logs], zeta, p ** digits)


def even_jacobi_sums(p: int, digits: int) -> list[int]:
    """J(wbar^2s, wbar^2) mod p^digits for s = 0..h-1, h = (p-1)/2.

    Pairing x = g^k with g^(k+h) makes these the length-h DFT with root zeta^2
    of a_k^2 + a_(k+h)^2, a_k = wbar(1 - g^k) as in jacobi_sums; each square
    a_k^2 = zeta^(2 log(1 - g^k)) is a table entry.
    """
    size, h, mod = p - 1, (p - 1) // 2, p ** digits
    zeta, logs = _jacobi_inputs(p, digits)
    sq = [0] + [zeta[2 * e % size] for e in logs]
    return chirp_dft([(sq[k] + sq[k + h]) % mod for k in range(h)], zeta[::2], mod)


@lru_cache(maxsize=None)
def frac_gamma_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of Gamma_p(r/(p-1)) for r = 0..p-2: for p == 3 (mod 4), p > 3, the
    even entries from J(wbar^2s, wbar^2) and the odd ones by duplication, and
    otherwise every entry from J(wbar^j, wbar).  A p over padic.TABLE_LIMIT is
    refused before anything is allocated."""
    check_table_size(p)
    table = [1] * (p - 1)
    if p % 4 == 3 and p > 3:  # at p = 3, h = 1 leaves no even entry to seed
        _seed_entries(table, even_jacobi_sums(p, digits), 2, p, digits)
        _duplicate_odd_entries(table, p, digits)
        if table[1] % p != 1:
            raise PadicError("gamma table failed the Gamma(1/(p-1)) == 1 (mod p) check")
    else:
        _seed_entries(table, jacobi_sums(p, digits), 1, p, digits)
        mod, half = p ** digits, table[(p - 1) // 2]
        want = mod - 1 if (p + 1) // 2 % 2 else 1
        if half * half % mod != want:
            raise PadicError("gamma table failed the half-point reflection check")
    return tuple(table)


def _seed_entries(table: list[int], sums: list[int], step: int, p: int, digits: int) -> None:
    """Fill table[step*s] = Gamma_p(s/n), s = 1..n-1, n = (p-1)/step, from the sums
    J_s = J(wbar^(step*s), wbar^step) for s = 0..n-1; step is 1, or 2 with n odd.

    The Gauss-sum product rule g(wbar^(step*s)) g(wbar^step) = J_s g(wbar^(step*(s+1)))
    and Gross-Koblitz give Gamma((s+1)/n) = -Gamma(s/n) z / J_s for z = Gamma(1/n),
    and reflection, Gamma(1/n) Gamma((n-1)/n) = (-1)^(step+1), closes the cycle:
    z is the root of z^n = prod_(s=1..n-2) J_s with z == 1/step (mod p).  The
    recursion runs backward from Gamma((n-1)/n) = (-1)^(step+1)/z, so z is the
    one inversion.
    """
    n, mod = (p - 1) // step, p ** digits
    jac = sums[1:n - 1]  # s = 1..n-2
    if any(v % p == 0 for v in jac):
        raise PadicError("non-unit Jacobi sum: p-1 arithmetic is inconsistent")
    seed_target = 1
    for v in jac:
        seed_target = seed_target * v % mod
    if seed_target * pow(step, n, p) % p != 1:
        raise PadicError(f"Jacobi product not {step}^-{n} mod p: seeding invariant broken")
    # Hensel/Newton for z^n = seed_target with z == 1/step (mod p)
    z, prec = pow(step, -1, p), 1
    while prec < digits:
        prec = min(2 * prec, digits)
        m2 = p ** prec
        deriv = n * pow(z, n - 1, m2) % m2
        z = (z - (pow(z, n, m2) - seed_target) * pow(deriv, -1, m2)) % m2
    zinv, last, sign = pow(z, -1, mod), p - 1 - step, (-1) ** (step + 1)
    table[last] = sign * zinv % mod
    for s in range(n - 2, 0, -1):
        table[step * s] = mod - table[step * (s + 1)] * jac[s - 1] % mod * zinv % mod
    # the recursion returns to Gamma(1/n) = z only if prod J_s = z^n
    if table[step] * table[last] % mod != sign % mod:
        raise PadicError("gamma table failed the reflection closure check")


def _duplicate_odd_entries(table: list[int], p: int, digits: int) -> None:
    """Fill the odd entries of a table whose even ones are set, for p == 3 (mod 4).

    With h = (p-1)/2 odd, Gauss's duplication formula reads
    Gamma(j/(p-1)) Gamma((j+h)/(p-1)) = w(4)^j Gamma(2j/(p-1)) Gamma(1/2) for
    j < h, and Gamma(1/2) = +-1, as Gamma(1/2)^2 = (-1)^((p+1)/2) = 1.  For even
    j, 1/Gamma(j/(p-1)) = -Gamma((p-1-j)/(p-1)) by reflection, so an odd i > h,
    where i - h is even, costs two products, and so does an odd i < h, the
    reflection 1/Gamma((p-1-i)/(p-1)) of an odd entry above h.
    """
    mod, h = p ** digits, (p - 1) // 2
    # Gamma(1/2) == Gamma((p+1)/2) = (-1)^((p+1)/2) ((p-1)/2)! == ((p-1)/2)! (mod p)
    fact = 1
    for k in range(2, h + 1):
        fact = fact * k % p
    half = 1 if fact == 1 else -1
    table[h], sign = half % mod, -half  # sign: the reflected inverse's -1 times Gamma(1/2)
    teich, inv16 = teichmuller_table(p, digits), pow(16, -1, p)
    four_j, four_inv_j = 1, 1  # 4^j and 4^-j mod p; w(4)^j = w(4^j)
    for j in range(2, h, 2):
        four_j, four_inv_j = four_j * 16 % p, four_inv_j * inv16 % p
        table[h + j] = sign * teich[four_j] * table[2 * j] % mod * table[p - 1 - j] % mod
        table[h - j] = sign * teich[four_inv_j] * table[j] % mod * table[p - 1 - 2 * j] % mod


def gamma_residues(args, p: int, digits: int) -> dict[Fraction, int]:
    """{q: residue of Gamma_p(q) mod p^digits} for exact rationals 0 <= q <= 1.

    The one routing rule: q = 1 and arguments whose denominator divides p-1
    come from the seeded table; every other argument is lifted and served from
    one shared sweep.
    """
    mod = p ** digits
    out, lifts = {}, {}
    for q in set(args):
        if not 0 <= q <= 1:
            raise ValueError("normalize the argument into [0, 1] first")
        if q.denominator % p == 0:
            raise ValueError("argument denominator divisible by p")
        if q == 1:
            out[q] = mod - 1
        elif (p - 1) % q.denominator == 0:
            out[q] = frac_gamma_table(p, digits)[q.numerator * ((p - 1) // q.denominator)]
        else:
            lifts[q] = lift_rational(q.numerator, q.denominator, p, digits)
    if lifts:
        swept = batch_pgamma_residues(lifts.values(), p, digits)
        out.update((q, swept[m]) for q, m in lifts.items())
    return out
