"""Morita's p-adic gamma function at integer lifts and rational arguments.

Two evaluation routes coexist:

* the definitional recurrence sweep over integer lifts, Gamma(m+1) being
  -m*Gamma(m) for p-not-dividing-m and -Gamma(m) otherwise.  Exact, but costs
  O(lift) multiplications with lifts as large as p^digits;
* a fast table for every argument r/(p-1), r = 0..p-2, seeded through the
  Gross-Koblitz form of the Gauss-sum product rule
  g(wbar^j) g(wbar) = J(wbar^j, wbar) g(wbar^(j+1)): the Jacobi sums are plain
  character sums over F_p, the seed Gamma(1/(p-1)) is the unique Hensel root of
  X^(p-1) = prod(J_j) with X == 1 (mod p), and the reflection formula closes
  the cycle.  All p-1 Jacobi sums come from one Bluestein chirp correlation,
  done as a single big-integer product (Kronecker substitution), and the
  recursion runs backward from Gamma((p-2)/(p-1)) = 1/X with one modular
  inversion, so the build is one multiplication of two (p-1)-slot integers
  plus O(p) work.  Digit-exact: tests compare it to the sweep and to the
  direct O(p^2) character sums.

General rational arguments route through gamma_residues: the table when the
denominator divides p-1, and otherwise one shared sweep, which at working
precisions beyond SWEEP_LIMIT lift steps is refused with advice.  Sweep
results are memoized in-process per (p, digits); nothing is persisted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .padic import PadicError, PadicUnit, chirp_dft, primitive_root, teichmuller_table

SWEEP_LIMIT = 50_000_000


class SweepLimitError(PadicError):
    """A gamma evaluation would need an infeasibly long lift sweep."""


# per-(p, digits) map of lift -> Gamma_p(lift) residue; grows monotonically
_sweep_memo: dict[tuple[int, int], dict[int, int]] = {}


def batch_pgamma_residues(lifts, p: int, digits: int,
                          sweep_limit: int | None = SWEEP_LIMIT) -> dict[int, int]:
    """Gamma_p at every requested lift, from one shared forward sweep; values
    are memoized per (p, digits)."""
    mod = p ** digits
    memo = _sweep_memo.setdefault((p, digits), {})
    targets = sorted(set(lifts))
    if targets and not 0 <= targets[0] <= targets[-1] < mod:
        raise ValueError("lift out of range [0, p^digits)")
    out = {}
    pos, val = 0, 1
    for m in targets:
        if m not in memo:
            if sweep_limit is not None and m - pos > sweep_limit:
                raise SweepLimitError(
                    f"gamma lift sweep of {m - pos} steps exceeds the {sweep_limit} limit; "
                    "use a smaller working precision (e.g. --precision-override) or "
                    "arguments with denominator dividing p-1")
            while pos < m:
                val = val * (mod - pos) % mod if pos % p else (mod - val) % mod
                pos += 1
            memo[m] = val
        out[m] = val = memo[m]
        pos = m
    return out


def pgamma_int(m: int, p: int, digits: int,
               sweep_limit: int | None = SWEEP_LIMIT) -> PadicUnit:
    """Gamma_p(m) mod p^digits for an integer lift 0 <= m < p^digits."""
    if not 0 <= m < p ** digits:
        raise ValueError("lift out of range: reduce mod p^digits first")
    res = batch_pgamma_residues([m], p, digits, sweep_limit)[m]
    return PadicUnit(res, p, digits)


def batch_pgamma(lifts, p: int, digits: int) -> list[PadicUnit]:
    got = batch_pgamma_residues(lifts, p, digits)
    return [PadicUnit(got[m], p, digits) for m in lifts]


def lift_frac(r: int, p: int, digits: int) -> int:
    """The canonical integer approximant of r/(p-1): m*(p-1) == r mod p^digits."""
    if not 0 <= r <= p - 1:
        raise ValueError("numerator out of [0, p-1]")
    mod = p ** digits
    return r * pow(p - 1, -1, mod) % mod


def lift_rational(num: int, den: int, p: int, digits: int) -> int:
    """Integer lift of num/den mod p^digits (den coprime to p)."""
    if den % p == 0:
        raise ValueError("denominator divisible by p")
    mod = p ** digits
    return num * pow(den, -1, mod) % mod


def jacobi_sums(p: int, digits: int) -> list[int]:
    """J(wbar^j, wbar) = sum_x wbar^j(x) wbar(1-x) mod p^digits for j = 0..p-2.

    With x = g^k for a primitive root g and zeta = wbar(g), the sums are the
    length-(p-1) DFT J_j = sum_k a_k zeta^(jk) of a_k = wbar(1 - g^k), which
    padic.chirp_dft computes as one big-integer product (zeta^((p-1)/2) = -1).
    """
    size = p - 1
    teich = teichmuller_table(p, digits)
    g = primitive_root(p)
    gpow, log = [1] * size, [0] * p
    for k in range(1, size):
        gpow[k] = gpow[k - 1] * g % p
    for k, x in enumerate(gpow):
        log[x] = k
    zeta = [teich[gpow[-e]] for e in range(size)]  # zeta^e = w(g^-e) = wbar(g^e)
    a = [0] + [zeta[log[(1 - gpow[k]) % p]] for k in range(1, size)]
    return chirp_dft(a, zeta, p ** digits)


@lru_cache(maxsize=None)
def frac_gamma_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of Gamma_p(r/(p-1)) for r = 0..p-2, via the Jacobi-sum seeding."""
    mod = p ** digits
    jac = jacobi_sums(p, digits)[1:p - 2]  # j = 1..p-3
    if any(v % p == 0 for v in jac):
        raise PadicError("non-unit Jacobi sum: p-1 arithmetic is inconsistent")
    seed_target = 1
    for v in jac:
        seed_target = seed_target * v % mod
    if seed_target % p != 1:
        raise PadicError("Jacobi product not 1 mod p: seeding invariant broken")
    # Hensel/Newton for X^(p-1) = seed_target with X == 1 (mod p)
    x, prec = 1, 1
    while prec < digits:
        prec = min(2 * prec, digits)
        m2 = p ** prec
        deriv = (p - 1) * pow(x, p - 2, m2) % m2
        x = (x - (pow(x, p - 1, m2) - seed_target) * pow(deriv, -1, m2)) % m2
    # Gamma((j+1)/(p-1)) = -Gamma(j/(p-1)) x / J_j, run backward from
    # Gamma((p-2)/(p-1)) = 1/x (reflection), so x is the one inversion
    table = [1] * (p - 1)
    xinv = pow(x, -1, mod)
    table[p - 2] = xinv
    for j in range(p - 3, 0, -1):
        table[j] = mod - table[j + 1] * jac[j - 1] % mod * xinv % mod
    # the recursion returns to Gamma(1/(p-1)) = x only if prod J_j = x^(p-1)
    if table[1] * table[p - 2] % mod != 1 % mod:
        raise PadicError("gamma table failed the reflection closure check")
    half = table[(p - 1) // 2]
    want = mod - 1 if (p + 1) // 2 % 2 else 1
    if half * half % mod != want:
        raise PadicError("gamma table failed the half-point reflection check")
    return tuple(table)


def pgamma_frac(r: int, p: int, digits: int) -> PadicUnit:
    """Gamma_p(r/(p-1)) mod p^digits for 0 <= r <= p-1."""
    if not 0 <= r <= p - 1:
        raise ValueError("numerator out of [0, p-1]")
    if r == p - 1:  # argument 1
        return PadicUnit(p ** digits - 1, p, digits)
    return PadicUnit(frac_gamma_table(p, digits)[r], p, digits)


def gamma_residues(args, p: int, digits: int,
                   sweep_limit: int | None = SWEEP_LIMIT) -> dict[Fraction, int]:
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
        swept = batch_pgamma_residues(lifts.values(), p, digits, sweep_limit)
        out.update((q, swept[m]) for q, m in lifts.items())
    return out


def gamma_of_fraction(q: Fraction, p: int, digits: int,
                      sweep_limit: int | None = SWEEP_LIMIT) -> int:
    """Residue of Gamma_p(q) mod p^digits for an exact rational 0 <= q <= 1."""
    return gamma_residues([q], p, digits, sweep_limit)[q]
