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
  the cycle.  O(p^2) total, and digit-exact (tests compare it to the sweep).

General rational arguments route through the table when the denominator
divides p-1 and otherwise fall back to the sweep, which at working precisions
beyond ~10^8 lift steps is refused with advice (see SWEEP_LIMIT).  Sweep
results are memoized in-process per (p, digits); nothing is persisted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .padic import PadicError, PadicUnit, teichmuller_table

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


@lru_cache(maxsize=None)
def frac_gamma_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of Gamma_p(r/(p-1)) for r = 0..p-2, via the Jacobi-sum seeding."""
    mod = p ** digits
    teich = teichmuller_table(p, digits)
    inv_mod_p = [0] * p
    for x in range(1, p):
        inv_mod_p[x] = pow(x, -1, p)
    # running[x] holds wbar^j(x) * wbar(1-x); jac[j] = J(wbar^j, wbar)
    xs = list(range(2, p))
    bases = [teich[inv_mod_p[x]] for x in xs]
    running = [teich[inv_mod_p[(1 - x) % p]] for x in xs]
    jac = [0] * (p - 1)
    for j in range(1, p - 2):
        acc = 0
        for i in range(len(xs)):
            running[i] = running[i] * bases[i] % mod
            acc += running[i]
        jac[j] = acc % mod
        if jac[j] % p == 0:
            raise PadicError("non-unit Jacobi sum: p-1 arithmetic is inconsistent")
    seed_target = 1
    for j in range(1, p - 2):
        seed_target = seed_target * jac[j] % mod
    if seed_target % p != 1:
        raise PadicError("Jacobi product not 1 mod p: seeding invariant broken")
    # Hensel/Newton for X^(p-1) = seed_target with X == 1 (mod p)
    x, prec = 1, 1
    while prec < digits:
        prec = min(2 * prec, digits)
        m2 = p ** prec
        deriv = (p - 1) * pow(x, p - 2, m2) % m2
        x = (x - (pow(x, p - 1, m2) - seed_target) * pow(deriv, -1, m2)) % m2
    table = [0] * (p - 1)
    table[0] = 1
    if p > 3:
        table[1] = x
        for j in range(1, p - 2):
            table[j + 1] = (mod - table[j] * x % mod * pow(jac[j], -1, mod) % mod) % mod
    elif p == 3:
        table[1] = x
    # reflection closes the cycle: Gamma(1/(p-1)) * Gamma((p-2)/(p-1)) = 1
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


def gamma_of_fraction(q: Fraction, p: int, digits: int,
                      sweep_limit: int | None = SWEEP_LIMIT) -> int:
    """Residue of Gamma_p(q) mod p^digits for an exact rational 0 <= q <= 1."""
    if not 0 <= q <= 1:
        raise ValueError("normalize the argument into [0, 1] first")
    if q.denominator % p == 0:
        raise ValueError("argument denominator divisible by p")
    if q == 1:
        return p ** digits - 1
    if (p - 1) % q.denominator == 0:
        return frac_gamma_table(p, digits)[q.numerator * ((p - 1) // q.denominator)]
    m = lift_rational(q.numerator, q.denominator, p, digits)
    return batch_pgamma_residues([m], p, digits, sweep_limit)[m]


class GammaEvaluator:
    """Resolves Gamma_p at exact rationals in [0, 1], batching the lift sweeps.

    Arguments with denominator dividing p-1 come from the seeded table; the
    rest are collected by prefetch() and served from one shared sweep.
    """

    def __init__(self, p: int, digits: int, sweep_limit: int | None = SWEEP_LIMIT):
        self.p = p
        self.digits = digits
        self.sweep_limit = sweep_limit
        self._lifted: dict[Fraction, int] = {}

    def prefetch(self, args) -> None:
        pending = {}
        for q in args:
            if q in self._lifted or (self.p - 1) % q.denominator == 0 or q == 1:
                continue
            pending[q] = lift_rational(q.numerator, q.denominator, self.p, self.digits)
        if pending:
            got = batch_pgamma_residues(pending.values(), self.p, self.digits,
                                        self.sweep_limit)
            for q, m in pending.items():
                self._lifted[q] = got[m]

    def get(self, q: Fraction) -> int:
        if q in self._lifted:
            return self._lifted[q]
        if q == 1 or (self.p - 1) % q.denominator == 0:
            return gamma_of_fraction(q, self.p, self.digits, self.sweep_limit)
        self.prefetch([q])
        return self._lifted[q]
