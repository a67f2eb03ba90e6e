"""Morita's p-adic gamma function at integer lifts and rational arguments.

Two evaluation routes coexist:

* the definitional recurrence sweep over integer lifts (batch_pgamma_residues),
  Gamma(m+1) being -m*Gamma(m) for p-not-dividing-m and -Gamma(m) otherwise.
  Exact, but costs O(lift) multiplications with lifts as large as p^digits;
* a fast table (frac_gamma_table) for every argument r/(p-1), r = 0..p-2,
  seeded through the Gross-Koblitz form of the Gauss-sum product rule
  g(wbar^j) g(wbar) = J(wbar^j, wbar) g(wbar^(j+1)): the Jacobi sums are plain
  character sums over F_p, the seed Gamma(1/(p-1)) is the closed-form root of
  X^(p-1) = prod(J_j) with X == 1 (mod p), and the reflection formula closes
  the cycle.  One seeding route serves every p.  By J_(p-2-j) = -J_j the odd
  sums are the even ones reversed and negated, and the even ones are one DFT
  of length (p-1)/2 (padic.chirp_dft), which splits by radix 2 down to its odd
  part and runs Bluestein's chirp there, each chirp correlation a single
  big-integer product (Kronecker substitution); the recursion runs backward
  from Gamma((p-2)/(p-1)) = 1/X with one modular inversion.  The rest is O(p)
  work.  Digit-exact: tests compare it to the sweep and to the direct O(p^2)
  character sums, and Gauss's duplication formula, which no route uses,
  survives as a test identity on the table.

General rational arguments route through gamma_residues: the table when the
denominator divides p-1, and otherwise one shared sweep, which is refused with
advice (SweepLimitError) when it would run more than SWEEP_LIMIT lift steps,
the module constant read at call time; the table itself refuses a p over
padic.TABLE_LIMIT (TableLimitError).  Sweep results are memoized in-process
for one (p, digits); nothing is persisted.
"""

from __future__ import annotations

from functools import lru_cache

from .padic import (CACHE_SIZE, PadicError, check_table_size, chirp_dft,
                    primitive_root, teichmuller_table)

# Most lift steps one gamma sweep may take.  2 * 10^6 steps took 0.22-0.29 s
# at (p, digits) = (101, 4) and (30011, 2), about 0.13-0.14 us a step, and a
# whole 5 * 10^7-step sweep 7.9 s and 8.3 s there (CPython 3.11, shared
# 2-core Intel Xeon machine): the limit is about 8 s of sweep.
SWEEP_LIMIT = 50_000_000


class SweepLimitError(PadicError):
    """A gamma evaluation would need an infeasibly long lift sweep."""


# lift -> Gamma_p(lift) residue for one (p, digits), cleared when another
# (p, digits) arrives
_sweep_memo: dict[tuple[int, int], dict[int, int]] = {}


def batch_pgamma_residues(lifts, p: int, digits: int) -> dict[int, int]:
    """Gamma_p at every requested lift, from one shared forward sweep; values
    are memoized for one (p, digits) at a time, so repeated calls at one
    (p, digits) stay warm and a sweep over primes holds one entry.  A sweep of
    more than SWEEP_LIMIT steps from one memoized lift to the next is refused
    with SweepLimitError."""
    mod = p ** digits
    if (p, digits) not in _sweep_memo:
        _sweep_memo.clear()
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


def jacobi_sums(p: int, digits: int) -> list[int]:
    """J_j = J(wbar^j, wbar) = sum_x wbar^j(x) wbar(1-x) mod p^digits for j = 0..p-2.

    With x = g^k for a primitive root g and zeta = wbar(g), J_j is the DFT
    sum_k a_k zeta^(jk) of a_k = wbar(1 - g^k).  As zeta^(2h) = 1, h = (p-1)/2,
    the even sums J_2s are one length-h DFT with root zeta^2 of a_k + a_(k+h)
    (padic.chirp_dft, by big-integer products), and the odd ones are free:
    J(chi, psi) = J(psi, chi) = psi(-1) J(psi, conj(chi psi)) with
    wbar(-1) = -1 gives J_(p-2-j) = -J_j, so J_(2s+1) = -J_(2(h-1-s)).
    """
    size, h, mod = p - 1, (p - 1) // 2, p ** digits
    teich = teichmuller_table(p, digits)
    g = primitive_root(p)
    gpow, log = [1] * size, [0] * p
    for k in range(1, size):
        gpow[k] = gpow[k - 1] * g % p
    for k, x in enumerate(gpow):
        log[x] = k
    zeta = [teich[gpow[-e]] for e in range(size)]  # zeta^e = w(g^-e) = wbar(g^e)
    a = [0] + [zeta[log[(1 - x) % p]] for x in gpow[1:]]
    even = chirp_dft([(a[k] + a[k + h]) % mod for k in range(h)], zeta[::2], mod)
    sums = [0] * size
    sums[::2] = even
    sums[1::2] = [(mod - v) % mod for v in reversed(even)]
    return sums


@lru_cache(maxsize=CACHE_SIZE)
def frac_gamma_table(p: int, digits: int) -> tuple[int, ...]:
    """Residues of Gamma_p(r/(p-1)) for r = 0..p-2, every entry seeded from the
    Jacobi sums J(wbar^j, wbar).  A p over padic.TABLE_LIMIT is refused before
    anything is allocated.

    The Gauss-sum product rule g(wbar^s) g(wbar) = J_s g(wbar^(s+1)) and
    Gross-Koblitz give Gamma((s+1)/(p-1)) = -Gamma(s/(p-1)) z / J_s for
    z = Gamma(1/(p-1)), and reflection, Gamma(1/(p-1)) Gamma((p-2)/(p-1)) = 1,
    closes the cycle: z is the root of z^(p-1) = prod_(s=1..p-3) J_s with
    z == 1 (mod p).  x -> x^(p-1) is a bijection of the group 1 + pZ mod p^K,
    whose order p^(K-1) is prime to p-1, so z is that product to the power
    (p-1)^-1 mod p^(K-1).  The recursion runs backward from
    Gamma((p-2)/(p-1)) = 1/z, so z is the one inversion.
    """
    check_table_size(p)
    size, mod = p - 1, p ** digits
    jac = jacobi_sums(p, digits)[1:size - 1]  # s = 1..p-3
    if any(v % p == 0 for v in jac):
        raise PadicError("non-unit Jacobi sum: p-1 arithmetic is inconsistent")
    seed_target = 1
    for v in jac:
        seed_target = seed_target * v % mod
    if seed_target % p != 1:
        raise PadicError("Jacobi product not 1 mod p: seeding invariant broken")
    z = pow(seed_target, pow(size, -1, mod // p), mod)
    table = [1] * size
    table[-1] = zinv = pow(z, -1, mod)
    for s in range(size - 2, 0, -1):
        table[s] = mod - table[s + 1] * jac[s - 1] % mod * zinv % mod
    # the recursion returns to Gamma(1/(p-1)) = z only if prod J_s = z^(p-1)
    if table[1] * table[-1] % mod != 1:
        raise PadicError("gamma table failed the reflection closure check")
    half, want = table[size // 2], mod - 1 if (p + 1) // 2 % 2 else 1
    if half * half % mod != want:
        raise PadicError("gamma table failed the half-point reflection check")
    return tuple(table)


def gamma_residues(args, p: int, digits: int) -> dict:
    """{q: residue of Gamma_p(q) mod p^digits} for exact rationals 0 <= q <= 1.

    The one routing rule: q = 1 and arguments whose denominator divides p-1
    come from the seeded table; every other argument is lifted and served from
    one shared sweep.
    """
    mod, table = p ** digits, None
    out, lifts = {}, {}
    for q in set(args):
        num, den = q.numerator, q.denominator  # den > 0
        if not 0 <= num <= den:
            raise ValueError("normalize the argument into [0, 1] first")
        if den % p == 0:
            raise ValueError("argument denominator divisible by p")
        if num == den:  # q = 1
            out[q] = mod - 1
        elif (p - 1) % den == 0:
            table = table or frac_gamma_table(p, digits)
            out[q] = table[num * ((p - 1) // den)]
        else:
            lifts[q] = lift_rational(num, den, p, digits)
    if lifts:
        swept = batch_pgamma_residues(lifts.values(), p, digits)
        out.update((q, swept[m]) for q, m in lifts.items())
    return out
