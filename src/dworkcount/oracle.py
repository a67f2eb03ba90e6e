"""Ground truth: exhaustive point counting on the projective Dwork hypersurface,
and the sweep harness comparing every applicable formula against it.

The oracle is deliberately dumb.  It enumerates projective representatives
(first nonzero coordinate scaled to 1) chart by chart and evaluates the
defining polynomial with precomputed n-th power and inverse tables; it shares
nothing with the p-adic formula paths beyond integer arithmetic mod p.
brute_count evaluates one lambda tuple by tuple and is the reference;
brute_count_all visits the same points once for every lambda, with the
per-tuple sum and product hoisted out of its innermost loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from math import gcd

from . import dwork

# Most projective points (p^n - 1)/(p - 1) that `count` lets the oracle
# enumerate, about 7 s in CPython; larger instances are refused with advice,
# as pgamma.SWEEP_LIMIT refuses long lift sweeps.
ORACLE_LIMIT = 10_000_000


def brute_count(p: int, n: int, lam: int) -> int:
    """Points of x_1^n + ... + x_n^n - n*lam*x_1...x_n = 0 in P^(n-1)(F_p).

    Total: works for lam = 0 and even p | n.
    """
    lam %= p
    pw = [pow(x, n, p) for x in range(p)]
    nl = n * lam % p
    count = 0
    # chart k: coordinates (0,...,0, 1, x_{k+2}, ..., x_n); the monomial term
    # survives only in the first chart, where no coordinate is forced to zero
    for k in range(n):
        free = n - 1 - k
        for tail in product(range(p), repeat=free):
            total = 1
            for x in tail:
                total += pw[x]
            if k == 0:
                prod_term = 1
                for x in tail:
                    prod_term = prod_term * x % p
                total -= nl * prod_term
            if total % p == 0:
                count += 1
    return count


def brute_count_all(p: int, n: int) -> dict[int, int]:
    """brute_count for every lambda in one enumeration pass.

    Each affine tuple with nonzero n prod x_i solves the equation for exactly
    one lambda, (1 + sum x_i^n) / (n prod x_i); the other tuples (and every
    tuple in the charts with a forced zero) count for all lambda at once.
    Chart 0 runs its first n-2 free coordinates as a head carrying
    s = 1 + sum x_i^n and q = n prod x_i mod p, and its last coordinate x as an
    inner loop through one inverse table; a head with q = 0 (every head when
    p | n) counts its x at once by how many x have x^n = -s.  Every other tuple
    is visited one by one, and extra memory stays O(p).
    """
    pw = [pow(x, n, p) for x in range(p)]
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    roots = [0] * p  # roots[r] = #{x : x^n = r}
    for r in pw:
        roots[r] += 1
    counts = [0] * p
    every_lam = 0
    nonzero = range(1, p)
    for head in product(range(p), repeat=n - 2):
        s, q = 1, n
        for x in head:
            s += pw[x]
            q = q * x % p
        s %= p
        if q:
            c = inv[q]
            for x in nonzero:
                counts[(s + pw[x]) * inv[x] * c % p] += 1
            every_lam += s == 0  # x = 0
        else:  # also every head when p | n
            every_lam += roots[-s % p]
    for k in range(1, n):
        for tail in product(range(p), repeat=n - 1 - k):
            total = 1
            for x in tail:
                total += pw[x]
            if total % p == 0:
                every_lam += 1
    return {lam: c + every_lam for lam, c in enumerate(counts)}


@dataclass
class CountReport:
    """Per-instance comparison of the oracle and every applicable formula."""

    p: int
    n: int
    lam: int
    d: int
    methods: dict[str, int]
    agreement: bool
    timings_ms: dict[str, float] = field(default_factory=dict)


def _applicable_methods(p: int, n: int, lam: int) -> list[str]:
    methods = ["oracle", "koblitz"]
    if lam % p != 0:
        methods.append("main")
        if gcd(p - 1, n) == 1:
            methods.append("relprime")
        if (p - 1) % n == 0:
            methods.append("ff")
    return methods


_COUNTERS = {
    "main": dwork.count_main,
    "koblitz": dwork.count_koblitz,
    "relprime": dwork.count_relprime,
    "ff": dwork.count_ff,
}


def verify_group(p: int, n: int, lams: list[int], kt: int | None = None) -> list[CountReport]:
    """CountReports for one (p, n) over the given lambdas (oracle pass shared)."""
    t0 = time.perf_counter()
    oracle_all = brute_count_all(p, n)
    oracle_ms = (time.perf_counter() - t0) * 1000 / max(len(lams), 1)
    d = gcd(p - 1, n)
    reports = []
    for lam in lams:
        lam %= p
        methods = {"oracle": oracle_all[lam]}
        timings = {"oracle": round(oracle_ms, 3)}
        for name in _applicable_methods(p, n, lam):
            if name == "oracle":
                continue
            t0 = time.perf_counter()
            methods[name] = _COUNTERS[name](p, n, lam, kt)
            timings[name] = round((time.perf_counter() - t0) * 1000, 3)
        agreement = len(set(methods.values())) == 1
        reports.append(CountReport(p, n, lam, d, methods, agreement, timings))
    return reports


def sample_size(policy: str) -> int | None:
    """The k of the lambda policy "sample:k", or None for "all"; ValueError otherwise."""
    if policy == "all":
        return None
    if policy.startswith("sample:"):
        text = policy.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            k = 0
        if k <= 0:
            raise ValueError(f"sample size must be a positive integer, got {text!r}")
        return k
    raise ValueError(f'unknown lambda policy {policy!r}: use "all" or "sample:k"')


def _lambda_set(p: int, policy: str) -> list[int]:
    k = sample_size(policy)
    if k is None:
        return list(range(p))
    step = max((p - 1) // k, 1)
    return sorted({0} | {1 + i * step for i in range(k) if 1 + i * step < p})


def _odd_primes_upto(bound: int) -> list[int]:
    return [q for q in range(3, bound + 1) if dwork.is_odd_prime(q)]


def sweep_verify(p_max: int, n_set, lambda_policy: str = "all",
                 jobs: int = 1, kt: int | None = None) -> list[CountReport]:
    """Run the oracle and every applicable formula over the grid; deterministic
    report order (p, n, lambda) regardless of parallelism."""
    groups = [(p, n, _lambda_set(p, lambda_policy), kt)
              for p in _odd_primes_upto(p_max)
              for n in sorted(n_set) if n % p]
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            chunks = list(pool.map(_verify_group_star, groups))
    else:
        chunks = [_verify_group_star(g) for g in groups]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.p, r.n, r.lam))
    return reports


def _verify_group_star(args):
    return verify_group(*args)
