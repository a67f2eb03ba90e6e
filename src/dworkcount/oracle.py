"""Ground truth: exhaustive point counting on the projective Dwork hypersurface,
and the sweep harness comparing every applicable formula against it.

The oracle is deliberately dumb.  It enumerates projective representatives
(first nonzero coordinate scaled to 1) chart by chart and evaluates the
defining polynomial with precomputed n-th power and inverse tables; it shares
nothing with the p-adic formula paths beyond integer arithmetic mod p.
brute_count evaluates one lambda tuple by tuple and is the reference; it
refuses an instance over ORACLE_LIMIT points before enumerating any.
brute_count_all counts every lambda at once, running the last coordinate of
the first chart once per distinct (power sum, product) of the others and
counting the lambda-free charts from the same tally.

verify_group checks one (p, n) over a set of lambdas: the oracle and each
method in dwork.applicable (through dwork.count_all, one transform per kernel)
run once for the whole group, and every report picks out its lambda.
relprime is the main kernel at d = 1, so its column reuses main's counts.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from itertools import product
from math import gcd

from . import dwork

# Most projective points (p^n - 1)/(p - 1) that brute_count and `verify` let
# the oracle enumerate, about 7 s of brute_count in CPython; larger instances
# are refused with advice, as pgamma.SWEEP_LIMIT refuses long lift sweeps.
ORACLE_LIMIT = 10_000_000


def brute_count(p: int, n: int, lam: int) -> int:
    """Points of x_1^n + ... + x_n^n - n*lam*x_1...x_n = 0 in P^(n-1)(F_p).

    Total: works for lam = 0 and even p | n.  Over ORACLE_LIMIT points (read
    at call time) it raises dwork.InstanceError before enumerating any.
    """
    points = (p ** n - 1) // (p - 1)
    if points > ORACLE_LIMIT:
        raise dwork.InstanceError(
            f"the oracle would enumerate {points} points, over its limit of "
            f"{ORACLE_LIMIT}; use --method main or koblitz, or a smaller p or n")
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
    Chart 0 splits a tuple into a head, its first n-2 free coordinates, and a
    last coordinate x.  A head enters only through s = 1 + sum x_i^n and
    q = n prod x_i mod p, so the heads are tallied by (s, q), and x runs once
    per distinct (s, q), weighted by its number of heads: an inner loop through
    one inverse table, or, when q = 0 (every head when p | n), a count of the
    x with x^n = -s.  The charts k >= 1 are lambda-free and are counted from
    the same tally: at each head length L = 0..n-2, the heads with s = 0 are
    the points of the chart with L free coordinates.  Extra memory is O(p^2).
    """
    pw = [pow(x, n, p) for x in range(p)]
    inv = [0] + [pow(x, -1, p) for x in range(1, p)]
    roots = [0] * p  # roots[r] = #{x : x^n = r}
    for r in pw:
        roots[r] += 1
    heads = Counter({(1, n % p): 1})
    every_lam = 0
    for length in range(n - 1):
        if length:
            grown = Counter()
            for (s, q), m in heads.items():
                for x in range(p):
                    grown[(s + pw[x]) % p, q * x % p] += m
            heads = grown
        # chart n-1-length is (0,...,0, 1, head) with no monomial term: its
        # points are the heads with 1 + sum x^n = 0
        every_lam += sum(m for (s, _), m in heads.items() if s == 0)
    counts = [0] * p
    nonzero = range(1, p)
    for (s, q), m in heads.items():
        if q:
            c = inv[q]
            for x in nonzero:
                counts[(s + pw[x]) * inv[x] * c % p] += m
            if s == 0:  # x = 0
                every_lam += m
        else:
            every_lam += m * roots[-s % p]
    return {lam: c + every_lam for lam, c in enumerate(counts)}


class CountReport(namedtuple("CountReport", "p n lam d methods agreement timings_ms")):
    """Per-instance comparison of the oracle and every applicable formula.

    methods maps each method to its count.  timings_ms holds, per method, the
    wall time of its run over the whole (p, n) group divided by the number of
    the group's lambdas it serves (a fresh empty dict when not given).
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int, lam: int, d: int, methods: dict,
                agreement: bool, timings_ms: dict | None = None):
        return super().__new__(cls, p, n, lam, d, methods, agreement,
                               {} if timings_ms is None else timings_ms)


def verify_group(p: int, n: int, lams: list[int]) -> list[CountReport]:
    """CountReports for one (p, n) over the given lambdas.

    The oracle and each formula method run once for every lambda of the group
    (brute_count_all, dwork.count_all), and each report holds the methods
    whose counts cover its lambda (count_all's coverage is dwork's domain
    rule); a method's timing is its group time over the lambdas it serves.
    """
    lams = [lam % p for lam in lams]
    group, group_ms = {}, {}
    for name in ["oracle", *dwork.applicable(p, n, 1)]:  # lambda = 0 only drops methods
        t0 = time.perf_counter()
        if name == "oracle":
            group[name] = brute_count_all(p, n)
        elif name == "relprime":  # the main kernel at d = 1: its counts are main's
            group[name] = group["main"]
        else:
            group[name] = dwork.count_all(name, p, n)
        group_ms[name] = (time.perf_counter() - t0) * 1000
    served = {name: sum(lam in counts for lam in lams) for name, counts in group.items()}
    d = gcd(p - 1, n)
    reports = []
    for lam in lams:
        methods = {name: counts[lam] for name, counts in group.items() if lam in counts}
        timings = {name: round(group_ms[name] / served[name], 3) for name in methods}
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


def _lambda_set(p: int, k: int | None) -> list[int]:
    if k is None:
        return list(range(p))
    step = max((p - 1) // k, 1)
    return sorted({0} | {1 + i * step for i in range(k) if 1 + i * step < p})


def _odd_primes_upto(bound: int) -> list[int]:
    return [q for q in range(3, bound + 1) if dwork.is_odd_prime(q)]


def sweep_verify(p_max: int, n_set, lambda_policy: str = "all",
                 jobs: int = 1) -> list[CountReport]:
    """Run the oracle and every applicable formula over the grid; deterministic
    report order (p, n, lambda) regardless of parallelism.

    A malformed lambda policy is a ValueError first.  A grid whose groups sum
    to over ORACLE_LIMIT projective points is then refused with a ValueError
    naming the total and the largest group, sized from the (p, n) pairs alone:
    no group's lambda list is built and no group runs.
    """
    k = sample_size(lambda_policy)
    pairs = [(p, n) for p in _odd_primes_upto(p_max) for n in sorted(n_set) if n % p]
    sizes = [((q ** m - 1) // (q - 1), q, m) for q, m in pairs]
    total = sum(points for points, *_ in sizes)
    if total > ORACLE_LIMIT:
        points, p, n = max(sizes)
        raise ValueError(f"the oracle would enumerate {total} points over the grid, "
                         f"{points} of them at p={p}, n={n}, over its limit of "
                         f"{ORACLE_LIMIT}; lower --pmax or drop n={n} from --n-set")
    groups = [(p, n, _lambda_set(p, k)) for p, n in pairs]
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            chunks = list(pool.map(verify_group, *zip(*groups)))
    else:
        chunks = [verify_group(*g) for g in groups]
    reports = [r for chunk in chunks for r in chunk]
    reports.sort(key=lambda r: (r.p, r.n, r.lam))
    return reports
