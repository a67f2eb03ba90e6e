from itertools import product
from math import gcd

import pytest

from conftest import PRIMES_TO_31

from dworkcount import oracle


def fullspace_count(p, n, lam):
    """Independent cross-check: all nonzero affine solutions, divided by p-1."""
    lam %= p
    hits = 0
    for xs in product(range(p), repeat=n):
        if not any(xs):
            continue
        total = sum(pow(x, n, p) for x in xs)
        prod_term = 1
        for x in xs:
            prod_term = prod_term * x % p
        if (total - n * lam * prod_term) % p == 0:
            hits += 1
    assert hits % (p - 1) == 0
    return hits // (p - 1)


def test_hand_checked_values():
    assert oracle.brute_count(3, 2, 1) == 1     # (x-y)^2: the single point [1:1]
    assert oracle.brute_count(5, 2, 0) == 2     # -1 = 2^2 mod 5: [2:1] and [3:1]
    assert oracle.brute_count(5, 2, 2) == 0     # lambda^2 - 1 = 3 is a non-square


def test_projective_well_definedness():
    for p in (3, 5):
        for n in (2, 3):
            for lam in range(p):
                assert oracle.brute_count(p, n, lam) == fullspace_count(p, n, lam)


def test_direct_enumeration_5_3_2():
    assert oracle.brute_count(5, 3, 2) == fullspace_count(5, 3, 2)


def test_count_bounded_by_projective_space():
    for p in (3, 5, 7):
        for n in (2, 3, 4):
            bound = (p ** n - 1) // (p - 1)
            for lam in range(p):
                assert 0 <= oracle.brute_count(p, n, lam) <= bound


def test_all_lambda_histogram_matches_pointwise():
    cases = [(p, n) for p in (3, 5, 7, 11) for n in (2, 3, 4)]
    cases += [(3, 5), (5, 5), (7, 5), (7, 6), (3, 3), (3, 6)]  # (3, 3), (3, 6), (5, 5): p | n
    for p, n in cases:
        hist = oracle.brute_count_all(p, n)
        assert set(hist) == set(range(p))
        for lam in range(p):
            assert hist[lam] == oracle.brute_count(p, n, lam), (p, n, lam)


def plain_brute_count_all(p, n):
    """The all-lambda histogram by plain enumeration, with a per-tuple sum,
    product and inversion in every chart: the reference for brute_count_all."""
    pw = [pow(x, n, p) for x in range(p)]
    counts = dict.fromkeys(range(p), 0)
    every_lam = 0
    n_inv = pow(n % p, -1, p) if n % p else None
    for k in range(n):
        for tail in product(range(p), repeat=n - 1 - k):
            total = 1
            for x in tail:
                total += pw[x]
            total %= p
            prod_term = 0
            if k == 0:
                prod_term = 1
                for x in tail:
                    prod_term = prod_term * x % p
            if prod_term and n_inv is not None:
                counts[total * pow(prod_term, -1, p) * n_inv % p] += 1
            elif total == 0:
                every_lam += 1
    return {lam: c + every_lam for lam, c in counts.items()}


def test_hoisted_histogram_matches_plain_enumeration():
    cases = [(p, n) for p in PRIMES_TO_31 for n in (2, 3, 4)]
    cases += [(p, 5) for p in (3, 5, 7, 11, 13)]  # (5, 5): p | n
    cases += [(7, 6), (13, 6), (3, 3), (3, 6)]
    for p, n in cases:
        assert oracle.brute_count_all(p, n) == plain_brute_count_all(p, n), (p, n)


def test_histogram_handles_p_dividing_n():
    # the oracle stays total even where the formulas refuse
    hist = oracle.brute_count_all(3, 3)
    for lam in range(3):
        assert hist[lam] == oracle.brute_count(3, 3, lam)
    assert len(set(hist.values())) == 1  # the deformation term vanishes identically


def test_sweep_verify_applicability_and_agreement():
    reports = oracle.sweep_verify(7, [2, 3], "all")
    assert all(r.agreement for r in reports)
    keys = [(r.p, r.n, r.lam) for r in reports]
    assert keys == sorted(keys)
    for r in reports:
        assert "oracle" in r.methods and "koblitz" in r.methods
        assert ("main" in r.methods) == (r.lam != 0)
        assert ("relprime" in r.methods) == (r.lam != 0 and gcd(r.p - 1, r.n) == 1)
        assert ("ff" in r.methods) == (r.lam != 0 and (r.p - 1) % r.n == 0)
        assert r.d == gcd(r.p - 1, r.n)
        assert set(r.timings_ms) == set(r.methods)


def test_verify_group_reuses_main_counts_for_relprime(monkeypatch):
    calls = []
    count_all = oracle.dwork.count_all

    def recording(name, *args):
        calls.append(name)
        return count_all(name, *args)

    monkeypatch.setattr(oracle.dwork, "count_all", recording)
    p, n = 11, 3  # d = gcd(10, 3) = 1
    reports = oracle.verify_group(p, n, list(range(p)))
    assert sorted(calls) == ["koblitz", "main"]
    for r in reports[1:]:
        assert r.methods["relprime"] == oracle.dwork.count_relprime(p, n, r.lam)
    assert all(r.agreement for r in reports)


def test_sweep_verify_skips_p_dividing_n():
    reports = oracle.sweep_verify(5, [3, 5], "all")
    assert not any(r.p == 3 and r.n == 3 for r in reports)
    assert not any(r.p == 5 and r.n == 5 for r in reports)


def test_lambda_sampling_policy():
    reports = oracle.sweep_verify(7, [2], "sample:3")
    for p in (3, 5, 7):
        lams = sorted(r.lam for r in reports if r.p == p)
        assert lams[0] == 0
        assert len(lams) <= 4
        assert len(set(lams)) == len(lams)
    with pytest.raises(ValueError):
        oracle.sweep_verify(5, [2], "sample:0")
    with pytest.raises(ValueError):
        oracle.sweep_verify(5, [2], "bogus")


def test_the_budget_is_checked_before_any_lambda_list_is_built(monkeypatch):
    """sweep_verify sizes its grid from the (p, n) pairs alone: over the
    oracle limit it refuses, naming the total and the largest group, before
    any group's lambda list (p entries at "all") is built; a malformed policy
    is still refused first."""
    def unbuilt(*args):
        raise AssertionError("a lambda list was built before the budget check")

    monkeypatch.setattr(oracle, "_lambda_set", unbuilt)
    with pytest.raises(ValueError) as refusal:
        oracle.sweep_verify(100000, [4], "all")
    assert "enumerate 2220348897885636684 points over the grid" in str(refusal.value)
    assert "999740022599344 of them at p=99991, n=4" in str(refusal.value)
    with pytest.raises(ValueError, match="unknown lambda policy"):
        oracle.sweep_verify(100000, [4], "bogus")


def test_parallel_sweep_matches_serial():
    serial = oracle.sweep_verify(7, [2, 3], "all", jobs=1)
    parallel = oracle.sweep_verify(7, [2, 3], "all", jobs=3)
    assert [(r.p, r.n, r.lam, r.methods, r.agreement) for r in serial] == \
        [(r.p, r.n, r.lam, r.methods, r.agreement) for r in parallel]
