"""Acceptance gate: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py -v`).
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import PRIMES_TO_31, PRIMES_TO_97, kernel_state
from dworkcount import cli, dwork, oracle
from dworkcount.dwork import canonical_classes, count_main, k_target, method_value, orbit
from dworkcount.hyperfun import FParams, GParams, eval_F, eval_G
from dworkcount.padic import char_value, teichmuller_table
from dworkcount.pgamma import batch_pgamma_residues, gamma_residues, lift_rational
from reference import derive_params, gauss_gk, gk_product, jacobi_sum, reference_ff_kernel


def _ok(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def grid_reports():
    return oracle.sweep_verify(31, [2, 3, 4], "all")


@pytest.fixture(scope="module")
def slice_reports():
    return [r for r in oracle.sweep_verify(13, [5], "all") if r.p in (3, 7, 11, 13)]


def test_criterion_1_main_equals_oracle_grid(grid_reports):
    t0 = time.perf_counter()
    checked = 0
    for r in grid_reports:
        if r.lam == 0:
            continue
        assert r.methods["main"] == r.methods["oracle"], (r.p, r.n, r.lam)
        checked += 1
    assert checked > 400
    _ok(1, f"count_main == brute_count on {checked} instances "
           f"(p <= 31, n in 2..4, all lambda != 0); {time.perf_counter()-t0:.1f}s")


def test_criterion_2_main_equals_oracle_n5(slice_reports):
    checked = 0
    for r in slice_reports:
        assert r.n == 5
        if r.lam == 0:
            continue
        assert r.methods["main"] == r.methods["oracle"], (r.p, r.lam)
        checked += 1
    assert {r.p for r in slice_reports} == {3, 7, 11, 13}
    _ok(2, f"n = 5 slice: count_main == brute_count on {checked} instances")


def test_criterion_3_koblitz_equals_oracle(grid_reports, slice_reports):
    lam0 = 0
    for r in grid_reports + slice_reports:
        assert r.methods["koblitz"] == r.methods["oracle"], (r.p, r.n, r.lam)
        lam0 += r.lam == 0
    assert lam0 >= 14  # every (p, n) group contributes its lambda = 0 instance
    _ok(3, f"count_koblitz == brute_count on {len(grid_reports) + len(slice_reports)} "
           f"instances incl. {lam0} with lambda = 0")


def test_criterion_4_specializations(grid_reports, slice_reports):
    rel = ff = 0
    for r in grid_reports + slice_reports:
        if "relprime" in r.methods:
            assert gcd(r.p - 1, r.n) == 1
            assert r.methods["relprime"] == r.methods["main"]
            rel += 1
        if "ff" in r.methods:
            assert (r.p - 1) % r.n == 0
            assert r.methods["ff"] == r.methods["main"]
            ff += 1
    assert rel and ff
    gen_cases = [(13, 4), (13, 3), (11, 5)]
    for p, n in gen_cases:
        kt = k_target(p, n)
        kernel = kernel_state(dwork._kernel("ff", p, n, kt))
        for alpha in (a for a in range(1, p - 1) if gcd(a, p - 1) == 1):
            assert kernel_state(reference_ff_kernel(p, n, kt, alpha)) == kernel, (p, n, alpha)
    _ok(4, f"relprime == main on {rel} d=1 instances, ff == main on {ff} "
           f"p==1(n) instances, the ff kernel equals the per-class reference at every "
           f"generator on {len(gen_cases)} (p, n)")


def test_criterion_5_worked_example_structure():
    # d = 2: one [0,0,0,0] class and three [0,0,1,1] classes
    classes2 = canonical_classes(4, 2)
    assert len(classes2) == 4
    types2 = [{tuple(sorted(v)) for v in orbit(c.wstar, 2) if 0 in v} for c in classes2]
    assert sum((0, 0, 0, 0) in t for t in types2) == 1
    assert sum((0, 0, 1, 1) in t for t in types2) == 3
    # d = 4: 1 + 3 + 12 classes
    classes4 = canonical_classes(4, 4)
    assert len(classes4) == 16
    types4 = [{tuple(sorted(v)) for v in orbit(c.wstar, 4) if 0 in v} for c in classes4]
    assert sum((0, 0, 0, 0) in t for t in types4) == 1
    assert sum((0, 0, 2, 2) in t for t in types4) == 3
    assert sum((0, 0, 1, 3) in t for t in types4) == 12
    # the displayed parameter lists, as multisets of reduced fractions
    F = Fraction
    cases = [
        ((0, 0, 0, 0), 2, [F(1, 2), F(1, 4), F(3, 4)], [F(1), F(1), F(1)]),
        ((0, 0, 1, 1), 2, [F(1, 4), F(3, 4)], [F(1), F(1, 2)]),
        ((0, 0, 0, 0), 4, [F(1, 2), F(1, 4), F(3, 4)], [F(1), F(1), F(1)]),
        ((0, 0, 2, 2), 4, [F(1, 4), F(3, 4)], [F(1), F(1, 2)]),
        ((0, 0, 1, 3), 4, [F(1, 2)], [F(1)]),
    ]
    for w, d, a_want, b_want in cases:
        pd = derive_params(w, 4, d)
        assert sorted(pd.A_w) == sorted(a_want), (w, d)
        assert sorted(pd.B_w) == sorted(b_want), (w, d)
    _ok(5, "n = 4 worked-example class multiplicities (1,3 | 1,3,12) and A_w/B_w lists reproduced")


def test_criterion_6a_gauss_conjugate_identity():
    digits = 4
    for p in PRIMES_TO_97:
        mod = p ** digits
        eps = gauss_gk(0, p, digits)
        unity = gk_product([(eps, 1), (eps, 1)], p, digits)
        assert unity.valuation == 0 and unity.unit.residue == 1
        for j in range(1, p - 1):
            prod = gk_product([(gauss_gk(j, p, digits), 1),
                               (gauss_gk(-j, p, digits), 1)], p, digits)
            assert prod.valuation == 1
            assert prod.unit.residue == char_value(j, p - 1, p, digits).unit.residue
    _ok(6, "(a) g(chi)g(chi-bar) identity for all characters, p <= 97")


def test_criterion_6b_reflection_formula():
    digits = 4
    for p in PRIMES_TO_97:
        mod = p ** digits
        gamma = gamma_residues([Fraction(r, p - 1) for r in range(p)], p, digits)
        for r in range(p):
            left = gamma[Fraction(r, p - 1)]
            right = gamma[Fraction(p - 1 - r, p - 1)]
            x0 = p - (r % p) if r % p else p
            assert left * right % mod == (-1) ** x0 % mod, (p, r)
    _ok(6, "(b) reflection formula for all r in [0, p-1], p <= 97, K_w = 4")


def test_criterion_6c_multiplication_formula():
    digits = 3
    for p in PRIMES_TO_31:
        mod = p ** digits
        teich = teichmuller_table(p, digits)
        for m in (2, 3, 4, 6):
            if m % p == 0:
                continue
            xs = [Fraction(r, p - 1) for r in range(p)]
            gamma = gamma_residues([Fraction(h, m) for h in range(1, m)] + xs
                                   + [(x + h) / m for x in xs for h in range(m)], p, digits)
            consts = 1
            for h in range(1, m):
                consts = consts * gamma[Fraction(h, m)] % mod
            for r, x in enumerate(xs):
                lhs = 1
                for h in range(m):
                    lhs = lhs * gamma[(x + h) / m] % mod
                omega = pow(teich[m % p], (r + 1 - p) % (p - 1), mod)
                rhs = omega * gamma[x] % mod * consts % mod
                assert lhs == rhs, (p, m, r)
    _ok(6, "(c) gamma multiplication formula, m in {2,3,4,6}, p <= 31, all r")


def test_criterion_6d_gamma_shift_lemma():
    # evaluated entirely through integer-lift sweeps: independent of the
    # seeded table the production kernel relies on
    digits = 3
    for p in PRIMES_TO_31:
        mod = p ** digits
        teich = teichmuller_table(p, digits)
        for n in range(2, 7):
            if n % p == 0:
                continue
            args = {Fraction(h, n) for h in range(1, n)}
            for j in range(p - 1):
                args.add(Fraction((-n * j) % (p - 1), p - 1))
                args.update((Fraction(1 + h, n) - Fraction(j, p - 1)) % 1
                            for h in range(n))
            lifts = {q: lift_rational(q.numerator, q.denominator, p, digits)
                     for q in args}
            got = batch_pgamma_residues(lifts.values(), p, digits)
            gam = {q: got[m] for q, m in lifts.items()}
            const = 1
            for h in range(1, n):
                const = const * gam[Fraction(h, n)] % mod
            for j in range(p - 1):
                lhs = gam[Fraction((-n * j) % (p - 1), p - 1)] \
                    * pow(teich[n % p], (-n * j) % (p - 1), mod) % mod * const % mod
                rhs = 1
                for h in range(n):
                    rhs = rhs * gam[(Fraction(1 + h, n) - Fraction(j, p - 1)) % 1] % mod
                assert lhs == rhs, (p, n, j)
    _ok(6, "(d) gamma shift lemma for all j, n in 2..6 with p !| n, p <= 31 (sweep-based)")


def test_criterion_6e_bridge_random_parameters():
    rng = random.Random(20260808)
    digits = 5
    checks = 0
    for p in (5, 7, 11, 13):
        for _ in range(26):
            m = rng.randint(1, 3)
            a = tuple(Fraction(rng.randrange(p - 1), p - 1) for _ in range(m))
            b = tuple(Fraction(rng.randrange(p - 1), p - 1) for _ in range(m))
            t = rng.randrange(1, p)
            gp = GParams(a, b)
            fp = FParams.from_fractions(gp, p)
            assert eval_F(fp, t, p, digits) == eval_G(gp, pow(t, -1, p), p, digits)
            checks += 1
    assert checks >= 100
    _ok(6, f"(e) F == G(1/t) bridge on {checks} random parameter sets")


def test_criterion_6f_jacobi_oracle():
    digits = 4
    pairs = 0
    for p in PRIMES_TO_31:
        mod = p ** digits
        for a in range(1, p - 1):
            for b in range(1, p - 1):
                if (a + b) % (p - 1) == 0:
                    continue
                via_gauss = gk_product([(gauss_gk(a, p, digits), 1),
                                        (gauss_gk(b, p, digits), 1),
                                        (gauss_gk(a + b, p, digits), -1)], p, digits)
                # valuation is 1 exactly when the pi-exponents wrap past p-1
                assert via_gauss.valuation == (a + b) // (p - 1), (p, a, b)
                assert via_gauss.residue_mod(digits) == jacobi_sum(a, b, p, digits), \
                    (p, a, b)
                pairs += 1
    _ok(6, f"(f) Jacobi-sum oracle agreement on {pairs} character pairs, p <= 31")


def test_criterion_7_precision_discipline(grid_reports, slice_reports):
    checked = 0
    for r in grid_reports + slice_reports:
        if r.lam == 0:
            continue
        value = method_value("main", r.p, r.n, r.lam)
        assert value.valuation >= 0, (r.p, r.n, r.lam)
        kt = k_target(r.p, r.n)
        assert value.absolute_precision >= kt
        assert count_main(r.p, r.n, r.lam) == r.methods["oracle"]
        assert count_main(r.p, r.n, r.lam, kt + 2) == r.methods["oracle"]
        checked += 1
    _ok(7, f"valuation >= 0, reconstruction at K_target and K_target+2 agree "
           f"on {checked} instances")


def test_criterion_8_verify_determinism(capsys):
    argv = ["verify", "--pmax", "13", "--n-set", "2,3", "--lambda", "all", "--json"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial.encode() == parallel.encode()
    for line in serial.splitlines():
        assert json.loads(line)["agreement"]
    _ok(8, f"serial and --jobs 4 verify reports byte-identical "
           f"({len(serial.splitlines())} JSON lines)")
