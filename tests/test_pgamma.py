import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_31, PRIMES_TO_97, SMALL_PRIMES
from dworkcount import pgamma
from dworkcount.padic import PadicError, teichmuller, teichmuller_table
from dworkcount.pgamma import (SweepLimitError, batch_pgamma_residues, frac_gamma_table,
                               gamma_residues, lift_rational)


def test_pgamma_int_base_values():
    for p in SMALL_PRIMES:
        digits = 5
        mod = p ** digits
        assert batch_pgamma_residues([0], p, digits)[0] == 1
        assert batch_pgamma_residues([1], p, digits)[1] == mod - 1
        assert batch_pgamma_residues([2], p, digits)[2] == 1


def test_pgamma_int_at_p_is_wilson_factorial():
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        got = batch_pgamma_residues([p], p, digits)[p]
        assert got == (-math.factorial(p - 1)) % mod
        assert got % p == 1  # Wilson: (p-1)! == -1 (mod p)


def test_pgamma_int_range_check():
    with pytest.raises(ValueError):
        batch_pgamma_residues([7 ** 3], 7, 3)


def test_lift_frac_examples():
    assert lift_rational(0, 7 - 1, 7, 3) == 0
    assert lift_rational(7 - 1, 7 - 1, 7, 3) == 1
    assert lift_rational(1, 7 - 1, 7, 2) == 41
    assert 6 * 41 % 49 == 1


def test_pgamma_frac_base_and_one():
    for p in SMALL_PRIMES:
        assert frac_gamma_table(p, 4)[0] == 1
        assert gamma_residues([Fraction(1)], p, 4)[1] == p ** 4 - 1  # Gamma_p(1) = -1


def swept_gamma_table(p, digits):
    """Gamma_p(r/(p-1)) for r = 0..p-2 by the definitional sweep over lifts."""
    lifts = [lift_rational(r, p - 1, p, digits) for r in range(p - 1)]
    swept = batch_pgamma_residues(lifts, p, digits)
    return tuple(swept[m] for m in lifts)


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_frac_table_matches_definitional_sweep(p):
    digits = 3
    assert frac_gamma_table(p, digits) == swept_gamma_table(p, digits)


def test_frac_table_matches_sweep_deeper():
    p, digits = 7, 6
    assert frac_gamma_table(p, digits) == swept_gamma_table(p, digits)


def test_half_point_reflection():
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        half = frac_gamma_table(p, digits)[(p - 1) // 2]
        want = (-1) ** ((p + 1) // 2) % mod
        assert half * half % mod == want


def test_pgamma_frac_precision_consistency():
    for p in (5, 7):
        args = [Fraction(r, p - 1) for r in range(p)]
        lo, hi = gamma_residues(args, p, 4), gamma_residues(args, p, 6)
        for q in args:
            assert hi[q] % p ** 4 == lo[q]


def test_batch_matches_single_calls():
    p, digits = 11, 3
    assert batch_pgamma_residues([0], p, digits) == {0: 1}
    assert batch_pgamma_residues([0, 1, 2], p, digits) == {0: 1, 1: 11 ** 3 - 1, 2: 1}
    lifts = sorted({lift_rational(r, p - 1, p, digits) for r in range(p - 1)}
                   | {lift_rational(h, 3, p, digits) for h in range(3)})
    batched = batch_pgamma_residues(lifts, p, digits)
    for m in lifts:
        assert batched[m] == batch_pgamma_residues([m], p, digits)[m]


def test_all_values_are_units():
    for p in SMALL_PRIMES:
        for r, res in enumerate(frac_gamma_table(p, 4)):
            assert res % p != 0, (p, r)


def test_reflection_formula_small():
    # full p <= 97 breadth lives in the acceptance suite
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        gamma = gamma_residues([Fraction(r, p - 1) for r in range(p)], p, digits)
        for r in range(p):
            left = gamma[Fraction(r, p - 1)]
            right = gamma[Fraction(p - 1 - r, p - 1)]
            x0 = p - (r % p) if r % p else p
            assert left * right % mod == (-1) ** x0 % mod


def test_frac_table_reflection_pairs():
    """table[r] * table[p-1-r] == (-1)^(r+1), the identity the backward seeding
    recursion starts from and the main build cancels its denominators by."""
    primes = [q for q in range(3, 400) if all(q % f for f in range(2, math.isqrt(q) + 1))]
    for p in primes:
        for digits in (1, 3, 7):
            table, mod = frac_gamma_table(p, digits), p ** digits
            for r in range(1, p - 1):
                assert table[r] * table[p - 1 - r] % mod == (-1) ** (r + 1) % mod, (p, digits, r)


def test_multiplication_formula_spot():
    p, m, digits = 7, 3, 3
    mod = p ** digits
    teich = teichmuller_table(p, digits)
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
        assert lhs == rhs, r


def test_sweep_memo_holds_one_prime_and_precision():
    warm = batch_pgamma_residues([5, 40], 7, 3)
    assert batch_pgamma_residues([40], 7, 3) == {40: warm[40]}
    assert list(pgamma._sweep_memo) == [(7, 3)]
    batch_pgamma_residues([5, 40], 11, 3)
    assert list(pgamma._sweep_memo) == [(11, 3)]


def test_sweep_limit_refusal(monkeypatch):
    monkeypatch.setattr(pgamma, "SWEEP_LIMIT", 10 ** 5)
    with pytest.raises(SweepLimitError):
        batch_pgamma_residues([10 ** 7], 101, 5)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=40, deadline=None)
def test_gamma_of_fraction_agrees_with_lift_path(p, data):
    digits = 3
    r = data.draw(st.integers(0, p - 2))
    q = Fraction(r, p - 1)
    via_table = gamma_residues([q], p, digits)[q]
    m = lift_rational(q.numerator, q.denominator, p, digits)
    assert via_table == batch_pgamma_residues([m], p, digits)[m]


# -- the transform against the direct character sums ------------------------------

def direct_jacobi_sums(p, digits):
    """J(wbar^j, wbar) for j = 0..p-2 by the O(p^2) sums over x = 2..p-1, with
    each Teichmuller lift from the closed form."""
    mod = p ** digits
    xs = range(2, p)  # x = 0 and x = 1 add nothing: chi(0) = 0 for every chi
    bases = [teichmuller(pow(x, -1, p), p, digits).residue for x in xs]
    running = [teichmuller(pow(1 - x, -1, p), p, digits).residue for x in xs]
    sums = []
    for _ in range(p - 1):
        sums.append(sum(running) % mod)
        running = [r * b % mod for r, b in zip(running, bases)]
    return sums


def reference_gamma_table(p, digits):
    """Gamma_p(r/(p-1)) seeded from the direct Jacobi sums, with one modular
    inversion per step of the recursion."""
    mod = p ** digits
    jac = direct_jacobi_sums(p, digits)
    for j in range(1, p - 2):
        if jac[j] % p == 0:
            raise PadicError("non-unit Jacobi sum")
    seed_target = 1
    for j in range(1, p - 2):
        seed_target = seed_target * jac[j] % mod
    assert seed_target % p == 1
    x, prec = 1, 1
    while prec < digits:
        prec = min(2 * prec, digits)
        m2 = p ** prec
        deriv = (p - 1) * pow(x, p - 2, m2) % m2
        x = (x - (pow(x, p - 1, m2) - seed_target) * pow(deriv, -1, m2)) % m2
    table = [1, x] + [0] * (p - 3)
    for j in range(1, p - 2):
        table[j + 1] = (mod - table[j] * x % mod * pow(jac[j], -1, mod) % mod) % mod
    return tuple(table)


@pytest.mark.parametrize("digits", [1, 7])
@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_jacobi_transform_matches_direct_sums(p, digits):
    # p = 3 and p = 5 run the chirp at its shortest lengths, 2 and 4
    assert pgamma.jacobi_sums(p, digits) == direct_jacobi_sums(p, digits)
    assert frac_gamma_table(p, digits) == reference_gamma_table(p, digits)


def direct_even_jacobi_sums(p, digits):
    """J(wbar^2s, wbar) for s = 0..(p-3)/2 by the O(p^2) sums over x = 2..p-1,
    stepping the first character by wbar^2."""
    mod = p ** digits
    xs = range(2, p)
    bases = [teichmuller(pow(x, -2, p), p, digits).residue for x in xs]
    running = [teichmuller(pow(1 - x, -1, p), p, digits).residue for x in xs]
    sums = []
    for _ in range((p - 1) // 2):
        sums.append(sum(running) % mod)
        running = [r * b % mod for r, b in zip(running, bases)]
    return sums


@pytest.mark.parametrize("digits", [1, 7])
@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_even_jacobi_transform_matches_direct_sums(p, digits):
    """The even entries of jacobi_sums, which come from the one length-(p-1)/2
    transform, against direct sums that never touch an odd power of wbar."""
    assert pgamma.jacobi_sums(p, digits)[::2] == direct_even_jacobi_sums(p, digits)


@pytest.mark.parametrize("digits", [1, 7])
@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_jacobi_sums_reflect(p, digits):
    """J_(p-2-j) = -J_j on the direct sums: the identity that gives
    jacobi_sums its odd entries from one length-(p-1)/2 transform."""
    jac, mod = direct_jacobi_sums(p, digits), p ** digits
    assert all((jac[p - 2 - j] + jac[j]) % mod == 0 for j in range(p - 1))


# -- p == 3 (mod 4) and the duplication formula, which the seeding does not use -----

PRIMES_TO_400 = [q for q in range(3, 400) if all(q % f for f in range(2, math.isqrt(q) + 1))]


@pytest.mark.parametrize("digits", [1, 3])
@pytest.mark.parametrize("p", [q for q in PRIMES_TO_400 if q % 4 == 3 and q < 300])
def test_duplication_seeded_table_matches_reference(p, digits):
    """At p == 3 (mod 4), where h = (p-1)/2 is odd, the seeded table equals the
    reference seeded from the direct sums."""
    assert frac_gamma_table(p, digits) == reference_gamma_table(p, digits)


def test_duplication_identity():
    """Gamma(j/(p-1)) Gamma((j+h)/(p-1)) = w(4)^j Gamma(2j/(p-1)) Gamma(1/2) for
    j < h = (p-1)/2, on both residue classes of p mod 4, with w(4) from the
    closed form."""
    for p in PRIMES_TO_400:
        h = (p - 1) // 2
        for digits in (1, 3, 7):
            table, mod = frac_gamma_table(p, digits), p ** digits
            w4 = teichmuller(4, p, digits).residue
            for j in range(h):
                want = pow(w4, j, mod) * table[2 * j] % mod * table[h] % mod
                assert table[j] * table[j + h] % mod == want, (p, digits, j)
