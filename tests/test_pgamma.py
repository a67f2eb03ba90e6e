import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRIMES, PRIMES_TO_31
from dworkcount import pgamma
from dworkcount.padic import teichmuller_table
from dworkcount.pgamma import (SweepLimitError, batch_pgamma, frac_gamma_table,
                               gamma_of_fraction, lift_frac, lift_rational,
                               pgamma_frac, pgamma_int)


def test_pgamma_int_base_values():
    for p in SMALL_PRIMES:
        digits = 5
        mod = p ** digits
        assert pgamma_int(0, p, digits).residue == 1
        assert pgamma_int(1, p, digits).residue == mod - 1
        assert pgamma_int(2, p, digits).residue == 1


def test_pgamma_int_at_p_is_wilson_factorial():
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        got = pgamma_int(p, p, digits).residue
        assert got == (-math.factorial(p - 1)) % mod
        assert got % p == 1  # Wilson: (p-1)! == -1 (mod p)


def test_pgamma_int_range_check():
    with pytest.raises(ValueError):
        pgamma_int(7 ** 3, 7, 3)


def test_lift_frac_examples():
    assert lift_frac(0, 7, 3) == 0
    assert lift_frac(7 - 1, 7, 3) == 1
    assert lift_frac(1, 7, 2) == 41
    assert 6 * 41 % 49 == 1


def test_pgamma_frac_base_and_one():
    for p in SMALL_PRIMES:
        assert pgamma_frac(0, p, 4).residue == 1
        assert pgamma_frac(p - 1, p, 4).residue == p ** 4 - 1  # Gamma_p(1) = -1


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_frac_table_matches_definitional_sweep(p):
    digits = 3
    table = frac_gamma_table(p, digits)
    for r in range(p - 1):
        assert table[r] == pgamma_int(lift_frac(r, p, digits), p, digits).residue


def test_frac_table_matches_sweep_deeper():
    p, digits = 7, 6
    table = frac_gamma_table(p, digits)
    for r in range(p - 1):
        assert table[r] == pgamma_int(lift_frac(r, p, digits), p, digits).residue


def test_half_point_reflection():
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        half = pgamma_frac((p - 1) // 2, p, digits).residue
        want = (-1) ** ((p + 1) // 2) % mod
        assert half * half % mod == want


def test_pgamma_frac_precision_consistency():
    for p in (5, 7):
        for r in range(p):
            lo = pgamma_frac(r, p, 4).residue
            hi = pgamma_frac(r, p, 6).residue
            assert hi % p ** 4 == lo


def test_batch_matches_single_calls():
    p, digits = 11, 3
    assert [u.residue for u in batch_pgamma([0], p, digits)] == [1]
    assert [u.residue for u in batch_pgamma([0, 1, 2], p, digits)] == \
        [1, 11 ** 3 - 1, 1]
    lifts = sorted({lift_frac(r, p, digits) for r in range(p - 1)}
                   | {lift_rational(h, 3, p, digits) for h in range(3)})
    batched = batch_pgamma(lifts, p, digits)
    for m, unit in zip(lifts, batched):
        assert unit.residue == pgamma_int(m, p, digits).residue


def test_all_values_are_units():
    for p in SMALL_PRIMES:
        for r, res in enumerate(frac_gamma_table(p, 4)):
            assert res % p != 0, (p, r)


def test_reflection_formula_small():
    # full p <= 97 breadth lives in the acceptance suite
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        for r in range(p):
            left = gamma_of_fraction(Fraction(r, p - 1), p, digits)
            right = gamma_of_fraction(Fraction(p - 1 - r, p - 1), p, digits)
            x0 = p - (r % p) if r % p else p
            assert left * right % mod == (-1) ** x0 % mod


def test_multiplication_formula_spot():
    p, m, digits = 7, 3, 3
    mod = p ** digits
    teich = teichmuller_table(p, digits)
    consts = 1
    for h in range(1, m):
        consts = consts * gamma_of_fraction(Fraction(h, m), p, digits) % mod
    for r in range(p):
        x = Fraction(r, p - 1)
        lhs = 1
        for h in range(m):
            lhs = lhs * gamma_of_fraction((x + h) / m, p, digits) % mod
        omega = pow(teich[m % p], (r + 1 - p) % (p - 1), mod)
        rhs = omega * gamma_of_fraction(x, p, digits) % mod * consts % mod
        assert lhs == rhs, r


def test_sweep_limit_refusal():
    with pytest.raises(SweepLimitError):
        pgamma.batch_pgamma_residues([10 ** 7], 101, 5, sweep_limit=10 ** 5)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=40, deadline=None)
def test_gamma_of_fraction_agrees_with_lift_path(p, data):
    digits = 3
    r = data.draw(st.integers(0, p - 2))
    q = Fraction(r, p - 1)
    via_table = gamma_of_fraction(q, p, digits)
    m = lift_rational(q.numerator, q.denominator, p, digits)
    assert via_table == pgamma_int(m, p, digits).residue
