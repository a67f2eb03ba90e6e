from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_97, SMALL_PRIMES
from dworkcount import padic
from dworkcount.padic import (NotAnIntegerError, PadicUnit, PrecisionError,
                              RangeError, ValuedPadic, batch_inverse, char_value,
                              primitive_root, reconstruct_integer, teichmuller,
                              teichmuller_table)


def hensel_teichmuller(x, p, digits):
    """Independent route: iterate t -> t^p, which converges to the lift."""
    t = x % p
    mod = p ** digits
    for _ in range(digits + 1):
        t = pow(t, p, mod)
    return t


def test_teichmuller_of_one():
    for p in SMALL_PRIMES:
        assert teichmuller(1, p, 5).residue == 1


def test_teichmuller_of_minus_one():
    for p in SMALL_PRIMES:
        assert teichmuller(p - 1, p, 5).residue == p ** 5 - 1


def test_teichmuller_2_7_3_root_of_unity():
    t = teichmuller(2, 7, 3)
    assert t.residue == pow(2, 7 ** 2, 7 ** 3)
    assert pow(t.residue, 6, 7 ** 3) == 1
    assert t.residue % 7 == 2


def test_teichmuller_zero_rejected():
    with pytest.raises(ValueError):
        teichmuller(0, 7, 3)
    with pytest.raises(ValueError):
        teichmuller(14, 7, 3)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_teichmuller_properties_all_x(p):
    digits = 4
    mod = p ** digits
    for x in range(1, p):
        t = teichmuller(x, p, digits).residue
        assert t % p == x
        assert pow(t, p - 1, mod) == 1
        assert t == hensel_teichmuller(x, p, digits)


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_teichmuller_table_matches_closed_form(p):
    g = primitive_root(p)
    assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1
    assert all(len({pow(h, k, p) for k in range(p - 1)}) < p - 1 for h in range(2, g))
    for digits in (1, 6):
        table = teichmuller_table(p, digits)
        assert len(table) == p and table[0] == 0
        for x in range(1, p):
            assert table[x] == teichmuller(x, p, digits).residue, (x, digits)


def test_batch_inverse_matches_single_inversions():
    mod = 7 ** 4
    values = [1, 2, 3, 48, 2400, 7 ** 4 - 2]
    assert batch_inverse(values, mod) == [pow(v, -1, mod) for v in values]
    assert batch_inverse([], mod) == []


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_teichmuller_multiplicative(p, data):
    x = data.draw(st.integers(1, p - 1))
    y = data.draw(st.integers(1, p - 1))
    digits = 5
    mod = p ** digits
    tx = teichmuller(x, p, digits).residue
    ty = teichmuller(y, p, digits).residue
    assert tx * ty % mod == teichmuller(x * y % p, p, digits).residue


def test_char_value_examples():
    p, digits = 11, 4
    for j in range(p - 1):
        assert char_value(j, 1, p, digits).unit.residue == 1
        got = char_value(j, p - 1, p, digits)
        want = 1 if j % 2 == 0 else p ** digits - 1
        assert got.unit.residue == want  # wbar^j(-1) = (-1)^j
    assert char_value(5, 0, p, digits).is_zero
    assert char_value(0, 0, p, digits).is_zero  # chi(0) = 0 even for epsilon


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_char_value_homomorphism_and_period(p, data):
    j = data.draw(st.integers(0, 3 * p))
    x = data.draw(st.integers(1, p - 1))
    y = data.draw(st.integers(1, p - 1))
    digits = 4
    a = char_value(j, x, p, digits)
    b = char_value(j, y, p, digits)
    assert (a * b).unit.residue == char_value(j, x * y % p, p, digits).unit.residue
    assert a.unit.residue == char_value(j + (p - 1), x, p, digits).unit.residue


# -- ValuedPadic arithmetic ----------------------------------------------------

def test_add_zero_identity():
    a = ValuedPadic.from_int(12, 5, 6)
    assert a + ValuedPadic.zero(5) == a


def test_mul_inverse():
    a = ValuedPadic.from_fraction(Fraction(7, 3), 5, 6)
    one = a * a.inv()
    assert one.valuation == 0 and one.unit.residue == 1


def test_valuation_additivity():
    u = ValuedPadic(7, 1, PadicUnit(3, 7, 4))
    v = ValuedPadic(7, -1, PadicUnit(5, 7, 4))
    w = u * v
    assert w.valuation == 0 and w.unit.residue == 15


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ValuedPadic.zero(5).inv()


def test_cancellation_tracks_precision():
    a = ValuedPadic.from_int(3, 5, 4)
    z = a + (-a)
    assert z.is_zero and z.absolute_precision == 4


def test_addition_precision_alignment():
    a = ValuedPadic(5, 0, PadicUnit(2, 5, 2))   # known mod 5^2
    b = ValuedPadic(5, 2, PadicUnit(1, 5, 1))   # known mod 5^3, valuation 2
    c = a + b
    assert c.absolute_precision == 2
    # a one-digit operand leaves exactly one significant digit
    d = ValuedPadic(5, 2, PadicUnit(1, 5, 1)) + ValuedPadic(5, 0, PadicUnit(2, 5, 1))
    assert d.valuation == 0 and d.unit.residue == 2 and d.absolute_precision == 1
    # a shallow zero swallows a deeper-valuation value entirely
    z = ValuedPadic.zero(5, 2) + ValuedPadic(5, 3, PadicUnit(4, 5, 2))
    assert z.is_zero and z.absolute_precision == 2


def test_digit_request_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        ValuedPadic(5, 0, PadicUnit(2, 5, 2)).residue_mod(5)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=80, deadline=None)
def test_field_ops_match_fractions(p, data):
    digits = 7
    def draw_fraction():
        num = data.draw(st.integers(-40, 40))
        den = data.draw(st.integers(1, 40).filter(lambda d: d % p))
        return Fraction(num, den)
    qa, qb = draw_fraction(), draw_fraction()
    a = ValuedPadic.from_fraction(qa, p, digits)
    b = ValuedPadic.from_fraction(qb, p, digits)
    sum_prec = (a + b).absolute_precision
    want = ValuedPadic.from_fraction(qa + qb, p, digits)._truncate(sum_prec)
    assert (a + b) == want
    prod = a * b
    if qa * qb != 0:
        wantp = ValuedPadic.from_fraction(qa * qb, p, digits)._truncate(prod.absolute_precision)
        assert prod == wantp
    else:
        assert prod.is_zero


def test_intpow_matches_repeated_multiplication():
    a = ValuedPadic.from_fraction(Fraction(3, 7), 5, 6)
    cube = a * a * a
    assert (a ** 3)._truncate(cube.absolute_precision) == cube
    inv2 = (a ** -2)
    assert (inv2 * a * a).unit.residue == 1


# -- reconstruction --------------------------------------------------------------

def test_reconstruct_exact_zero():
    assert reconstruct_integer(ValuedPadic.zero(7), 1000) == 0


def test_reconstruct_direct_representative():
    x = ValuedPadic.from_int(57, 7, 4)
    assert reconstruct_integer(x, 100) == 57


def test_reconstruct_errors():
    with pytest.raises(NotAnIntegerError):
        reconstruct_integer(ValuedPadic(7, -1, PadicUnit(3, 7, 4)), 100)
    with pytest.raises(PrecisionError):
        reconstruct_integer(ValuedPadic.from_int(5, 7, 2), 1000)  # 7^2 < 1000
    with pytest.raises(RangeError):
        reconstruct_integer(ValuedPadic.from_int(2000, 7, 4), 100)


def test_is_odd_prime():
    assert all(padic.is_odd_prime(p) for p in (3, 5, 7, 31, 97, 101))
    assert not any(padic.is_odd_prime(v) for v in (1, 2, 4, 9, 15, 91, 561))
