import math
import random
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


@pytest.mark.parametrize("digits", [1, 5])
@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 43, 61, 97, 211, 257])
def test_chirp_dft_matches_direct_dft(p, digits):
    """chirp_dft at every length m dividing p-1, against the O(m^2) sums: odd m
    (the periodic Bluestein chirp), m = 1 and 2, and p = 257, where m = 256
    splits by radix 2 all the way down to length 1."""
    mod, rng = p ** digits, random.Random(f"{p}:{digits}")
    root = teichmuller(primitive_root(p), p, digits).residue
    for m in (m for m in range(1, p) if (p - 1) % m == 0):
        rho = pow(root, (p - 1) // m, mod)
        powers = [pow(rho, e, mod) for e in range(m)]
        a = [rng.randrange(mod) for _ in range(m)]
        want = [sum(x * pow(rho, e * k, mod) for e, x in enumerate(a)) % mod
                for k in range(m)]
        assert padic.chirp_dft(a, powers, mod) == want, m


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
    product_residue = a.unit.residue * b.unit.residue % p ** digits
    assert product_residue == char_value(j, x * y % p, p, digits).unit.residue
    assert a.unit.residue == char_value(j + (p - 1), x, p, digits).unit.residue


# -- CharSum against exact sums --------------------------------------------------

def exact_char_sum(p, digits, const_terms, char_terms, y):
    """const + sum_e p^v u wbar^e(y) as a Fraction, with the absolute precision
    the sum is known to: digits past the smallest valuation among the terms
    that count at y (every character vanishes at y = 0)."""
    teich = teichmuller_table(p, digits)
    counted = list(const_terms)
    if y % p:
        wbar_y = teich[pow(y, -1, p)]
        counted += [(v, u * pow(wbar_y, e, p ** digits)) for e, v, u in char_terms]
    if not counted:
        return Fraction(0), math.inf
    total = sum(Fraction(p) ** v * u for v, u in counted)
    return total, min(v for v, _ in counted) + digits


def reduce_exact(p, digits, total, prec):
    """(valuation, unit residue, unit precision) of total mod p^prec, or None for
    a zero there; total * p^(digits - prec) is an integer."""
    low = prec - digits
    n = total * Fraction(p) ** -low
    assert n.denominator == 1
    n = n.numerator % p ** digits
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return low + v, n, digits - v


def observed(value):
    if value.is_zero:
        return None
    return value.valuation, value.unit.residue, value.unit.precision


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_field_ops_match_fractions(p, digits, data):
    """CharSum.value(y) is the exact Fraction sum of p^v u wbar^e(y), reduced mod
    p^(v0 + digits) for the smallest valuation v0 among the counted terms, at
    every y of its domain (y = 0 and y^period = 1), by Horner and by the
    transform alike; any other y raises from both."""
    mod = p ** digits
    period = data.draw(st.sampled_from([t for t in range(1, p) if (p - 1) % t == 0]))
    term = st.tuples(st.integers(-3, 3), st.integers(0, mod - 1))
    const_terms = data.draw(st.lists(term, max_size=2))
    char_terms = [(e, v, u) for e, (v, u) in
                  data.draw(st.lists(st.tuples(st.integers(0, period - 1), term), max_size=6))]
    kernel = padic.CharSum(p, digits, const_terms, char_terms, period)
    domain = [y for y in range(p) if y == 0 or pow(y, period, p) == 1]
    every = kernel.values(domain)
    for y in range(p):
        if y not in domain:
            with pytest.raises(ValueError):
                kernel.value(y)
            with pytest.raises(ValueError):
                kernel.values([y])
            continue
        total, prec = exact_char_sum(p, digits, const_terms, char_terms, y)
        got = kernel.value(y)
        assert got == every[y]
        assert got.absolute_precision == prec
        if prec == math.inf:
            assert got.is_zero
        else:
            assert observed(got) == reduce_exact(p, digits, total, prec), (y, total)


def test_period_must_divide_p_minus_one():
    for period in (0, 4, 5):
        with pytest.raises(ValueError):
            padic.CharSum(7, 2, (), (), period)


def test_add_zero_identity():
    # no terms: the exact zero at every y, y = 0 included
    empty = padic.CharSum(5, 6, (), ())
    for y in range(5):
        assert empty.value(y) == ValuedPadic.zero(5)
        assert empty.value(y).absolute_precision == math.inf
    # a constant alone, and a constant at y = 0 where every character vanishes
    twelve = ValuedPadic(5, 0, PadicUnit(12, 5, 6))
    assert padic.CharSum(5, 6, [(0, 12)], ()).value(3) == twelve
    with_chars = padic.CharSum(5, 6, [(0, 12)], [(1, -2, 7), (3, 0, 4)])
    assert with_chars.value(0) == twelve
    assert with_chars.value(2).absolute_precision == 4  # a character term at valuation -2


def test_cancellation_tracks_precision():
    # total cancellation: a zero carrying absolute precision v0 + digits
    z = padic.CharSum(5, 4, [(0, 3), (0, 5 ** 4 - 3)], ()).value(1)
    assert z.is_zero and z.absolute_precision == 4
    # wbar^0(y) + wbar^2(y) vanishes at y = +-2 mod 5 (wbar^2(2) = -1)
    chars = padic.CharSum(5, 4, (), [(0, -1, 1), (2, -1, 1)])
    for y in (2, 3):
        v = chars.value(y)
        assert v.is_zero and v.absolute_precision == 3
    assert chars.value(1) == ValuedPadic(5, -1, PadicUnit(2, 5, 4))


def test_addition_precision_alignment():
    # terms at valuations 0 and 2: the sum is known to the smaller one plus digits
    c = padic.CharSum(5, 2, [(0, 2), (2, 1)], ()).value(1)
    assert c.absolute_precision == 2
    assert c == ValuedPadic(5, 0, PadicUnit(2, 5, 2))
    # cancellation in the low digits leaves a deeper valuation with fewer digits
    d = padic.CharSum(5, 3, [(0, 1), (0, 4)], ()).value(1)
    assert d == ValuedPadic(5, 1, PadicUnit(1, 5, 2)) and d.absolute_precision == 3
    # a shallow zero term swallows a deeper-valuation term entirely
    z = padic.CharSum(5, 2, [(0, 0), (3, 4)], ()).value(1)
    assert z.is_zero and z.absolute_precision == 2


def test_digit_request_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        ValuedPadic(5, 0, PadicUnit(2, 5, 2)).residue_mod(5)


# -- reconstruction --------------------------------------------------------------

def test_reconstruct_exact_zero():
    assert reconstruct_integer(ValuedPadic.zero(7), 1000) == 0


def test_reconstruct_direct_representative():
    x = ValuedPadic(7, 0, PadicUnit(57, 7, 4))
    assert reconstruct_integer(x, 100) == 57


def test_reconstruct_errors():
    with pytest.raises(NotAnIntegerError):
        reconstruct_integer(ValuedPadic(7, -1, PadicUnit(3, 7, 4)), 100)
    with pytest.raises(PrecisionError):
        reconstruct_integer(ValuedPadic(7, 0, PadicUnit(5, 7, 2)), 1000)  # 7^2 < 1000
    with pytest.raises(RangeError):
        reconstruct_integer(ValuedPadic(7, 0, PadicUnit(2000, 7, 4)), 100)


def test_is_odd_prime():
    assert all(padic.is_odd_prime(p) for p in (3, 5, 7, 31, 97, 101))
    assert not any(padic.is_odd_prime(v) for v in (1, 2, 4, 9, 15, 91, 561))


def test_reconstruct_residue_matches_reconstruct_integer():
    # the integer path behind reconstruct_integer: same results, same refusals
    assert padic.reconstruct_residue(7, 4, 57, 100) == 57
    assert padic.reconstruct_residue(7, math.inf, 0, 1000) == 0
    with pytest.raises(PrecisionError, match="7\\^2 does not exceed the bound 1000"):
        padic.reconstruct_residue(7, 2, 5, 1000)
    with pytest.raises(RangeError, match="in \\[0, 100\\]"):
        padic.reconstruct_residue(7, 4, 2000, 100)
    for x in (ValuedPadic(7, 1, PadicUnit(3, 7, 3)), ValuedPadic.zero(7, 4)):
        assert reconstruct_integer(x, 2400) == padic.reconstruct_residue(
            7, 4, x.residue_mod(4), 2400)


# -- the table limit -------------------------------------------------------------

def test_default_table_limit_admits_the_documented_primes():
    # the README and CI primes, the scale bench's largest and ROADMAP item 4's
    assert all(p <= padic.TABLE_LIMIT for p in (1009, 1021, 10007, 10009, 30011, 100003))
    assert padic.TABLE_LIMIT < 300007  # the smallest prime above it, which CI refuses


def test_tables_over_the_limit_are_refused_before_allocating(monkeypatch):
    from dworkcount.pgamma import frac_gamma_table
    monkeypatch.setattr(padic, "TABLE_LIMIT", 100)  # read at call time
    for table in (teichmuller_table, frac_gamma_table):
        with pytest.raises(padic.TableLimitError) as err:
            table.__wrapped__(101, 3)  # past the cache: the guard is in the build
        assert isinstance(err.value, padic.PadicError)
        assert all(part in str(err.value) for part in ("p = 101", "limit of 100",
                                                       "use a prime p <= 100"))
    assert len(teichmuller_table.__wrapped__(97, 3)) == 97
