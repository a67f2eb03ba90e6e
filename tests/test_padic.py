import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_97, SMALL_PRIMES
from dworkcount import hyperfun, padic
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


# -- CharSum and valued against exact sums ----------------------------------------

def exact_char_sum(p, digits, const, coeffs, y):
    """const + sum_e C_e wbar^e(y) as an exact integer (every character
    vanishes at y = 0)."""
    if y % p == 0:
        return const
    wbar_y = teichmuller_table(p, digits)[pow(y, -1, p)]
    return const + sum(c * pow(wbar_y, e, p ** digits) for e, c in enumerate(coeffs))


def exact_valued_sum(p, digits, coeffs, y):
    """sum_j p^v_j u_j wbar^j(y) as a Fraction."""
    wbar_y = teichmuller_table(p, digits)[pow(y, -1, p)]
    return sum(Fraction(p) ** v * u * pow(wbar_y, j, p ** digits)
               for j, (v, u) in enumerate(coeffs))


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


def plain_sum(coeffs, y, p, digits):
    """sum_j p^v_j u_j wbar^j(y) by hyperfun's fold: units times 1 - p cancel
    its -1/(p-1)."""
    return hyperfun._character_sum([(v, u * (1 - p)) for v, u in coeffs], y, p, digits)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_field_ops_match_fractions(p, digits, data):
    """CharSum.residue(y) is the exact sum const + sum_e C_e wbar^e(y) mod
    p^digits at every y of its domain (y = 0 and y^period = 1), by Horner and
    by the transform alike, and any other y raises from both; valued(p, v, r,
    digits) is p^v r to absolute precision v + digits.  hyperfun's fold of
    terms p^v u wbar^j(y) is their exact Fraction sum reduced mod
    p^(v0 + digits), v0 the smallest valuation."""
    mod = p ** digits
    period = data.draw(st.sampled_from([t for t in range(1, p) if (p - 1) % t == 0]))
    const = data.draw(st.integers(0, mod - 1))
    coeffs = data.draw(st.lists(st.integers(0, mod - 1), min_size=period, max_size=period))
    v = data.draw(st.integers(-3, 3))
    kernel = padic.CharSum(p, digits, const, coeffs)
    assert kernel.period == period
    domain = [y for y in range(p) if y == 0 or pow(y, period, p) == 1]
    every = kernel.residues(domain)
    for y in range(p):
        if y not in domain:
            with pytest.raises(ValueError):
                kernel.residue(y)
            with pytest.raises(ValueError):
                kernel.residues([y])
            continue
        r = kernel.residue(y)
        assert r == every[y] == exact_char_sum(p, digits, const, coeffs, y) % mod
        got = padic.valued(p, v, r, digits)
        assert got.absolute_precision == v + digits
        assert observed(got) == reduce_exact(p, digits, Fraction(p) ** v * r, v + digits)
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, mod - 1)),
                               min_size=p - 1, max_size=p - 1))
    v0 = min(v for v, _ in terms)
    for y in range(1, p):
        got = plain_sum(terms, y, p, digits)
        assert got.absolute_precision == v0 + digits
        assert observed(got) == reduce_exact(p, digits, exact_valued_sum(p, digits, terms, y),
                                             v0 + digits), y


def test_period_must_divide_p_minus_one():
    # the period is the number of coefficients
    for period in (0, 4, 5):
        with pytest.raises(ValueError):
            padic.CharSum(7, 2, 0, [0] * period)
    assert [padic.CharSum(7, 2, 0, [0] * t).period for t in (1, 2, 3, 6)] == [1, 2, 3, 6]


def test_add_zero_identity():
    # zero residues: a zero at every y, y = 0 included, carrying v + digits
    empty = padic.CharSum(5, 6, 0, [0] * 4)
    for y in range(5):
        assert padic.valued(5, -2, empty.residue(y), 6) == ValuedPadic.zero(5, 4)
    assert padic.valued(5, 0, 0, 6).absolute_precision == 6
    # a constant alone, and a constant at y = 0 where every character vanishes
    twelve = ValuedPadic(5, 0, PadicUnit(12, 5, 6))
    assert padic.valued(5, 0, padic.CharSum(5, 6, 12, [0] * 4).residue(3), 6) == twelve
    with_chars = padic.CharSum(5, 6, 12, [0, 7, 0, 4])
    assert padic.valued(5, 0, with_chars.residue(0), 6) == twelve
    # a character term at valuation -2
    assert plain_sum([(0, 0), (-2, 7), (0, 0), (0, 4)], 2, 5, 6).absolute_precision == 4


def test_cancellation_tracks_precision():
    # total cancellation: a zero carrying absolute precision v + digits
    z = padic.valued(5, 0, padic.CharSum(5, 4, 5 ** 4 - 3, [3]).residue(1), 4)
    assert z.is_zero and z.absolute_precision == 4
    # wbar^0(y) + wbar^2(y) vanishes at y = +-2 mod 5 (wbar^2(2) = -1)
    chars = [(-1, 1), (0, 0), (-1, 1), (0, 0)]
    for y in (2, 3):
        v = plain_sum(chars, y, 5, 4)
        assert v.is_zero and v.absolute_precision == 3
    assert plain_sum(chars, 1, 5, 4) == ValuedPadic(5, -1, PadicUnit(2, 5, 4))


def test_addition_precision_alignment():
    # terms at valuations 0 and 2: the sum is known to the smaller one plus digits
    c = plain_sum([(0, 2), (2, 1), (0, 0), (0, 0)], 1, 5, 2)
    assert c.absolute_precision == 2
    assert c == ValuedPadic(5, 0, PadicUnit(2, 5, 2))
    # cancellation in the low digits leaves a deeper valuation with fewer digits
    d = plain_sum([(0, 1), (0, 4), (0, 0), (0, 0)], 1, 5, 3)
    assert d == ValuedPadic(5, 1, PadicUnit(1, 5, 2)) and d.absolute_precision == 3
    # a shallow zero term swallows a deeper-valuation term entirely
    z = plain_sum([(0, 0), (3, 4), (0, 0), (0, 0)], 1, 5, 2)
    assert z.is_zero and z.absolute_precision == 2


def test_valued_padic_equality_and_hash():
    # zeros compare by precision, non-zeros by valuation and unit; equal values
    # hash equal, so they serve as dict and set keys
    cancelled, x = padic.valued(5, -2, 0, 6), padic.valued(5, 1, 30, 4)
    assert cancelled == ValuedPadic.zero(5, 4) and hash(cancelled) == hash(ValuedPadic.zero(5, 4))
    assert cancelled != ValuedPadic.zero(5, 6) and cancelled != ValuedPadic.zero(5)
    assert ValuedPadic.zero(5) == padic.char_value(1, 0, 5, 3)
    same = ValuedPadic(5, 2, PadicUnit(6, 5, 3))  # 5^2 * 6 to absolute precision 5
    assert x == same and hash(x) == hash(same) and x == padic.valued(5, 0, 150, 5)
    assert x != ValuedPadic(5, 1, PadicUnit(6, 5, 3))  # valuation
    assert x != ValuedPadic(5, 2, PadicUnit(6, 5, 4))  # unit precision
    assert x != ValuedPadic(5, 2, PadicUnit(11, 5, 3))  # unit residue
    assert x != ValuedPadic(7, 2, PadicUnit(6, 7, 3)) and x != cancelled
    table = {cancelled: "cancelled", x: "x"}
    assert table[ValuedPadic.zero(5, 4)] == "cancelled" and table[same] == "x"
    assert len({cancelled, ValuedPadic.zero(5, 4), x, same, ValuedPadic.zero(5)}) == 3


def test_valued_padic_repr():
    # an exact zero, a cancellation zero and a non-zero
    values = (ValuedPadic.zero(5), padic.valued(5, -2, 0, 6), padic.valued(5, 1, 30, 4))
    assert [repr(v) for v in values] == ["0", "O(5^4)", "5^2 * (6 + O(5^3))"]


def test_digit_request_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        ValuedPadic(5, 0, PadicUnit(2, 5, 2)).residue_mod(5)


# -- reconstruction --------------------------------------------------------------

def test_reconstruct_exact_zero():
    assert reconstruct_integer(ValuedPadic.zero(7), 1000) == 0  # exact: no precision check
    assert reconstruct_integer(ValuedPadic.zero(7, 4), 2400) == 0


def test_reconstruct_direct_representative():
    x = ValuedPadic(7, 0, PadicUnit(57, 7, 4))
    assert reconstruct_integer(x, 100) == 57
    assert reconstruct_integer(ValuedPadic(7, 1, PadicUnit(3, 7, 3)), 2400) == 21


def test_reconstruct_errors():
    with pytest.raises(NotAnIntegerError):
        reconstruct_integer(ValuedPadic(7, -1, PadicUnit(3, 7, 4)), 100)
    with pytest.raises(PrecisionError, match="7\\^2 does not exceed the bound 1000"):
        reconstruct_integer(ValuedPadic(7, 0, PadicUnit(5, 7, 2)), 1000)  # 7^2 < 1000
    with pytest.raises(RangeError, match="in \\[0, 100\\]"):
        reconstruct_integer(ValuedPadic(7, 0, PadicUnit(2000, 7, 4)), 100)


def test_is_odd_prime():
    assert all(padic.is_odd_prime(p) for p in (3, 5, 7, 31, 97, 101))
    assert not any(padic.is_odd_prime(v) for v in (1, 2, 4, 9, 15, 91, 561))


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
