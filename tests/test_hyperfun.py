import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_97, truncated
from dworkcount.hyperfun import (FParams, GParams, eval_F, eval_G, f_coefficients,
                                 g_coefficients)
from dworkcount.padic import CharSum, valued
from reference import fold, literal_g_coefficients


def random_gparams(rng, p, m, denominators=None):
    def q():
        den = rng.choice(denominators) if denominators else p - 1
        return Fraction(rng.randrange(den), den)
    return GParams(tuple(q() for _ in range(m)), tuple(q() for _ in range(m)))


def test_parameter_order_invariance():
    p, digits = 11, 5
    params = GParams((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
                     (Fraction(1), Fraction(1, 5), Fraction(2, 5)))
    shuffled = GParams((Fraction(3, 4), Fraction(1, 4), Fraction(1, 2)),
                      (Fraction(2, 5), Fraction(1), Fraction(1, 5)))
    for x in (1, 3, 7):
        assert eval_G(params, x, p, digits) == eval_G(shuffled, x, p, digits)


def test_fractional_part_invariance():
    p, digits = 7, 5
    base = GParams((Fraction(1, 2),), (Fraction(1),))
    shifted = GParams((Fraction(3, 2),), (Fraction(1),))
    shifted_b = GParams((Fraction(1, 2),), (Fraction(-2),))
    for x in range(1, p):
        v = eval_G(base, x, p, digits)
        assert v == eval_G(shifted, x, p, digits)
        assert v == eval_G(shifted_b, x, p, digits)


def test_eval_g_at_zero_is_exact_zero():
    v = eval_G(GParams((Fraction(1, 3),), (Fraction(1),)), 0, 7, 4)
    assert v.is_zero and v.absolute_precision == float("inf")
    # returned before any coefficient is built: this one would need a lift
    # sweep far over the limit
    v = eval_G(GParams((Fraction(1, 5),), (Fraction(1),)), 0, 1009, 9)
    assert v.is_zero and v.absolute_precision == float("inf")


def test_eval_f_at_zero_is_exact_zero():
    assert eval_F(FParams((2,), (0,)), 0, 7, 4).is_zero


def test_denominator_divisible_by_p_rejected():
    with pytest.raises(ValueError):
        eval_G(GParams((Fraction(1, 7),), (Fraction(1),)), 1, 7, 4)


def test_empty_parameter_sum():
    # Definition degenerates to -1/(p-1) * sum_j wbar^j(x): -1 at x=1, else 0
    p, digits = 11, 4
    empty = GParams((), ())
    at_one = eval_G(empty, 1, p, digits)
    assert at_one.valuation == 0
    assert at_one.unit.residue == p ** digits - 1
    for x in range(2, p):
        assert eval_G(empty, x, p, digits).is_zero
    assert eval_F(FParams((), ()), 1, p, digits).unit.residue == p ** digits - 1


def test_per_term_valuation_bound():
    rng = random.Random(7)
    p, digits = 13, 5
    for _ in range(10):
        m = rng.randint(1, 3)
        params = random_gparams(rng, p, m, denominators=[p - 1, 3, 4, 6])
        coeffs = g_coefficients(params, p, digits)
        assert len(coeffs) == p - 1
        for exponent, _ in coeffs:
            assert -m <= exponent <= m


@pytest.mark.parametrize("p", [q for q in PRIMES_TO_97 if q < 60])
def test_g_coefficients_match_the_literal_fraction_build(p):
    """Integer numerators over lcm(p-1, denominators) == the Fraction build,
    on the table route (denominators dividing p-1) and the sweep route."""
    rng = random.Random(p)
    dens = [d for d in (p - 1, 2, 3, 4, 5, 6, 10, 12) if d % p]
    table_dens = [d for d in dens if (p - 1) % d == 0]
    sweep_dens = [d for d in dens if (p - 1) % d]

    def q(choices):  # integers and negative fractions included
        den = rng.choice(choices)
        return Fraction(rng.randrange(-2 * den, 2 * den), den)

    for digits in (1, 2, 3):
        for m in range(4):
            cases = [GParams((Fraction(1, 2),) * m, (Fraction(1),) * m),
                     GParams(tuple(Fraction(1 - i) for i in range(m)),
                             tuple(Fraction(2 * i - 1) for i in range(m)))]
            for first, rest in ((table_dens, table_dens), (sweep_dens, dens)):
                for _ in range(3):
                    a = tuple(q(rest if i else first) for i in range(m))
                    cases.append(GParams(a, tuple(q(rest) for _ in range(m))))
            for params in cases:
                assert g_coefficients(params, p, digits) == \
                    literal_g_coefficients(params, p, digits), (p, digits, params)


def test_reduction_is_schedule_independent():
    # hyperfun's one fold at the smallest valuation equals the references'
    # fold, which rescales as lower valuations arrive, in any term order
    rng = random.Random(11)
    p, digits = 11, 5
    mod = p ** digits
    params = random_gparams(rng, p, 3)
    scale = mod - pow(p - 1, -1, mod)  # mGm's -1/(p-1)
    terms = [(j, v, u * scale % mod)
             for j, (v, u) in enumerate(g_coefficients(params, p, digits))]
    assert len({v for _, v, _ in terms}) > 1
    shuffled = list(terms)
    rng.shuffle(shuffled)
    for x in (1, 4, 10):
        want = eval_G(params, x, p, digits)
        for order in (terms, reversed(terms), shuffled):
            v0, ints = fold(order, p - 1, p, mod)
            assert valued(p, v0, CharSum(p, digits, 0, ints).residue(x), digits) == want


def test_precision_consistency_of_eval_g():
    rng = random.Random(3)
    p = 7
    params = random_gparams(rng, p, 2, denominators=[p - 1, 3])
    for x in (1, 2, 6):
        lo = eval_G(params, x, p, 5)
        hi = eval_G(params, x, p, 7)
        prec = lo.absolute_precision
        assert truncated(hi, prec) == truncated(lo, prec)


@given(st.sampled_from((5, 7, 11, 13)), st.data())
@settings(max_examples=40, deadline=None)
def test_bridge_f_equals_g_at_inverse_argument(p, data):
    m = data.draw(st.integers(1, 3))
    digits = 5
    a = tuple(Fraction(data.draw(st.integers(0, p - 2)), p - 1) for _ in range(m))
    b = tuple(Fraction(data.draw(st.integers(0, p - 2)), p - 1) for _ in range(m))
    t = data.draw(st.integers(1, p - 1))
    gp = GParams(a, b)
    fp = FParams.from_fractions(gp, p)
    assert eval_F(fp, t, p, digits) == eval_G(gp, pow(t, -1, p), p, digits)


def test_fparams_requires_denominator_dividing_p_minus_one():
    with pytest.raises(ValueError):
        FParams.from_fractions(GParams((Fraction(1, 5),), (Fraction(1),)), 7)


def test_f_terms_count_and_balance():
    p, digits = 13, 4
    params = FParams((3, 5), (0, 4))
    coeffs = f_coefficients(params, p, digits)
    assert len(coeffs) == p - 1
    for _, unit in coeffs:
        assert unit % p  # every chi-term collapses to a clean value
