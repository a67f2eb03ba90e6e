import pytest

from conftest import SMALL_PRIMES
from dworkcount.padic import char_value
from reference import PiBalanceError, gauss_gk, gk_product, jacobi_sum


def test_trivial_character_gauss_sum():
    for p in SMALL_PRIMES:
        g = gauss_gk(0, p, 4)
        assert g.pi_exp == 0
        assert g.unit.residue == p ** 4 - 1  # g(epsilon) = -1


def test_pi_exponents_pair_to_p_minus_one():
    for p in SMALL_PRIMES:
        for j in range(1, p - 1):
            assert gauss_gk(j, p, 3).pi_exp + gauss_gk(p - 1 - j, p, 3).pi_exp == p - 1


def test_periodicity_in_j():
    p = 11
    for j in range(p - 1):
        assert gauss_gk(j, p, 3) == gauss_gk(j + (p - 1), p, 3)
        assert gauss_gk(j, p, 3) == gauss_gk(j - (p - 1), p, 3)


def test_quadratic_gauss_sum_squared():
    for p in SMALL_PRIMES:
        digits = 4
        j = (p - 1) // 2
        g = gauss_gk(j, p, digits)
        sq = gk_product([(g, 1), (g, 1)], p, digits)
        want = char_value(j, p - 1, p, digits)  # wbar^j(-1)
        assert sq.valuation == 1
        assert sq.unit.residue == want.unit.residue


def test_conjugate_product_identity_small():
    # full p <= 97 breadth lives in the acceptance suite
    for p in SMALL_PRIMES:
        digits = 4
        eps = gauss_gk(0, p, digits)
        one = gk_product([(eps, 1), (eps, 1)], p, digits)
        assert one.valuation == 0 and one.unit.residue == 1
        for j in range(1, p - 1):
            prod = gk_product([(gauss_gk(j, p, digits), 1),
                               (gauss_gk(-j, p, digits), 1)], p, digits)
            assert prod.valuation == 1
            assert prod.unit.residue == char_value(j, p - 1, p, digits).unit.residue


def test_trivial_product_is_minus_one():
    p = 7
    out = gk_product([(gauss_gk(0, p, 4), 1)], p, 4)
    assert out.valuation == 0 and out.unit.residue == 7 ** 4 - 1


def test_unbalanced_product_raises():
    p = 7
    with pytest.raises(PiBalanceError):
        gk_product([(gauss_gk(1, p, 3), 1)], p, 3)


def test_jacobi_sum_oracle_agreement_small():
    for p in SMALL_PRIMES:
        digits = 4
        mod = p ** digits
        for a in range(1, p - 1):
            for b in range(1, p - 1):
                if (a + b) % (p - 1) == 0:
                    continue
                via_gauss = gk_product([(gauss_gk(a, p, digits), 1),
                                        (gauss_gk(b, p, digits), 1),
                                        (gauss_gk(a + b, p, digits), -1)], p, digits)
                assert via_gauss.valuation == (a + b) // (p - 1)
                assert via_gauss.residue_mod(digits) == jacobi_sum(a, b, p, digits) % mod
