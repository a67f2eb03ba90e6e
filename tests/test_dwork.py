from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworkcount import dwork, oracle
from dworkcount.dwork import (CharSum, DworkInstance, InstanceError, canonical_classes,
                              class_g_coefficients, count_ff, count_koblitz, count_main,
                              count_relprime, derive_params, enumerate_W,
                              k_target, k_working, main_value, orbit)
from dworkcount.hyperfun import GParams, eval_G


# -- W and its classes -----------------------------------------------------------

def test_enumerate_w_sizes():
    for n in range(2, 7):
        for d in range(1, 7):
            W = enumerate_W(n, d)
            assert len(W) == d ** (n - 1)
            assert len(set(W)) == len(W)
            assert W == sorted(W)  # deterministic lexicographic order
            assert all(sum(w) % d == 0 and all(0 <= wi < d for wi in w) for w in W)


def test_enumerate_w_trivial_and_example():
    assert enumerate_W(3, 1) == [(0, 0, 0)]
    W = enumerate_W(4, 2)
    assert len(W) == 8
    kinds = sorted(tuple(sorted(w)) for w in W)
    assert kinds.count((0, 0, 0, 0)) == 1
    assert kinds.count((0, 0, 1, 1)) == 6
    assert kinds.count((1, 1, 1, 1)) == 1


def test_canonical_classes_structure():
    for n in range(2, 7):
        for d in (dd for dd in range(1, 7) if n % dd == 0):
            classes = canonical_classes(n, d)
            assert len(classes) == d ** (n - 2)
            covered = set()
            for rep in classes:
                assert 0 in rep.wstar
                assert rep.orbit_size == d
                orb = set(orbit(rep.wstar, d))
                assert len(orb) == d
                assert not (orb & covered)
                covered |= orb
            assert covered == set(enumerate_W(n, d))


def class_multiset_types(n, d):
    """For each class, the sorted multisets of its zero-containing members."""
    out = []
    for rep in canonical_classes(n, d):
        members = {tuple(sorted(v)) for v in orbit(rep.wstar, d) if 0 in v}
        out.append(members)
    return out


def test_worked_example_classes_d2():
    classes = canonical_classes(4, 2)
    assert len(classes) == 4
    types = class_multiset_types(4, 2)
    assert sum((0, 0, 0, 0) in t for t in types) == 1
    assert sum((0, 0, 1, 1) in t for t in types) == 3


def test_worked_example_classes_d4():
    classes = canonical_classes(4, 4)
    assert len(classes) == 16
    types = class_multiset_types(4, 4)
    assert sum((0, 0, 0, 0) in t for t in types) == 1
    assert sum((0, 0, 2, 2) in t for t in types) == 3
    assert sum((0, 0, 1, 3) in t for t in types) == 12


def test_derive_params_worked_example_lists():
    pd = derive_params((0, 0, 0, 0), 4, 2)
    assert sorted(pd.A_w) == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert sorted(pd.B_w) == [Fraction(1), Fraction(1), Fraction(1)]
    assert pd.s == 3
    pd = derive_params((0, 0, 1, 1), 4, 2)
    assert sorted(pd.A_w) == [Fraction(1, 4), Fraction(3, 4)]
    assert sorted(pd.B_w) == [Fraction(1, 2), Fraction(1)]
    assert pd.s == 2
    pd = derive_params((0, 0, 1, 3), 4, 4)
    assert pd.A_w == (Fraction(1, 2),)
    assert pd.B_w == (Fraction(1),)
    assert pd.s == 1


def test_derive_params_rejects_zero_free_vectors():
    with pytest.raises(ValueError):
        derive_params((1, 1, 1, 1), 4, 2)
    with pytest.raises(ValueError):
        derive_params((0, 1, 0, 0), 4, 2)  # sum not 0 mod d


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_param_data_invariants(n, data):
    d = data.draw(st.sampled_from([dd for dd in range(1, 7) if n % dd == 0]))
    rep = data.draw(st.sampled_from(canonical_classes(n, d))).wstar
    pd = derive_params(rep, n, d)
    assert sum(pd.n_k) == n
    assert pd.S_w == frozenset(k for k in range(d) if pd.n_k[k] == 0)
    assert pd.S_wc == frozenset(range(d)) - pd.S_w
    assert len(pd.A_w) == len(pd.B_w) == pd.s == n - len(pd.S_wc)
    assert pd.prefactor_exponent >= 0
    assert pd.prefactor_exponent * d == sum(rep)


# -- kernel vs the literal definition ---------------------------------------------

def class_g_value(pd, x, p, n, digits):
    """G[A_w; B_w | x] through the kernel the counts evaluate: the class's
    coefficients times G's -1/(p-1), summed by CharSum at y = x."""
    mod = p ** digits
    scale = -pow(p - 1, -1, mod)
    terms = [(j, v, u * scale % mod)
             for j, (v, u) in enumerate(class_g_coefficients(pd, p, n, digits))]
    return CharSum(p, digits, (), terms).value(x)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (5, 4), (7, 3), (3, 5)])
def test_reduced_kernel_matches_literal_eval_g(p, n):
    digits = k_working(p, n)
    d = gcd(p - 1, n)
    for rep in canonical_classes(n, d):
        pd = derive_params(rep.wstar, n, d)
        for x in {1, 2 % p, (p - 1)}:
            if x == 0:
                continue
            literal = eval_G(GParams(pd.A_w, pd.B_w), x, p, digits)
            reduced = class_g_value(pd, x, p, n, digits)
            assert literal == reduced, (rep.wstar, x)


def test_class_summand_representative_independence():
    # distinct zero-containing members of one class give different A/B lists
    # but identical main-count summands at the arguments the count uses
    # (x = lambda^n; the underlying character-sum shift only fixes those)
    for p, n in [(5, 4), (13, 4)]:
        d = gcd(p - 1, n)
        digits = k_working(p, n)
        for rep in canonical_classes(n, d):
            members = [v for v in orbit(rep.wstar, d) if 0 in v]
            for x in sorted({pow(lam, n, p) for lam in range(1, p)}):
                values = []
                for w in members:
                    pd = derive_params(w, n, d)
                    pref = dwork.ValuedPadic(p, pd.prefactor_exponent,
                                             pd.gamma_prefactor(p, digits))
                    if pd.prefactor_exponent % 2:
                        pref = -pref
                    values.append(pref * class_g_value(pd, x, p, n, digits))
                first = values[0]
                for v in values[1:]:
                    prec = min(first.absolute_precision, v.absolute_precision)
                    assert first._truncate(prec) == v._truncate(prec), \
                        (p, rep.wstar, members, x)


def test_class_summand_permutation_invariance():
    p, n, d = 13, 4, 4
    digits = k_working(p, n)
    pd1 = derive_params((0, 0, 1, 3), n, d)
    pd2 = derive_params((0, 1, 0, 3), n, d)
    pd3 = derive_params((3, 1, 0, 0), n, d)
    for x in (1, 5, 12):
        v1 = class_g_value(pd1, x, p, n, digits)
        assert v1 == class_g_value(pd2, x, p, n, digits)
        assert v1 == class_g_value(pd3, x, p, n, digits)


# -- counts vs the oracle -----------------------------------------------------------

def test_count_main_examples():
    assert count_main(7, 3, 1) == oracle.brute_count(7, 3, 1) == 21
    assert count_main(7, 4, 2) == oracle.brute_count(7, 4, 2)


def test_literal_g_reproduces_d1_count():
    # d = 1: the literal evaluator (lift sweeps, no table) recovers
    # (N_p(lambda) - base) * (-1)^n from G[1/n..(n-1)/n; 1..1 | lambda^n]
    p, n = 5, 3
    digits = k_working(p, n)
    params = GParams(tuple(Fraction(h, n) for h in range(1, n)),
                     (Fraction(1),) * (n - 1))
    base = (p ** (n - 1) - 1) // (p - 1)
    for lam in range(1, p):
        g = eval_G(params, pow(lam, n, p), p, digits)
        want = (oracle.brute_count(p, n, lam) - base) * (-1) ** n
        assert g.residue_mod(digits - n + 1) == want % p ** (digits - n + 1)


def test_relprime_specialization():
    for lam in (1, 3, 6):
        assert count_relprime(7, 5, lam) == count_main(7, 5, lam)
    assert count_relprime(5, 3, 2) == oracle.brute_count(5, 3, 2)
    assert count_relprime(7, 5, 1) == oracle.brute_count(7, 5, 1)


def test_ff_examples():
    assert count_ff(5, 4, 2) == oracle.brute_count(5, 4, 2)
    for lam in (1, 3, 7):
        assert count_ff(13, 4, lam) == count_main(13, 4, lam)


def test_ff_generator_independence():
    cases = [(13, 4, 3), (13, 3, 2), (11, 5, 4)]
    for p, n, lam in cases:
        base = count_ff(p, n, lam)
        for alpha in (q for q in range(2, p - 1) if gcd(q, p - 1) == 1):
            assert count_ff(p, n, lam, generator_exponent=alpha) == base, (p, n, lam, alpha)


def test_koblitz_lambda_zero_examples():
    assert count_koblitz(5, 2, 0) == 2      # x^2 = -y^2 has two projective roots
    assert count_koblitz(5, 3, 0) == 6      # d = 1: only the base term survives
    assert count_koblitz(5, 3, 0) == oracle.brute_count(5, 3, 0)


def test_three_way_agreement_small_grid():
    for p in (3, 5, 7):
        for n in (2, 3, 4):
            if n % p == 0:
                continue
            all_counts = oracle.brute_count_all(p, n)
            assert count_koblitz(p, n, 0) == all_counts[0]
            for lam in range(1, p):
                want = all_counts[lam]
                assert count_main(p, n, lam) == want
                assert count_koblitz(p, n, lam) == want


def test_counts_are_deterministic():
    a = main_value(11, 3, 4)
    b = main_value(11, 3, 4)
    assert a == b and a.unit.residue == b.unit.residue
    assert count_main(11, 3, 4) == count_main(11, 3, 4)


# -- preconditions and precision ------------------------------------------------------

def test_instance_preconditions():
    with pytest.raises(InstanceError):
        DworkInstance(7, 7, 1)        # p | n
    with pytest.raises(InstanceError):
        DworkInstance(9, 2, 1)        # not prime
    with pytest.raises(InstanceError):
        count_main(7, 3, 0)           # lambda = 0 needs koblitz
    with pytest.raises(InstanceError):
        count_relprime(13, 4, 1)      # d = 4 != 1
    with pytest.raises(InstanceError):
        count_ff(7, 4, 1)             # 7 != 1 mod 4
    with pytest.raises(InstanceError):
        count_ff(13, 4, 1, generator_exponent=2)  # not coprime to p-1


def test_lambda_reduces_mod_p():
    assert DworkInstance(7, 3, -1).lam == 6
    assert count_main(7, 3, -1) == count_main(7, 3, 6)


def test_k_target_policy():
    assert k_target(7, 3) == 3      # 7^3 = 343 > 2*57
    assert k_target(31, 4) == 4     # 31^4 > 2*30784 > 31^3
    for p, n in [(5, 3), (7, 4), (13, 5)]:
        kt = k_target(p, n)
        assert p ** kt > 2 * ((p ** n - 1) // (p - 1)) >= p ** (kt - 1)
        assert k_working(p, n) == kt + n + 1


def test_main_value_valuation_and_target_precision():
    for p, n in [(7, 3), (7, 4), (11, 3)]:
        kt = k_target(p, n)
        for lam in (1, p - 2):
            value = main_value(p, n, lam)
            assert value.valuation >= 0
            assert value.absolute_precision >= kt
            assert count_main(p, n, lam, kt + 2) == count_main(p, n, lam)
