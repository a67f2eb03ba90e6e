import pickle
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_97, kernel_state, truncated

from dworkcount import dwork, hyperfun, oracle, padic
from dworkcount.dwork import (ClassRep, DworkInstance, InstanceError,
                              canonical_classes, count_ff, count_koblitz, count_main,
                              count_relprime, enumerate_W, k_target, k_working,
                              main_l_factors, method_value, orbit)
from dworkcount.hyperfun import FParams, GParams, eval_G, f_coefficients
from dworkcount.oracle import CountReport
from dworkcount.padic import (PadicUnit, PrecisionError, is_odd_prime, teichmuller,
                              teichmuller_table)
from dworkcount.pgamma import frac_gamma_table
from reference import (derive_params, fold, gauss_gk, gk_product, pi_valuation,
                       reference_f_coefficients, reference_ff_kernel, reference_kernel)


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
    # one representative per class, its lex-smallest zero-containing member, in
    # strictly increasing order, at every d | n for n <= 8 but (8, 8), whose
    # 8^7 members of W are left out for memory
    for n in range(2, 9):
        for d in (dd for dd in range(1, n + 1) if n % dd == 0 and dd ** (n - 1) < 2e6):
            reps = [rep.wstar for rep in canonical_classes(n, d)]
            assert len(reps) == d ** (n - 2)
            assert all(a < b for a, b in zip(reps, reps[1:]))
            covered = set()
            for rep in reps:
                orb = set(orbit(rep, d))
                assert rep == min(v for v in orb if 0 in v)
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
    """G[A_w; B_w | x] through the reduced kernel: the class's coefficients by
    the per-j reference below, times G's -1/(p-1), summed by hyperfun's fold
    at y = x.  test_folded_main_kernel_matches_per_class_build pins the
    count's folded kernel to this reference."""
    return hyperfun._character_sum(unfolded_class_coefficients(pd, p, n, digits), x, p, digits)


def gamma_prefactor(pd, p, digits):
    """prod_i Gamma_p(w_i / d) mod p^digits."""
    table = frac_gamma_table(p, digits)
    t, mod = (p - 1) // pd.d, p ** digits
    res = 1
    for wi in pd.w:
        res = res * table[wi * t] % mod
    return res


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
        mod = p ** digits
        for rep in canonical_classes(n, d):
            members = [v for v in orbit(rep.wstar, d) if 0 in v]
            summands = []
            for w in members:
                # the prefactor (-p)^e * prod Gamma(w_i/d) folded into the
                # coefficients as the main count folds it; hyperfun's fold
                # adds G's -1/(p-1)
                pd = derive_params(w, n, d)
                e = pd.prefactor_exponent
                pref = (-1) ** e * gamma_prefactor(pd, p, digits)
                summands.append([(e + v, pref * u % mod) for v, u in
                                 unfolded_class_coefficients(pd, p, n, digits)])
            for x in sorted({pow(lam, n, p) for lam in range(1, p)}):
                values = [hyperfun._character_sum(c, x, p, digits) for c in summands]
                first = values[0]
                for v in values[1:]:
                    prec = min(first.absolute_precision, v.absolute_precision)
                    assert truncated(first, prec) == truncated(v, prec), \
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


# -- the folded main kernel vs a per-class build ----------------------------------

def unfolded_class_coefficients(pd, p, n, digits):
    """(E_j, unit) of one class's G-coefficients, every factor of every j built
    and inverted on its own."""
    d, t = pd.d, (p - 1) // pd.d
    mod = p ** digits
    table = frac_gamma_table(p, digits)
    teich_n = teichmuller(n % p, p, digits).residue
    S, Sc = sorted(pd.S_w), sorted(pd.S_wc)
    cd_prod = 1
    for k in range(1, d):
        cd_prod = cd_prod * table[k * t] % mod
    denom = 1
    for k in S:
        denom = denom * table[(d - k) * t] % mod
    for k in Sc:
        denom = denom * pow(table[k * t], pd.n_k[k] - 1, mod) % mod
    a_list = [(q.numerator, q.denominator) for q in pd.A_w]
    b_thresholds = []
    for k in Sc:
        if k > 0:
            b_thresholds.extend([k * t] * (pd.n_k[k] - 1))
    coeffs = []
    for j in range(p - 1):
        unit = pow(denom, -1, mod) * cd_prod % mod
        for k in S:
            unit = unit * table[((d - k) * t - j) % (p - 1)] % mod
        for k in Sc:
            unit = unit * pow(table[(k * t + j) % (p - 1)], pd.n_k[k] - 1, mod) % mod
        r = (-n * j) % (p - 1)
        unit = unit * table[r] % mod * pow(teich_n, r, mod) % mod
        hden = 1
        for k in range(d):
            hden = hden * table[(k * t - j) % (p - 1)] % mod
        unit = unit * pow(hden, -1, mod) % mod
        exponent = sum(1 for (u, v) in a_list if u * (p - 1) < j * v) \
            - sum(1 for thr in b_thresholds if j >= p - 1 - thr)
        if (j * pd.s + exponent) % 2:
            unit = (mod - unit) % mod
        coeffs.append((exponent, unit))
    return coeffs


def unfolded_main_terms(p, n, digits):
    """(j, valuation, unit) of the main count, one class at a time.  A class's
    G-coefficients are a function of its multiset (derive_params reads only the
    counts), so they are built once per multiset; prefactors are per class."""
    d, mod = gcd(p - 1, n), p ** digits
    scale = (-1) ** (n + 1) * pow(p - 1, -1, mod)
    coefficients = {}
    for rep in canonical_classes(n, d):
        pd = derive_params(rep.wstar, n, d)
        key = tuple(sorted(rep.wstar))
        if key not in coefficients:
            coefficients[key] = unfolded_class_coefficients(pd, p, n, digits)
        e = pd.prefactor_exponent
        pref = (-1) ** e * gamma_prefactor(pd, p, digits) * scale
        for j, (v, u) in enumerate(coefficients[key]):
            yield j, e + v, pref * u % mod


@pytest.mark.parametrize("p,n", [(p, 6) for p in (7, 13, 19, 31, 37, 43)]
                         + [(29, 7), (43, 7)]
                         + [(p, 4) for p in PRIMES_TO_97 + (101,) if p % 4 == 1])
def test_folded_main_kernel_matches_per_class_build(p, n):
    """The build per rotation orbit equals every class built on its own by the
    per-j reference, both folded mod t = (p-1)/d: the reference at offset 0,
    coefficients alike."""
    digits = k_working(p, n)
    t = (p - 1) // gcd(p - 1, n)
    offset, unfolded = fold(((j % t, v, u) for j, v, u in unfolded_main_terms(p, n, digits)),
                            t, p, p ** digits)
    assert offset == 0
    assert dwork._main_terms(p, n, digits) == unfolded


def compositions(n, parts):
    """Every tuple of `parts` non-negative integers summing to n, in lex order."""
    if parts == 1:
        return [(n,)]
    return [(c,) + tail for c in range(n + 1) for tail in compositions(n - c, parts - 1)]


def rotation_orbits(n, d):
    """(n_k, classes) once per rotation orbit n'_k = n_(k-c mod d) of the
    residue-count vectors of W(n, d): n_k is the orbit's lex-largest rotation
    (so n_0 >= 1), and classes = multinomial(n_k) / #{rotations fixing n_k}."""
    for n_k in compositions(n, d):
        rotations = [n_k[c:] + n_k[:c] for c in range(d)]
        if sum(k * c for k, c in enumerate(n_k)) % d == 0 and n_k == max(rotations):
            yield n_k, factorial(n) // prod(map(factorial, n_k)) // rotations.count(n_k)


def orbit_main_terms(p, n, digits):
    """The main build once per rotation orbit of count vectors, as it stood
    before the polynomial power: per orbit, the product of rotated power
    columns of the gamma table, the exact floors E_j from the h/n steps and the
    absent and present residues, and the r_j flips, times the orbit's classes."""
    d, mod = gcd(p - 1, n), p ** digits
    t, table = (p - 1) // d, frac_gamma_table(p, digits)
    powers = [None, list(table)]  # Gamma(<j/(p-1)>)^e over j < p-1
    for _ in range(n - 1):
        powers.append([a * b % mod for a, b in zip(powers[-1], table)])
    inv, ls = pow(p - 1, -1, mod), main_l_factors(p, n, digits)
    h_steps = [0] * p
    for h in set(range(n)) - set(range(0, n, n // d)):
        h_steps[h * (p - 1) // n + 1] += 1
    for n_k, classes in rotation_orbits(n, d):
        steps, units = h_steps[:], powers[n_k[0]]
        for k in range(1, d):
            if n_k[k]:
                steps[p - 1 - k * t] -= n_k[k] - 1
                column, b = powers[n_k[k]], k * t
                units = [u * g % mod for u, g in zip(units, column[b:] + column[:b])]
            else:
                steps[(d - k) * t + 1] += 1
        exps = list(accumulate(steps[:-1]))
        low = min(exps)
        scaled = [u * (-p) ** (v - low) for u, v in zip(units, exps)]
        for k in range(d):
            if n_k[k]:
                scaled[(-k) % d * t] *= -1
        e = sum(k * c for k, c in enumerate(n_k)) // d
        scale = (-1) ** (n + e + low) * classes * inv
        for i in range(t):
            yield i, e + low, scale * ls[i] * sum(scaled[i::t]) % mod


@pytest.mark.parametrize("p", [q for q in range(3, 200) if is_odd_prime(q)])
def test_main_power_kernel_matches_the_orbit_build(p):
    """The main kernel, one polynomial power per residue i < t, equals the
    per-orbit build: offset, constant and coefficients, for n = 2..8."""
    for n in (m for m in range(2, 9) if m % p):
        kt = k_target(p, n)
        consts = [(0, (p ** (n - 1) - 1) // (p - 1))]
        want = reference_kernel(p, kt, consts, orbit_main_terms(p, n, kt),
                                (p - 1) // gcd(p - 1, n))
        assert kernel_state(dwork._kernel("main", p, n, kt)) == kernel_state(want), n


def test_main_exponent_is_the_h_over_n_step_count():
    """main's (-p)-exponent floor(ni/(p-1)) at i < t is the literal count of
    A_w's h/n steps up to i, one at floor(h(p-1)/n) + 1 for each h < n/d."""
    for p in filter(is_odd_prime, range(3, 400)):
        for n in (m for m in range(2, 13) if m % p):
            d = gcd(p - 1, n)
            steps = [h * (p - 1) // n + 1 for h in range(1, n // d)]
            for i in range((p - 1) // d):
                assert n * i // (p - 1) == bisect_right(steps, i), (p, n, i)


def orbit_ff_terms(p, n, digits, alpha):
    """The ff build once per rotation orbit of count vectors, as it stood
    before the polynomial power: per orbit, the prefactor g(wbar^(u_r))^(n_r)
    times the mFm coefficients of the absent (A) and repeated present (B)
    residues, times the orbit's classes, folded by k mod t."""
    t, mod = (p - 1) // n, p ** digits
    scale = -pow(p - 1, -1, mod)
    units = [gauss_gk(r, p, digits).unit.residue for r in range(p - 1)]
    exps = [alpha * r * t % (p - 1) for r in range(n)]  # u_r
    for n_k, classes in rotation_orbits(n, n):
        unit = classes * scale
        for r, c in zip(exps, n_k):
            unit = unit * pow(units[r], c, mod) % mod
        val = pi_valuation(sum(r * c for r, c in zip(exps, n_k)), p)
        if val % 2:
            unit = -unit
        a_exps = tuple(-r % (p - 1) for r, c in zip(exps, n_k) if not c)
        b_exps = tuple(-r % (p - 1) for r, c in zip(exps, n_k) for _ in range(c - 1))
        for k, (v, u) in enumerate(f_coefficients(FParams(a_exps, b_exps), p, digits)):
            yield k % t, val + v, unit * u % mod


@pytest.mark.parametrize("p", [q for q in range(3, 200) if is_odd_prime(q)])
def test_ff_power_kernel_matches_the_orbit_build(p):
    """The ff kernel, one polynomial power per (p, n), equals the per-orbit
    build: offset, constant and coefficients, for n = 2..8 with p == 1 (mod n),
    the build at alpha = 1 and at the next generator exponent alike."""
    q = p - 1
    other = min((a for a in range(2, q) if gcd(a, q) == 1), default=1)
    for n in (m for m in range(2, 9) if q % m == 0):
        kt = k_target(p, n)
        consts = [(0, (p ** (n - 1) - 1) // q)]
        kernel = kernel_state(dwork._kernel("ff", p, n, kt))
        for alpha in sorted({1, other}):
            want = reference_kernel(p, kt, consts, orbit_ff_terms(p, n, kt, alpha), q // n)
            assert kernel == kernel_state(want), (n, alpha)


@pytest.mark.parametrize("p,n", [(41, 20), (61, 30)])
def test_all_lambda_main_equals_koblitz_where_d_is_large(p, n):
    # d = n = 20 and 30: sizes whose main and ff builds once ran per rotation orbit
    koblitz = dwork.count_all("koblitz", p, n)
    want = {lam: c for lam, c in koblitz.items() if lam}
    assert dwork.count_all("main", p, n) == want
    assert dwork.count_all("ff", p, n) == want


def naive_y0_power(poly, e, p, mod):
    """[Y^0] poly^e per index: full schoolbook products in Z[Y], with
    Y^(qd + r) = (-p)^q Y^r and the modulus applied only at the end."""
    d, out = len(poly), []
    for column in zip(*poly):
        power = [1]
        for _ in range(e):
            prod = [0] * (len(power) + d - 1)
            for a, x in enumerate(power):
                for b, y in enumerate(column):
                    prod[a + b] += x * y
            power = prod
        out.append(sum(c * (-p) ** (k // d) for k, c in enumerate(power) if k % d == 0) % mod)
    return out


@pytest.mark.parametrize("d", range(1, 8))
def test_y0_power_matches_a_naive_power(d):
    # e = 2..12 ends on a square (even e) and on a multiply (odd e); _y0_read
    # reads the same power mod p^(digits+1), plus B/p from column 0 less row 0
    rng = random.Random(17 + d)
    for e in range(2, 13):
        p = rng.choice([3, 5, 7, 101, 1009])
        digits = rng.randint(1, 5)
        mod = p ** digits
        poly = [[rng.randrange(mod) for _ in range(3)] for _ in range(d)]
        assert dwork._y0_power(poly, e, p, mod) == naive_y0_power(poly, e, p, mod), (e, p)
        y0, b = dwork._y0_read(poly, e, p, digits)
        assert y0 == naive_y0_power(poly, e, p, mod * p), (e, p)
        (big_b,) = naive_y0_power([[0]] + [row[:1] for row in poly[1:]], e, p, mod * p)
        assert big_b % p == 0 and b == big_b // p, (e, p)
        assert d > 1 or b == 0


@pytest.mark.parametrize("d", range(1, 8))
def test_poly_square_matches_poly_mul(d):
    rng = random.Random(d)
    for p, digits in ((3, 4), (101, 3), (1009, 5)):
        mod = p ** digits
        f = [[rng.randrange(mod) for _ in range(4)] for _ in range(d)]
        assert dwork._poly_square(f, p, mod) == dwork._poly_mul(f, f, p, mod)
        assert dwork._poly_square(f, p, mod, 1) == dwork._poly_mul(f, f, p, mod, 1)


def full_length_l_factors(p, n, digits):
    """main_l_factors built for every j < p-1 instead of one period, each
    power taken on its own."""
    mod = p ** digits
    table = frac_gamma_table(p, digits)
    teich_n = teichmuller(n % p, p, digits).residue
    out = []
    for j in range(p - 1):
        r = (-n * j) % (p - 1)
        out.append((-1) ** (n * j) * table[r] * pow(teich_n, r, mod) % mod)
    return out


@pytest.mark.parametrize("p", [q for q in PRIMES_TO_97 if q <= 61])
def test_main_j_factors_one_period_matches_full_loop(p):
    """The class-free j-factors of the main coefficients, L_j: one period
    (main_l_factors) against the full-length loop, at every j and j + c*t."""
    for n in range(2, 7):
        if n % p == 0:
            continue
        digits = k_working(p, n)
        t = (p - 1) // gcd(p - 1, n)
        period = main_l_factors(p, n, digits)
        assert len(period) == t
        full = full_length_l_factors(p, n, digits)
        for j in range(t):
            for c in range(gcd(p - 1, n)):
                assert full[j + c * t] == period[j], (n, j, c)


@pytest.mark.parametrize("p", [q for q in PRIMES_TO_97 if q <= 61])
def test_orbit_scalar_sign_rule(p):
    """The prefactor prod_i Gamma(w_i/d) times prod_{0<k<d} Gamma(k/d) over the
    class's own gamma denominator is the sign the main build relies on,
    (-1)^(sum_{k in S^c_w, k>0} (1 + kt)), for every rotation orbit."""
    for n in range(2, 9):
        if n % p == 0:
            continue
        d, digits = gcd(p - 1, n), k_working(p, n)
        t, mod = (p - 1) // d, p ** digits
        table = frac_gamma_table(p, digits)
        cd_prod = 1
        for k in range(1, d):
            cd_prod = cd_prod * table[k * t] % mod
        for n_k, _ in rotation_orbits(n, d):
            w = tuple(k for k, c in enumerate(n_k) for _ in range(c))
            pd = derive_params(w, n, d)
            denom = 1
            for k in pd.S_w:
                denom = denom * table[(d - k) * t] % mod
            for k in pd.S_wc:
                denom = denom * pow(table[k * t], pd.n_k[k] - 1, mod) % mod
            sign = (-1) ** sum(1 + k * t for k in pd.S_wc if k)
            assert gamma_prefactor(pd, p, digits) * cd_prod % mod \
                == sign * denom % mod, (n, w)


def rotations(n_k):
    """The rotations n'_k = n_(k-c mod d) of a count vector, as a set."""
    return frozenset(n_k[c:] + n_k[:c] for c in range(len(n_k)))


def test_rotation_orbit_totals_match_enumeration():
    for n in range(2, 8):
        for d in (dd for dd in range(1, n + 1) if n % dd == 0):
            want = Counter(rotations(tuple(rep.wstar.count(k) for k in range(d)))
                           for rep in canonical_classes(n, d))
            orbits = list(rotation_orbits(n, d))
            assert all(n_k[0] >= 1 for n_k, _ in orbits), (n, d)
            assert len(orbits) == len(want), (n, d)
            assert Counter({rotations(n_k): total for n_k, total in orbits}) == want, (n, d)


# -- counts vs the oracle -----------------------------------------------------------

# -- the integer Gauss-sum builds against gk_product --------------------------------
# Per-term, per-vector builds through GaussSumGK/gk_product objects: the
# reference for the plain-integer koblitz and ff builds (each a polynomial
# power over the residues), each of period t; ff's is reference_ff_kernel.

def reference_koblitz_consts(p, n, digits):
    t = (p - 1) // gcd(p - 1, n)
    for w in enumerate_W(n, gcd(p - 1, n)):
        if 0 not in w:
            prod = gk_product([(gauss_gk(wi * t, p, digits), 1) for wi in w], p, digits)
            yield prod.valuation - 1, prod.unit.residue


def reference_koblitz_terms(p, n, digits):
    """Indexed by j < t: the kernel is evaluated at (n lambda)^n, where
    wbar^j((n lambda)^n) = wbar^(nj)(n lambda)."""
    d, mod = gcd(p - 1, n), p ** digits
    t, inv = (p - 1) // d, pow(p - 1, -1, mod)
    for w in enumerate_W(n, d):
        for j in range(t):
            factors = [(gauss_gk(wi * t + j, p, digits), 1) for wi in w]
            factors.append((gauss_gk(n * j, p, digits), -1))
            c = gk_product(factors, p, digits)
            yield j, c.valuation, c.unit.residue * inv % mod


GAUSS_GRID = ([(p, n) for n in range(2, 6) for p in PRIMES_TO_97 if p <= 61 and n % p]
              + [(7, 6), (13, 6), (31, 6)])


@pytest.mark.parametrize("p,n", GAUSS_GRID)
def test_integer_koblitz_kernel_matches_gk_product_build(p, n):
    kt = k_target(p, n)
    digits = k_working(p, n, kt)
    consts = [(0, (p ** (n - 1) - 1) // (p - 1))] + list(reference_koblitz_consts(p, n, digits))
    want = reference_kernel(p, digits, consts, reference_koblitz_terms(p, n, digits),
                            (p - 1) // gcd(p - 1, n))
    assert kernel_state(dwork._kernel("koblitz", p, n, kt)) == kernel_state(want)


@pytest.mark.parametrize("p,n", [(p, n) for p, n in GAUSS_GRID if (p - 1) % n == 0])
def test_integer_ff_kernel_matches_gk_product_build(p, n):
    kt = k_target(p, n)
    digits = k_working(p, n, kt)
    alphas = [1]
    if n < 6 or p == 7:  # a second generator, save where the reference takes seconds
        alphas.append(next(a for a in (5, 7, 11) if gcd(a, p - 1) == 1))
    kernel = kernel_state(dwork._kernel("ff", p, n, kt))
    for alpha in alphas:
        assert kernel == kernel_state(reference_ff_kernel(p, n, digits, alpha)), alpha


# -- identities between the kernels ---------------------------------------------------

@pytest.mark.parametrize("p", [q for q in range(3, 200) if is_odd_prime(q)] + [1009, 10009])
def test_ff_is_main_reversed_and_koblitz_is_main_twisted(p):
    """ff's C_i is main's C_((-i) mod t), with equal constants, and koblitz's
    C_j times wbar^j(n^n) is main's C_j at j >= 1, with C_0 plus the constant
    equal mod p^K_target (_ff_terms, _koblitz_terms): n = 2..8, and n = 4 at
    p = 1009 and 10009, past the oracle."""
    for n in (m for m in ((4,) if p > 200 else range(2, 9)) if m % p):
        kt = k_target(p, n)
        main, kob = dwork._kernel("main", p, n, kt), dwork._kernel("koblitz", p, n, kt)
        t, mod = main.period, main.mod
        z = teichmuller_table(p, kt)[pow(n ** n, -1, p)]  # wbar(n^n)
        twisted = [c * pow(z, j, mod) % mod for j, c in enumerate(kob.coeffs)]
        assert twisted[1:] == main.coeffs[1:], n
        assert (twisted[0] + kob.const - main.coeffs[0] - main.const) % mod == 0, n
        if (p - 1) % n == 0:
            reversed_main = [main.coeffs[-i % t] for i in range(t)]
            assert kernel_state(dwork._kernel("ff", p, n, kt)) \
                == (main.const, reversed_main), n


# -- a mod-p identity for every kernel, sharing no code with the formulas --------------
#
# Chevalley-Warning counting gives N_aff == -sum_x f(x)^(p-1) (mod p), and for
# f = sum x_i^n - n lambda prod x_i the only monomial that survives is
# x^(p-1, ..., p-1).  So for lambda != 0 and p not dividing n
#
#     N(lambda) == 1 + (-1)^n sum_(a <= (p-1)/n) c_a ((n lambda)^n)^-a  (mod p),
#
# c_a = (na)!/(a!)^n, the truncated sum behind the Hasse invariant.  On the
# d-th powers y, y^-a depends on a mod t only, and wbar(y) == 1/y (mod p), so
# the sum folded mod t pins digit 0 of every kernel coefficient.


def truncated_terms(p, n):
    """[c_a mod p for a <= (p-1)/n]."""
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    return [fact[n * a] * pow(fact[a], -n, p) % p for a in range((p - 1) // n + 1)]


def count_mod_p(p, n, lam):
    """N(lambda) mod p by the truncated sum; at lambda = 0 the surviving
    monomial of (sum x_i^n)^(p-1) has the coefficient (p-1)!/(((p-1)/n)!)^n,
    the a = (p-1)/n term, when n | p-1, and there is none otherwise."""
    terms = truncated_terms(p, n)
    if lam % p == 0:
        return (1 + (-1) ** n * terms[-1]) % p if (p - 1) % n == 0 else 1
    y_inv = pow(n * lam, -n, p)
    return (1 + (-1) ** n * sum(c * pow(y_inv, a, p) for a, c in enumerate(terms))) % p


def folded_terms(p, n):
    """(S, D) mod p: S_e sums the c_a, and D_e the c_a (n^n)^-a, over the
    a == e (mod t), t = (p-1)/gcd(p-1, n)."""
    t, n_inv = (p - 1) // gcd(p - 1, n), pow(n, -n, p)
    folds, twisted = [0] * t, [0] * t
    for a, c in enumerate(truncated_terms(p, n)):
        folds[a % t] = (folds[a % t] + c) % p
        twisted[a % t] = (twisted[a % t] + c * pow(n_inv, a, p)) % p
    return folds, twisted


def obeys_mod_p(kernel, folded, n):
    """C_e == (-1)^n folded_e at e >= 1 and const + C_0 == 1 + (-1)^n
    folded_0 (mod p): on the t characters of the d-th powers, which are
    independent, the kernel is the truncated sum."""
    p, sign = kernel.p, (-1) ** n
    got = [c % p for c in kernel.coeffs]
    want = [sign * f % p for f in folded]
    return (len(got) == len(want) and got[1:] == want[1:]
            and (kernel.const + got[0]) % p == (1 + want[0]) % p)


@pytest.mark.parametrize("p,n", [(p, n) for p in PRIMES_TO_97 if p < 60 for n in range(2, 7)
                                 if n % p and p ** (n - 1) <= 3 * 10 ** 6])
def test_the_truncated_sum_is_every_count_mod_p(p, n):
    """The oracle's count at every lambda in F_p, lambda = 0 included, is
    the truncated sum mod p."""
    assert {lam: c % p for lam, c in oracle.brute_count_all(p, n).items()} \
        == {lam: count_mod_p(p, n, lam) for lam in range(p)}


@pytest.mark.parametrize("n", range(2, 13))
def test_every_kernel_is_the_truncated_sum_mod_p(n):
    """At every odd p < 400 with p not dividing n: main at K_target and at
    K_w reads y = lambda^n, so its C_e is (-1)^n D_e; koblitz reads
    (n lambda)^n, so its C_e is (-1)^n S_e, and its constant is the lambda = 0
    count; ff reads lambda^-n, so its C_e is (-1)^n D_((-e) mod t)."""
    for p in (q for q in range(3, 400) if is_odd_prime(q) and n % q):
        folds, twisted = folded_terms(p, n)
        kt, t = k_target(p, n), len(folds)
        for digits in sorted({kt, dwork.weil_window(p, n)[0]}):
            assert obeys_mod_p(dwork._kernel("main", p, n, digits), twisted, n), (p, digits)
        kob = dwork._kernel("koblitz", p, n, kt)
        assert obeys_mod_p(kob, folds, n), p
        assert kob.const % p == count_mod_p(p, n, 0), p
        if (p - 1) % n == 0:
            ff = dwork._kernel("ff", p, n, kt)
            assert obeys_mod_p(ff, [twisted[-e % t] for e in range(t)], n), p


# -- the all-y transform against Horner ---------------------------------------------

# the verify_sweep grid (p <= 61 with n = 2..4, p <= 19 with n = 5) and n = 6
SWEEP_GRID = ([(p, n) for n in (2, 3, 4) for p in PRIMES_TO_97 if p <= 61 and n % p]
              + [(p, 5) for p in PRIMES_TO_97 if p <= 19 and p != 5]
              + [(7, 6), (13, 6), (31, 6)])


def sweep_kernels(p, n):
    """(name, kernel) of every main, koblitz and ff kernel at (p, n)."""
    kt = k_target(p, n)
    yield "main", dwork._kernel("main", p, n, kt)
    yield "koblitz", dwork._kernel("koblitz", p, n, kt)
    if (p - 1) % n == 0:
        yield "ff", dwork._kernel("ff", p, n, kt)


@pytest.mark.parametrize("p,n", SWEEP_GRID)
def test_transform_values_match_horner(p, n):
    """The transform covers a kernel's domain, y = 0 and the y with
    y^period = 1, and there equals Horner; Horner raises at every other y.
    Every kernel has period t = (p-1)/d, so its domain is 0 and the d-th
    powers."""
    d = gcd(p - 1, n)
    for name, kernel in sweep_kernels(p, n):
        assert kernel.period == (p - 1) // d, name
        domain = [y for y in range(p) if y == 0 or pow(y, kernel.period, p) == 1]
        got = kernel.residues()
        assert set(got) == set(domain), name
        for y in range(p):
            if y not in domain:
                with pytest.raises(ValueError):
                    kernel.residue(y)
                continue
            assert got[y] == kernel.residue(y), (name, y)


COUNTERS = {"main": count_main, "koblitz": count_koblitz, "relprime": count_relprime,
            "ff": count_ff}


@pytest.mark.parametrize("p,n", SWEEP_GRID)
def test_count_all_matches_single_counts(p, n):
    names = (["main", "koblitz"] + ["relprime"] * (gcd(p - 1, n) == 1)
             + ["ff"] * ((p - 1) % n == 0))
    for name in names:
        got = dwork.count_all(name, p, n)
        lams = range(p) if name == "koblitz" else range(1, p)
        assert got == {lam: COUNTERS[name](p, n, lam) for lam in lams}, name


def test_integer_f_coefficients_match_gk_product_build():
    rng = random.Random(4)
    for p in (q for q in PRIMES_TO_97 if q <= 61):
        for m in (1, 2, 3):
            params = FParams(tuple(rng.randrange(p - 1) for _ in range(m)),
                             tuple(rng.randrange(p - 1) for _ in range(m)))
            for digits in (1, 5):
                assert f_coefficients(params, p, digits) == \
                    reference_f_coefficients(params, p, digits), (p, params, digits)


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
    # at d = 1 the main count has the one class (0, ..., 0), an (n-1)G(n-1)
    for n in range(2, 9):
        pd = derive_params((0,) * n, n, 1)
        assert pd.A_w == tuple(Fraction(h, n) for h in range(1, n))
        assert pd.B_w == (Fraction(1),) * (n - 1)
    for lam in (1, 3, 6):
        assert count_relprime(7, 5, lam) == count_main(7, 5, lam)
    assert count_relprime(5, 3, 2) == oracle.brute_count(5, 3, 2)
    assert count_relprime(7, 5, 1) == oracle.brute_count(7, 5, 1)


def test_ff_examples():
    assert count_ff(5, 4, 2) == oracle.brute_count(5, 4, 2)
    for lam in (1, 3, 7):
        assert count_ff(13, 4, lam) == count_main(13, 4, lam)


def test_ff_generator_independence():
    # the per-class reference at every character generator wbar^alpha is the one kernel
    for p, n in [(13, 4), (13, 3), (11, 5)]:
        kt = k_target(p, n)
        kernel = kernel_state(dwork._kernel("ff", p, n, kt))
        for alpha in (a for a in range(1, p - 1) if gcd(a, p - 1) == 1):
            assert kernel_state(reference_ff_kernel(p, n, kt, alpha)) == kernel, (p, n, alpha)


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


@pytest.mark.parametrize("p,n", [(29, 7), (17, 8), (19, 9), (11, 10)])
def test_all_lambda_counts_match_the_oracle_at_large_n(p, n):
    # d = n at each: the koblitz, main and ff polynomial powers at d
    # residues, all past n = 6
    want = oracle.brute_count_all(p, n)
    assert dwork.count_all("koblitz", p, n) == want
    del want[0]
    assert dwork.count_all("main", p, n) == want
    assert dwork.count_all("ff", p, n) == want


def test_counts_are_deterministic():
    a = method_value("main", 11, 3, 4)
    b = method_value("main", 11, 3, 4)
    assert a == b and a.unit.residue == b.unit.residue
    assert count_main(11, 3, 4) == count_main(11, 3, 4)


# -- preconditions and precision ------------------------------------------------------

def test_instance_preconditions():
    with pytest.raises(InstanceError, match="^p=7 divides n=7: the problem reduces to "
                                            "the lambda=0 diagonal case$"):
        DworkInstance(7, 7, 1)        # p | n
    with pytest.raises(InstanceError, match="^p=9 is not an odd prime$"):
        DworkInstance(9, 2, 1)        # not prime
    with pytest.raises(InstanceError, match="^n must be at least 2$"):
        DworkInstance(7, 1, 1)
    with pytest.raises(InstanceError):
        count_main(7, 3, 0)           # lambda = 0 needs koblitz
    with pytest.raises(InstanceError):
        count_relprime(13, 4, 1)      # d = 4 != 1
    with pytest.raises(InstanceError):
        count_ff(7, 4, 1)             # 7 != 1 mod 4


RECORDS = [PadicUnit(3, 7, 2), gauss_gk(2, 7, 3), DworkInstance(7, 3, 1), ClassRep((0, 1, 2)),
           derive_params((0, 0, 1, 3), 4, 4), GParams((Fraction(1, 2),), (Fraction(1),)),
           FParams((3,), (0,)), CountReport(7, 3, 1, 3, {"main": 21}, True, {"main": 0.5}),
           padic.valued(5, 1, 30, 4)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_pickle(record):
    """Every record refuses assignment, and pickles (verify --jobs sends
    CountReports between processes) to an equal record of the same type."""
    field, value = record._fields[0], record[0]
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_count_report_timings_default_to_a_fresh_dict():
    a, b = (CountReport(7, 3, 1, 3, {"main": 21}, True) for _ in range(2))
    assert a.timings_ms == {} and a.timings_ms is not b.timings_ms


@pytest.mark.parametrize("make, error, message", [
    (lambda: PadicUnit(3, 7, 0), PrecisionError, "unit with < 1 known digit"),
    (lambda: PadicUnit(49, 7, 2), ValueError, "residue out of range for p^precision"),
    (lambda: PadicUnit(14, 7, 2), ValueError, "residue divisible by p: not a unit"),
    (lambda: padic.ValuedPadic(5, 0, PadicUnit(3, 7, 2)), ValueError, "unit prime mismatch"),
    (lambda: GParams((Fraction(1, 2),), ()), ValueError,
     "parameter lists must have equal length"),
    (lambda: FParams((1,), ()), ValueError, "character lists must have equal length"),
])
def test_records_refuse_bad_input(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message


def test_lambda_reduces_mod_p():
    assert DworkInstance(7, 3, -1).lam == 6
    assert DworkInstance(7, 3, 9).lam == 2
    assert count_main(7, 3, -1) == count_main(7, 3, 6)


def test_k_target_policy():
    assert k_target(7, 3) == 3      # 7^3 = 343 > 2*57
    assert k_target(31, 4) == 4     # 31^4 > 2*30784 > 31^3
    for p, n in [(5, 3), (7, 4), (13, 5)]:
        kt = k_target(p, n)
        assert p ** kt > 2 * ((p ** n - 1) // (p - 1)) >= p ** (kt - 1)
        assert k_working(p, n) == kt            # no headroom, no guard digits
        assert k_working(p, n, kt + 2) == kt + 2


@pytest.mark.parametrize("n", range(2, 9))
def test_every_kernel_keeps_the_valuation_floor(n):
    # K_target working digits pin a count only if no term valuation is negative:
    # a kernel holds plain residues, its constant and t = (p-1)/d coefficients
    # ints in [0, p^K_target), for main and koblitz at every odd p < 200 (d = 1
    # at p = 3, both classes mod 4), and ff where p == 1 (mod n)
    for p in filter(is_odd_prime, range(3, 200)):
        if n % p == 0:
            continue
        kt, t = k_target(p, n), (p - 1) // gcd(p - 1, n)
        for method in ["main", "koblitz"] + ["ff"] * ((p - 1) % n == 0):
            kernel = dwork._kernel(method, p, n, kt)
            assert kernel.digits == kt and kernel.period == len(kernel.coeffs) == t
            assert all(type(c) is int and 0 <= c < p ** kt
                       for c in [kernel.const, *kernel.coeffs]), (method, p, n)


@pytest.mark.parametrize("p, n", [(601, 4), (1009, 6), (211, 5)])
def test_all_lambda_counts_at_target_and_target_plus_two(p, n):
    kt = k_target(p, n)
    counts = {}
    for method in ("main", "koblitz", "ff"):
        counts[method] = dwork.count_all(method, p, n)
        assert counts[method] == dwork.count_all(method, p, n, kt + 2), method
    del counts["koblitz"][0]
    assert counts["main"] == counts["koblitz"] == counts["ff"]


def test_main_value_valuation_and_target_precision():
    for p, n in [(7, 3), (7, 4), (11, 3)]:
        kt = k_target(p, n)
        for lam in (1, p - 2):
            value = method_value("main", p, n, lam)
            assert value.valuation >= 0
            assert value.absolute_precision >= kt
            assert count_main(p, n, lam, kt + 2) == count_main(p, n, lam)


@pytest.mark.parametrize("p", [1009, 1013, 1019, 1531, 1999])
def test_weil_deligne_bound_past_the_oracle(p):
    # smooth fibres (lambda^n != 1): |N - (p^(n-1) - 1)/(p - 1)| <= b p^((n-2)/2)
    n = 4
    b = ((n - 1) ** n + (-1) ** n * (n - 1)) // n
    base = (p ** (n - 1) - 1) // (p - 1)
    for lam in (2, 3, p - 2):
        assert pow(lam, n, p) != 1
        assert abs(count_main(p, n, lam) - base) <= b * p ** ((n - 2) // 2), lam


# -- Weil digits on smooth fibres -----------------------------------------------------

def kernel_digits(monkeypatch):
    """The digits of every kernel a count reads from now on, in order."""
    seen, real = [], dwork._kernel
    def recording(method, p, n, digits):
        seen.append(digits)
        return real(method, p, n, digits)
    monkeypatch.setattr(dwork, "_kernel", recording)
    return seen


def weil_admitted(p, n):
    return dwork._checked(p, n, None)[2] is not None


def test_weil_window_and_the_digit_rule():
    # the rule's cases on each side: K_target -> K_w where 2 K_w <= K_target
    for p in (43, 47, 1009, 100003):
        assert dwork.weil_window(p, 4)[0] == 2 and weil_admitted(p, 4)
    assert dwork.weil_window(41, 4)[0] == 3 and not weil_admitted(41, 4)
    assert dwork.weil_window(10007, 6)[0] == 3 and weil_admitted(10007, 6)
    assert dwork.weil_window(31, 6)[0] == 5 and not weil_admitted(31, 6)
    assert dwork.weil_window(1009, 6)[0] == 4 and not weil_admitted(1009, 6)
    assert all(weil_admitted(p, 2) for p in (3, 5, 7, 199))
    assert weil_admitted(17, 3) and not weil_admitted(13, 3)
    for p, n in [(43, 4), (10007, 6), (17, 3), (7, 2), (31, 6), (13, 5)]:
        kw, base, h = dwork.weil_window(p, n)
        b = ((n - 1) ** n + (-1) ** n * (n - 1)) // n
        assert h ** 2 <= b ** 2 * p ** (n - 2) < (h + 1) ** 2
        assert p ** kw > 2 * h >= p ** (kw - 1)
        assert base == (p ** (n - 1) - 1) // (p - 1)
    # only the default K_target reads Weil digits
    assert dwork._checked(1009, 4, 4)[2] is not None
    assert dwork._checked(1009, 4, 6)[2] is None


WEIL_ORACLE_PAIRS = [(p, n) for n in (2, 3, 4) for p in range(3, 200)
                     if is_odd_prime(p) and n % p and weil_admitted(p, n)]


@pytest.mark.parametrize("p, n", WEIL_ORACLE_PAIRS)
def test_weil_digit_counts_match_the_oracle(p, n, monkeypatch):
    # every smooth instance the oracle reaches where the rule admits K_w: the
    # default single count of every applicable method reads K_w digits and
    # equals brute_count; the singular fibres read K_target digits
    assert (n == 4 and p >= 43) or n in (2, 3)
    want = oracle.brute_count_all(p, n)
    kw = dwork._checked(p, n, None)[2][0]
    seen = kernel_digits(monkeypatch)
    for lam in range(1, p):
        smooth = pow(lam, n, p) != 1
        for name in dwork.applicable(p, n, lam):
            seen.clear()
            assert dwork.count(name, p, n, lam) == want[lam], (name, p, n, lam)
            assert seen == [kw if smooth else k_target(p, n)], (name, p, n, lam)
    seen.clear()
    assert count_koblitz(p, n, 0) == want[0] and seen == [k_target(p, n)]


def test_a_residue_outside_the_weil_window_raises(monkeypatch):
    # at (43, 4) the window holds 1807 integers and p^K_w = 1849 residues, so
    # high + 1 mod p^K_w has no representative in it: the miss is certain
    p, n, lam = 43, 4, 2
    kw, low, high = dwork._checked(p, n, None)[2]
    assert (kw, p ** kw, high - low + 1) == (2, 1849, 1807)
    assert pow(lam, n, p) != 1
    assert count_main(p, n, lam) == oracle.brute_count(p, n, lam)
    outside = (high + 1) % p ** kw
    monkeypatch.setattr(padic.CharSum, "residue", lambda self, y: outside)
    with pytest.raises(padic.RangeError, match=f"\\[{low}, {high}\\]"):
        count_main(p, n, lam)
    with pytest.raises(padic.RangeError):
        count_koblitz(p, n, lam)


def test_a_residue_outside_zero_to_bound_raises(monkeypatch):
    # the singular fibre lambda = 1 reads K_target digits and the window
    # [0, bound]; bound + 1 < p^K_target is a residue with no count
    p, n, lam = 43, 4, 1
    kt, bound, weil = dwork._checked(p, n, None)
    assert weil is not None and pow(lam, n, p) == 1 and bound + 1 < p ** kt
    assert count_main(p, n, lam) == oracle.brute_count(p, n, lam)
    monkeypatch.setattr(padic.CharSum, "residue", lambda self, y: bound + 1)
    with pytest.raises(padic.RangeError, match=f"\\[0, {bound}\\]"):
        count_main(p, n, lam)


@pytest.mark.parametrize("p, n, lams", [(1009, 4, range(1, 1009)),
                                        (10007, 6, range(2, 10007, 97))])
def test_target_counts_obey_weil_and_equal_the_weil_digit_counts(p, n, lams):
    # past the oracle: count_all's K_target counts owe nothing to the window,
    # so they check it: they obey the bound, and the K_w single counts equal them
    kw, base, h = dwork.weil_window(p, n)
    assert weil_admitted(p, n) and 2 * kw <= k_target(p, n)
    grid = dwork.count_all("main", p, n)
    for lam in lams:
        if pow(lam, n, p) != 1:
            assert abs(grid[lam] - base) <= h, lam
        assert count_main(p, n, lam) == grid[lam], lam


@pytest.mark.parametrize("p", [1009, 1013, 1201])
def test_main_koblitz_ff_agree_past_the_oracle(p):
    # three formula families: the main kernel shares no Gauss-sum code with the others
    for lam in (2, 3, p - 2):
        assert count_main(p, 4, lam) == count_koblitz(p, 4, lam) == count_ff(p, 4, lam), lam


# -- the per-lambda integer path ------------------------------------------------------

def outcome(fn):
    """fn(), or the type and text of what it raises."""
    try:
        return fn()
    except Exception as exc:  # compared between the two paths, whatever it is
        return type(exc), str(exc)


def path_kernels(p, n, kt):
    """(name, kernel) of every main, koblitz and ff kernel at (p, n) and
    K_target kt."""
    yield "main", dwork._kernel("main", p, n, kt)
    yield "koblitz", dwork._kernel("koblitz", p, n, kt)
    if (p - 1) % n == 0:
        yield "ff", dwork._kernel("ff", p, n, kt)


@pytest.mark.parametrize("n", range(2, 7))
def test_integer_path_matches_the_valued_path(n):
    """At every y of every kernel's domain the transform gives the per-y
    residues, and dwork._reconstruct gives what reconstruct_integer makes of
    the residue as a ValuedPadic (padic.valued); at a too-low K_target (1, 2)
    both raise the same exception, and _reconstruct's text begins with
    reconstruct_integer's (it appends the precision ledger)."""
    for p in filter(is_odd_prime, range(3, 100)):
        if n % p == 0:
            continue
        bound = (p ** n - 1) // (p - 1)
        for kt in (k_target(p, n), 1, 2):
            for name, kernel in path_kernels(p, n, kt):
                domain = [y for y in range(p) if y == 0 or pow(y, kernel.period, p) == 1]
                every = kernel.residues()
                assert set(every) == set(domain), (name, p)
                for y in domain:
                    r = kernel.residue(y)
                    assert every[y] == r, (name, p, y)
                    got = outcome(lambda: dwork._reconstruct(kernel, r, 0, bound, kt))
                    want = outcome(lambda: padic.reconstruct_integer(
                        padic.valued(p, 0, r, kernel.digits), bound))
                    if isinstance(want, int):
                        assert got == want, (name, p, n, kt, y)
                    else:
                        assert isinstance(got, tuple) and got[0] is want[0], (name, p, n, kt, y)
                        assert got[1].startswith(want[1]), (got, want)
                    if kt == k_target(p, n):
                        assert isinstance(got, int), (name, p, n, y)


@pytest.mark.parametrize("n", range(2, 7))
def test_a_memoized_residue_is_the_cold_kernels_and_the_transforms(n):
    """A warm residue(y) (and residue(y + p)) equals a cold kernel's and
    residues()'s; residues() leaves the memo as it was, the memo holds at
    most t + 1 values, and a y outside the domain raises before and after
    the memo is warm and is never stored."""
    for p in filter(is_odd_prime, range(3, 100)):
        if n % p == 0:
            continue
        for name, kernel in path_kernels(p, n, k_target(p, n)):
            t = kernel.period
            cold = padic.CharSum(p, kernel.digits, kernel.const, kernel.coeffs)
            memo = dict(kernel._memo)
            every = kernel.residues()
            assert kernel._memo == memo, (name, p)
            outside = [y for y in range(1, p) if pow(y, t, p) != 1][:1]
            for y in outside:
                with pytest.raises(ValueError, match="outside the domain"):
                    kernel.residue(y)
            for y in every:
                warm = kernel.residue(y)
                assert kernel.residue(y) == kernel.residue(y + p) == warm, (name, p, y)
                assert warm == cold.residue(y) == every[y], (name, p, y)
            assert len(kernel._memo) <= t + 1, (name, p)
            for y in outside:
                with pytest.raises(ValueError, match="outside the domain"):
                    kernel.residue(y)
                assert y not in kernel._memo, (name, p, y)


@pytest.mark.parametrize("p, n, passes", [(31, 6, {6: 5}), (1009, 6, {6: 168}),
                                          (43, 4, {2: 20, 4: 1})])
def test_a_family_of_single_counts_runs_one_horner_pass_per_y(monkeypatch, p, n, passes):
    # only CharSum reads the Teichmuller table through padic: each read is one
    # Horner pass, keyed by its kernel's digits.  At (43, 4) the smooth fibres
    # read the K_w = 2 kernel at the 20 squares y != 1, and lambda^4 = 1 the
    # K_target = 4 kernel; at d = 6 every count reads K_target
    calls, real = Counter(), padic.teichmuller_table

    def counted(q, digits):
        calls[digits] += 1
        return real(q, digits)

    dwork._kernel.cache_clear()
    monkeypatch.setattr(padic, "teichmuller_table", counted)
    family = [count_main(p, n, lam) for lam in range(1, p)]
    assert calls == Counter(passes)
    assert sum(passes.values()) == len({pow(lam, n, p) for lam in range(1, p)})
    assert family == list(dwork.count_all("main", p, n).values())


def test_main_koblitz_and_ff_read_one_y0_power(monkeypatch):
    # with the caches cleared, the three builders at (13, 3) and verify's
    # group over them each take the Y^0 power once
    calls, real = [], dwork._y0_read

    def counted(rows, n, p, digits):
        calls.append((p, n, digits))
        return real(rows, n, p, digits)

    monkeypatch.setattr(dwork, "_y0_read", counted)
    kt = k_target(13, 3)
    for run in (lambda: [dwork._kernel(name, 13, 3, kt) for name in ("main", "koblitz", "ff")],
                lambda: oracle.verify_group(13, 3, [1, 2])):
        dwork._kernel.cache_clear()
        dwork._gamma_y0.cache_clear()
        calls.clear()
        run()
        assert calls == [(13, 3, kt)]


def test_warm_counts_run_no_primality_test_and_build_no_valued_padic(monkeypatch):
    calls = Counter()
    real_prime, real_new = dwork.is_odd_prime, padic.ValuedPadic.__new__

    def counted_prime(m):
        calls["is_odd_prime"] += 1
        return real_prime(m)

    def counted_new(cls, *args, **kwargs):
        calls["ValuedPadic"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(dwork, "is_odd_prime", counted_prime)
    monkeypatch.setattr(padic, "is_odd_prime", counted_prime)
    monkeypatch.setattr(padic.ValuedPadic, "__new__", counted_new)
    assert padic.valued(5, 0, 7, 3) == padic.ValuedPadic(5, 0, PadicUnit(7, 5, 3))
    assert calls["ValuedPadic"] == 2  # the hook sees a construction
    first = count_main(31, 6, 1)
    calls.clear()
    warm = [count_main(31, 6, lam) for lam in range(2, 31)]
    assert calls == Counter()
    assert [first] + warm == list(dwork.count_all("main", 31, 6).values())


def test_caches_stay_bounded_over_primes_and_warm_over_one_family():
    # a sweep over primes keeps each lru cache at padic.CACHE_SIZE entries, and
    # one (p, n) family of single counts then misses each cache once
    caches = (dwork._checked, dwork._kernel, dwork._gamma_y0, frac_gamma_table,
              teichmuller_table)
    assert all(cache.cache_info().maxsize == padic.CACHE_SIZE for cache in caches)
    for p in filter(is_odd_prime, range(11, 200)):
        count_main(p, 4, 3)
        assert all(cache.cache_info().currsize <= padic.CACHE_SIZE for cache in caches), p
    misses = [cache.cache_info().misses for cache in caches]
    family = [count_main(31, 6, lam) for lam in range(1, 31)]
    assert [cache.cache_info().misses - m for cache, m in zip(caches, misses)] == [1] * 5
    assert family == list(dwork.count_all("main", 31, 6).values())


@pytest.mark.parametrize("p, n", [(13, 3), (11, 3)])
def test_every_method_shares_one_check_per_p_n_and_k_target(p, n):
    # verify's group (main, koblitz and ff at (13, 3), main and koblitz at
    # (11, 3)) and a count by every applicable name each run the checks once
    dwork._checked.cache_clear()
    oracle.verify_group(p, n, [1, 2])
    assert dwork._checked.cache_info().misses == 1
    dwork._checked.cache_clear()
    names = dwork.applicable(p, n, 3)
    assert len(names) == 3
    assert all(dwork.count(name, p, n, 3) == count_koblitz(p, n, 3) for name in names)
    assert dwork._checked.cache_info().misses == 1


def test_checks_run_once_per_kernel_and_keep_their_order():
    # the cached checks still refuse each bad input, in the order they always ran:
    # the instance before K_target, K_target before the method, lambda = 0 last
    with pytest.raises(InstanceError, match="not an odd prime"):
        count_main(9, 2, 1, kt=0)
    with pytest.raises(ValueError, match="K_target must be at least 1"):
        count_main(7, 3, 1, kt=0)
    with pytest.raises(ValueError, match="K_target must be at least 1"):
        dwork.count("nonesuch", 7, 3, 1, 0)
    with pytest.raises(ValueError, match="unknown method"):
        dwork.count("nonesuch", 7, 3, 1, None)
    with pytest.raises(InstanceError, match="d = 1 formula"):
        count_relprime(13, 4, 0)
    with pytest.raises(InstanceError, match="lambda = 0"):
        count_ff(7, 4, 0)           # before ff's own p == 1 (mod n) check
    for _ in range(2):              # a failed check is not cached as a pass
        with pytest.raises(InstanceError, match="divides"):
            count_main(7, 7, 1)


def test_applicable_and_count_read_one_rule():
    # count agrees with the Gauss-sum count exactly where applicable lists the
    # method, and refuses it everywhere else
    names = ("main", "koblitz", "relprime", "ff")
    for p in (q for q in range(3, 60) if is_odd_prime(q)):
        for n in (m for m in range(2, 8) if m % p):
            for lam in sorted({0, 1, p - 1}):
                covered = dwork.applicable(p, n, lam)
                assert covered == [name for name in names if name in covered]
                for name in names:
                    if name in covered:
                        got = dwork.count(name, p, n, lam)
                        assert got == count_koblitz(p, n, lam), (name, p, n, lam)
                    else:
                        with pytest.raises(InstanceError):
                            dwork.count(name, p, n, lam)
