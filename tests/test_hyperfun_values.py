"""Values of eval_G and eval_F, pinned exactly.

tests/data/hyperfun_values.json records (valuation, unit residue, unit
precision, absolute precision) of eval_G and eval_F over p in {3, 5, 7, 11, 13},
digits (the CLI's --kw) in {1, 2, 5} and every x in F_p.  The parameter sets
include the empty lists, the README example, fixed sets whose sums reach
negative valuations, random sets with denominator p-1, and (for eval_G only)
sets with a denominator that does not divide p-1.  A zero is recorded with a
null valuation and its absolute precision, null when it is exact.  Regenerate
with `PYTHONPATH=src python tests/test_hyperfun_values.py` (only when a change
to the values is intended).
"""

import json
import pathlib
import random
from fractions import Fraction

from dworkcount.hyperfun import FParams, GParams, eval_F, eval_G

DATA = pathlib.Path(__file__).parent / "data" / "hyperfun_values.json"
PRIMES = (3, 5, 7, 11, 13)
DIGITS = (1, 2, 5)


def _off_denominator(p):
    """The smallest denominator coprime to p that does not divide p-1."""
    return next(den for den in range(3, 4 * p) if den % p and (p - 1) % den)


def _g_params(p, rng):
    q = p - 1
    den = _off_denominator(p)
    sets = [
        GParams((), ()),
        GParams((Fraction(1, 2),), (Fraction(1),)),
        GParams((Fraction(q - 1, q),) * 2, (Fraction(1, q),) * 2),
        GParams((Fraction(1, q), Fraction(q - 1, q)), (Fraction(1, q), Fraction(2, q))),
        GParams((Fraction(1, den), Fraction(1, 2)), (Fraction(1), Fraction(den - 1, den))),
    ]
    for m in (1, 2, 3):
        sets.append(GParams(tuple(Fraction(rng.randrange(q), q) for _ in range(m)),
                            tuple(Fraction(rng.randrange(q), q) for _ in range(m))))
    return sets


def _f_params(p, rng):
    q = p - 1
    sets = [FParams((), ()), FParams((q // 2,), (0,)), FParams((q - 1,) * 2, (1,) * 2)]
    for m in (1, 2, 3):
        sets.append(FParams(tuple(rng.randrange(q) for _ in range(m)),
                            tuple(rng.randrange(q) for _ in range(m))))
    return sets


def _cases():
    rng = random.Random(20160301)
    for p in PRIMES:
        g_sets, f_sets = _g_params(p, rng), _f_params(p, rng)
        for digits in DIGITS:
            for params in g_sets:
                a = [str(v) for v in params.a]
                b = [str(v) for v in params.b]
                for x in range(p):
                    yield "G", p, digits, a, b, x
            for params in f_sets:
                for x in range(p):
                    yield "F", p, digits, list(params.a_exps), list(params.b_exps), x


def _record(kind, p, digits, a, b, x):
    if kind == "G":
        v = eval_G(GParams(tuple(map(Fraction, a)), tuple(map(Fraction, b))), x, p, digits)
    else:
        v = eval_F(FParams(tuple(a), tuple(b)), x, p, digits)
    head = [kind, p, digits, a, b, x]
    if v.is_zero:
        prec = v.absolute_precision
        return head + [None, 0, 0, None if prec == float("inf") else prec]
    return head + [v.valuation, v.unit.residue, v.unit.precision, v.absolute_precision]


def test_hyperfun_values_match_golden():
    want = json.loads(DATA.read_text())
    got = [_record(*case) for case in _cases()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_golden_grid_covers_the_edge_cases():
    rows = json.loads(DATA.read_text())
    for kind in ("G", "F"):
        mine = [r for r in rows if r[0] == kind]
        assert any(r[6] is not None and r[6] < 0 for r in mine), kind
        assert any(r[6] is None and r[9] is not None for r in mine), kind  # cancellation
        assert any(r[5] == 0 and r[9] is None for r in mine), kind  # x = 0
        assert any(not r[3] for r in mine), kind  # empty parameter lists
        assert {r[2] for r in mine} >= {1, 5}
    assert any(r[0] == "G" and any((r[1] - 1) % Fraction(q).denominator for q in r[3] + r[4])
               for r in rows)


if __name__ == "__main__":
    rows = [_record(*case) for case in _cases()]
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} values to {DATA}")
