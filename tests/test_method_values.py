"""Pre-reconstruction values of every formula method, pinned exactly.

tests/data/method_values.json records (valuation, unit residue, absolute
precision) of method_value(...) for each applicable method except the oracle,
over p in {5, 7, 11, 13, 17}, n = 2..5 with p not dividing n, and
lambda in {0, 1, 2, p-1}.  Regenerate with
`PYTHONPATH=src python tests/test_method_values.py` (only when a change to the
values is intended).

The records hold the values at K_target working digits.  They were first made
at K_target + n + 1, the digits an earlier policy carried, so
test_golden_values_truncate_the_former_precision pins each record to the value
at K_target + n + 1 digits truncated to the record's absolute precision.
"""

import json
import pathlib

from dworkcount.dwork import applicable, k_target, method_value

DATA = pathlib.Path(__file__).parent / "data" / "method_values.json"
PRIMES = (5, 7, 11, 13, 17)
NS = (2, 3, 4, 5)


def _cases():
    for p in PRIMES:
        for n in NS:
            if n % p == 0:
                continue
            for lam in sorted({0, 1, 2, p - 1}):
                # the golden file records koblitz first, then dwork's order
                for name in sorted(applicable(p, n, lam), key=lambda m: m != "koblitz"):
                    yield name, p, n, lam


def _record(name, p, n, lam, kt=None):
    v = method_value(name, p, n, lam, kt)
    if v.is_zero:
        return [name, p, n, lam, None, 0, v.absolute_precision]
    return [name, p, n, lam, v.valuation, v.unit.residue, v.absolute_precision]


def _truncate(record, prec):
    """The record of the same value known only to absolute precision prec."""
    name, p, n, lam, val, residue, known = record
    assert prec <= known
    if val is None or val >= prec:
        return [name, p, n, lam, None, 0, prec]
    return [name, p, n, lam, val, residue % p ** (prec - val), prec]


def test_method_values_match_golden():
    want = json.loads(DATA.read_text())
    got = [_record(*case) for case in _cases()]
    assert len(got) == len(want) == 184
    for g, w in zip(got, want):
        assert g == w


def test_golden_values_truncate_the_former_precision():
    # same valuation, and the unit congruent mod p^(precision - valuation)
    for w in json.loads(DATA.read_text()):
        name, p, n, lam = w[:4]
        assert w == _truncate(_record(name, p, n, lam, k_target(p, n) + n + 1), w[-1])


if __name__ == "__main__":
    rows = [_record(*case) for case in _cases()]
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} values to {DATA}")
