"""Pre-reconstruction values of every formula method, pinned exactly.

tests/data/method_values.json records (valuation, unit residue, absolute
precision) of method_value(...) for each applicable method except the oracle,
over p in {5, 7, 11, 13, 17}, n = 2..5 with p not dividing n, and
lambda in {0, 1, 2, p-1}.  Regenerate with
`PYTHONPATH=src python tests/test_method_values.py` (only when a change to the
values is intended).
"""

import json
import pathlib

from dworkcount import oracle
from dworkcount.dwork import method_value

DATA = pathlib.Path(__file__).parent / "data" / "method_values.json"
PRIMES = (5, 7, 11, 13, 17)
NS = (2, 3, 4, 5)


def _cases():
    for p in PRIMES:
        for n in NS:
            if n % p == 0:
                continue
            for lam in sorted({0, 1, 2, p - 1}):
                for name in oracle._applicable_methods(p, n, lam):
                    if name != "oracle":
                        yield name, p, n, lam


def _record(name, p, n, lam):
    v = method_value(name, p, n, lam)
    if v.is_zero:
        return [name, p, n, lam, None, 0, v.absolute_precision]
    return [name, p, n, lam, v.valuation, v.unit.residue, v.absolute_precision]


def test_method_values_match_golden():
    want = json.loads(DATA.read_text())
    got = [_record(*case) for case in _cases()]
    assert len(got) == len(want) == 184
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    rows = [_record(*case) for case in _cases()]
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} values to {DATA}")
