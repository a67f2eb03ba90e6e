#!/usr/bin/env python3
"""Sweep the desk-scale verification grid and print a timing summary.

Usage: python scripts/verify_grid.py [pmax] [n1,n2,...] [jobs]
Defaults reproduce the full desk-scale run: p <= 31 for n in 2..4 plus the
p <= 13 slice for n = 5.  Each method runs once per (p, n) group and its
per-instance timing is that group time over the lambdas it serves, so the
per-method sums are amortized group times: their total is the time each
method took, not a sum of separate per-lambda counts.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dworkcount import sweep_verify  # noqa: E402


def run(pmax, n_set, jobs):
    t0 = time.time()
    reports = sweep_verify(pmax, n_set, "all", jobs=jobs)
    bad = [r for r in reports if not r.agreement]
    per_method = {}
    for r in reports:
        for name, ms in r.timings_ms.items():
            per_method.setdefault(name, 0.0)
            per_method[name] += ms
    print(f"p <= {pmax}, n in {sorted(n_set)}: {len(reports)} instances, "
          f"{len(bad)} disagreements, {time.time() - t0:.1f}s wall")
    for name in sorted(per_method):
        print(f"    {name:>9}: {per_method[name] / 1000:.2f}s summed")
    for r in bad:
        print(f"    DISAGREES: p={r.p} n={r.n} lambda={r.lam}: {r.methods}")
    return not bad


if __name__ == "__main__":
    if len(sys.argv) > 1:
        pmax = int(sys.argv[1])
        n_set = [int(v) for v in sys.argv[2].split(",")] if len(sys.argv) > 2 else [2, 3, 4]
        jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 1
        ok = run(pmax, n_set, jobs)
    else:
        ok = run(31, [2, 3, 4], 1)
        ok = run(13, [5], 1) and ok
    sys.exit(0 if ok else 3)
