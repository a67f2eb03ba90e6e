#!/usr/bin/env python3
"""Time main counts at K_w against K_target, the measurement behind the rule
2 K_w <= K_target in dwork._checked.

Usage:
    python3 scripts/weil_rule.py [--repeat R]

For each (p, n) in PAIRS, two kinds of run: one count at lambda = 2, and the
family of single counts at lambda = 1..p-1.  Each run is a fresh interpreter,
so the tables and kernels are built inside the timed span (the import is not
timed), with _checked's Weil digits forced on (K_w on every smooth fibre) or
off (K_target throughout), whatever the rule says.  The two sides alternate,
R times each, must return the same counts, and the script prints the median
milliseconds per side.
"""

import argparse
import pathlib
import statistics
import subprocess
import sys

PAIRS = [(13, 3), (43, 4), (601, 4), (1009, 4), (41, 4), (31, 6), (1009, 6)]

WORKER = """
import sys, time
sys.path.insert(0, sys.argv[1])
from dworkcount import dwork
p, n, weil, family = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "kw", sys.argv[5] == "family"
checked = dwork._checked
def forced(p, n, kt):
    kt, bound, _ = checked(p, n, kt)
    kw, base, h = dwork.weil_window(p, n)
    return kt, bound, (kw, base - h, base + h) if weil else None
dwork._checked = forced
t0 = time.perf_counter()
counts = [dwork.count("main", p, n, lam) for lam in (range(1, p) if family else [2])]
print(time.perf_counter() - t0, hash(tuple(counts)))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, src)
    from dworkcount import dwork
    print("(p, n)      K_w/K_target  kind    K_w ms  K_target ms")
    for p, n in PAIRS:
        digits = f"{dwork.weil_window(p, n)[0]}/{dwork.k_target(p, n)}"
        for kind in ("one", "family"):
            runs, outs = {"kw": [], "kt": []}, set()
            for _ in range(args.repeat):
                for side in runs:
                    out = subprocess.run(
                        [sys.executable, "-c", WORKER, src, str(p), str(n), side, kind],
                        capture_output=True, text=True, check=True).stdout.split()
                    runs[side].append(float(out[0]) * 1000)
                    outs.add(out[1])
            assert len(outs) == 1, f"K_w and K_target counts differ at {(p, n)}"
            print(f"{str((p, n)):<11} {digits:<13} {kind:<7} "
                  f"{statistics.median(runs['kw']):6.2f}  {statistics.median(runs['kt']):6.2f}")


if __name__ == "__main__":
    main()
