#!/usr/bin/env python3
"""Time all-lambda counts at the scale of the north-star targets, cold
single counts at scale, and the CLI's cold start.

Usage:
    python3 scripts/bench_scale.py [--src DIR] [--parent DIR] > BENCH_<PR>.json

Each all-lambda timing is one `dwork.count_all(method, p, n)` over every lambda
the method covers (F_p^* for main and ff, all of F_p for koblitz), run in a
fresh interpreter that imports `dworkcount` from DIR (default: this checkout's
src), so the lru-cached tables and kernels start cold; for these cases
interpreter start-up and the import are not timed.  With --parent, the same
cases are also timed on a second source tree (say, a `git archive` of the
parent commit unpacked elsewhere), alternating which side runs first, and the
script checks that both sides return the same counts.  Each case runs REPEAT
times per side.  A run that the method refuses (dwork.InstanceError, say a
budget) is recorded as "refused"; every other run also checks, untimed, that
its counts equal the koblitz counts at each lambda it covers.

The two cold-start cases run COLD_REPEAT times per side, alternating sides,
each in a fresh interpreter: `import dworkcount.cli` alone (timed inside the
interpreter), and the whole `python -m dworkcount.cli` COUNT_ARGV command
(wall time seen by this script, start-up included), with a bare
`python -c pass` timed the same way beside it; both sides must print the
same count.  The cold single counts at scale (SINGLE_ARGVS, where the tables
and the kernel build dominate) are timed the same way, SINGLE_REPEAT times
per side, and both sides must print the same count.
The result is one JSON document on stdout (progress goes to stderr): per case,
every run, the median per side and the checks.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

CASES = [("main", 1009, 7), ("main", 1009, 9), ("main", 1021, 10), ("main", 1021, 12),
         ("main", 1009, 14), ("main", 101, 50), ("main", 10009, 4), ("main", 10007, 4),
         ("main", 30011, 4), ("koblitz", 1021, 10), ("koblitz", 10009, 4),
         ("koblitz", 101, 50), ("ff", 1009, 8), ("ff", 1021, 12), ("ff", 1009, 14),
         ("ff", 101, 50)]
REPEAT = 3
COLD_REPEAT = 15
COUNT_ARGV = ["count", "--p", "601", "--n", "4", "--lambda", "3", "--method", "main"]
SINGLE_ARGVS = [["count", "--p", "100003", "--n", "4", "--lambda", "3", "--method", "main"],
                ["count", "--p", "10007", "--n", "6", "--lambda", "3", "--method", "main"]]
SINGLE_REPEAT = 5

IMPORT_WORKER = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dworkcount.cli
print(time.perf_counter() - t0)
"""

WORKER = """
import hashlib, sys, time
sys.path.insert(0, sys.argv[1])
from dworkcount import dwork
method, p, n = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
t0 = time.perf_counter()
try:
    counts = dwork.count_all(method, p, n)
except dwork.InstanceError:
    print("refused")
    sys.exit()
elapsed = time.perf_counter() - t0
koblitz = counts if method == "koblitz" else dwork.count_all("koblitz", p, n)
print(elapsed, hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest(),
      all(koblitz[lam] == c for lam, c in counts.items()))
"""


def time_once(src, method, p, n):
    """(seconds, sha256 of the sorted counts, whether they equal koblitz's) of
    one cold all-lambda count, or ("refused", None, True)."""
    out = subprocess.run([sys.executable, "-c", WORKER, str(src), method, str(p), str(n)],
                         check=True, capture_output=True, text=True).stdout.split()
    if out == ["refused"]:
        return "refused", None, True
    return round(float(out[0]), 3), out[1], out[2] == "True"


def wall_once(args, src=None):
    """(milliseconds, stdout) of one fresh interpreter run with these
    arguments, importing `dworkcount` from src when given."""
    env = dict(os.environ) if src is None else dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return round((time.perf_counter() - t0) * 1000, 1), out


def with_medians(case):
    """case with the median of each side's runs added, reported on stderr."""
    case["median_ms"] = {side: round(statistics.median(v), 1)
                         for side, v in case["runs_ms"].items()}
    print(f"{case['case']}: " + ", ".join(f"{side} {m:.1f} ms" for side, m
                                          in case["median_ms"].items()), file=sys.stderr)
    return case


def cold_start(sides):
    """The two cold-start cases, as JSON-ready dicts, and whether both sides
    printed the same count."""
    imports, counts = {side: [] for side in sides}, {side: [] for side in sides}
    bare, outputs = [], set()
    for r in range(COLD_REPEAT):
        bare.append(wall_once(["-c", "pass"])[0])
        for side in list(sides) if r % 2 == 0 else list(reversed(sides)):
            seconds = float(wall_once(["-c", IMPORT_WORKER, str(sides[side])])[1])
            imports[side].append(round(seconds * 1000, 1))
            ms, out = wall_once(["-m", "dworkcount.cli", *COUNT_ARGV], sides[side])
            counts[side].append(ms)
            outputs.add(out)
    cases = [with_medians({"case": "import dworkcount.cli", "runs_ms": imports}),
             with_medians({"case": "python -m dworkcount.cli " + " ".join(COUNT_ARGV),
                           "runs_ms": counts,
                           "bare_interpreter_ms": {"runs": bare,
                                                   "median": statistics.median(bare)},
                           "counts_agree": len(outputs) == 1})]
    print(f"bare interpreter: {statistics.median(bare):.1f} ms", file=sys.stderr)
    return cases, len(outputs) == 1


def single_counts(sides):
    """The cold single-count cases, as JSON-ready dicts, and whether both
    sides printed the same count in each."""
    cases, ok = [], True
    for argv in SINGLE_ARGVS:
        runs, outputs = {side: [] for side in sides}, set()
        for r in range(SINGLE_REPEAT):
            for side in list(sides) if r % 2 == 0 else list(reversed(sides)):
                ms, out = wall_once(["-m", "dworkcount.cli", *argv], sides[side])
                runs[side].append(ms)
                outputs.add(out)
        cases.append(with_medians({"case": "python -m dworkcount.cli " + " ".join(argv),
                                   "runs_ms": runs, "output": sorted(outputs),
                                   "counts_agree": len(outputs) == 1}))
        ok = ok and len(outputs) == 1
    return cases, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1] / "src",
                        help="source tree timed as the change (default: this checkout)")
    parser.add_argument("--parent", type=pathlib.Path,
                        help="a second source tree, timed as the parent")
    args = parser.parse_args(argv)
    sides = {"change": args.src}
    if args.parent is not None:
        sides["parent"] = args.parent
    cold, ok = cold_start(sides)
    single, single_ok = single_counts(sides)
    ok = ok and single_ok
    cases = []
    for method, p, n in CASES:
        runs = {side: [] for side in sides}
        digests, koblitz_agrees = set(), True
        for r in range(REPEAT):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for side in order:
                seconds, digest, agrees = time_once(sides[side], method, p, n)
                runs[side].append(seconds)
                if digest is not None:
                    digests.add(digest)
                koblitz_agrees = koblitz_agrees and agrees
        medians = {side: "refused" if "refused" in v else statistics.median(v)
                   for side, v in runs.items()}
        case = {"method": method, "p": p, "n": n, "runs_s": runs, "median_s": medians,
                "counts_agree": len(digests) == 1,
                "equals_koblitz": koblitz_agrees}
        ok = ok and case["counts_agree"] and koblitz_agrees
        print(f"{method} p={p} n={n}: " + ", ".join(
            f"{side} {m}" if m == "refused" else f"{side} {m:.2f} s" for side, m in medians.items())
              + ("" if case["counts_agree"] else "  COUNTS DIFFER")
              + ("" if koblitz_agrees else "  NOT EQUAL TO KOBLITZ"), file=sys.stderr)
        cases.append(case)
    print(json.dumps({"python": sys.version.split()[0], "machine": platform.machine(),
                      "cpus": os.cpu_count(), "bytecode_writes": not sys.flags.dont_write_bytecode,
                      "repeat": REPEAT, "cold_repeat": COLD_REPEAT, "cold_start": cold,
                      "single_repeat": SINGLE_REPEAT, "single_counts": single,
                      "cases": cases}, indent=2))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
