#!/usr/bin/env python3
"""Write bench/reference.json: the answers the benchmark checks against.

    python3 bench/make_reference.py

Covers every input any seed can draw.  The counts come from a path other
than the timed one (which is the main formula):

* family_n6 (p = 31, n = 6, every lambda): brute_count_all, the exhaustive
  enumeration oracle;
* lseries_n4 (every prime in [300, 900], lambda in 2..9): count_koblitz, the
  Gauss-sum count, because enumeration (p^3 tuples per prime) is out of reach.

verify_sha256 pins the stdout of each `verify` call.  verify checks itself
(exit 0 means every method matched the oracle); the digest only records that
its output stays byte-identical.  Takes about ten minutes on one core.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from dworkcount import brute_count_all, cli, count_koblitz  # noqa: E402


def main():
    counts = {}
    family = brute_count_all(run.FAMILY_P, run.FAMILY_N)
    counts[f"{run.FAMILY_P},{run.FAMILY_N}"] = {str(lam): family[lam]
                                                for lam in range(1, run.FAMILY_P)}
    for p in run.LSERIES_PRIMES:
        counts[f"{p},{run.LSERIES_N}"] = {str(lam): count_koblitz(p, run.LSERIES_N, lam)
                                          for lam in run.LSERIES_LAMBDAS}
        print(f"p = {p} done", file=sys.stderr, flush=True)
    digests = {}
    for pmax, n in run.VERIFY_CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--pmax", str(pmax), "--n-set", str(n),
                           "--json", "--jobs", "1"])
        if rc != 0:
            raise SystemExit(f"verify --pmax {pmax} --n-set {n} exited {rc}")
        digests[f"{pmax},{n}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    reference = {
        "command": "python3 bench/make_reference.py",
        "sources": {f"{run.FAMILY_P},{run.FAMILY_N}": "brute_count_all",
                    f"p in [300, 900], n = {run.LSERIES_N}": "count_koblitz",
                    "verify_sha256": "sha256 of `verify --pmax P --n-set n --json --jobs 1`"},
        "counts": counts,
        "verify_sha256": digests,
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
