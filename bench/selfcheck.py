#!/usr/bin/env python3
"""Self-checks of the benchmark itself (about half a minute):

    python3 bench/selfcheck.py

1. BENCHMARK.json names the workloads and metrics run.py reports.
2. The same seed gives identical inputs, a different seed different inputs.
3. A deliberately wrong reference shows up as failed counts (failed_frac is
   failed / attempted).
4. A traced pass returns the same counts as an untraced one on the same
   inputs, and for verify_sweep the same stdout digest.
"""

import copy
import json
import os
import sys
import time

import run


def run_pass(workload, inputs, traced):
    """One whole pass, limited like a benchmark run."""
    return run.run_pass(workload, inputs, traced, None, time.perf_counter() + run.RUN_LIMIT_S)


def check_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_inputs():
    for workload in run.WORKLOADS:
        for index in range(3):
            assert run.make_inputs(workload, 7, index) == run.make_inputs(workload, 7, index)
        first = [run.make_inputs(workload, 1, i) for i in range(3)]
        other = [run.make_inputs(workload, 2, i) for i in range(3)]
        assert first != other, workload
    lseries = run.make_inputs("lseries_n4", 3, 0)
    assert len(set(lseries["primes"])) == len(lseries["primes"]) == 2 * run.LSERIES_STRATA
    assert lseries["lam"] != lseries["lam0"]
    assert sorted(run.make_inputs("family_n6", 3, 0)["lams"]) == list(range(1, run.FAMILY_P))


def check_wrong_reference(reference):
    bad = copy.deepcopy(reference)
    for lam in bad["counts"][f"{run.FAMILY_P},{run.FAMILY_N}"]:
        bad["counts"][f"{run.FAMILY_P},{run.FAMILY_N}"][lam] += 1
    for key in bad["verify_sha256"]:
        bad["verify_sha256"][key] = "0" * 64
    lams = run.make_inputs("family_n6", 1, 0)["lams"][:3]
    out = run_pass("family_n6", {"p": run.FAMILY_P, "n": run.FAMILY_N, "lams": lams}, False)
    assert run.failures([out], reference)[1] == 0
    assert run.failures([out], bad)[1] == len(lams)
    out = run_pass("verify_sweep", {"calls": [[19, 5]]}, False)
    assert run.failures([out], reference)[1] == 0
    assert run.failures([out], bad)[1] == run.verify_instances(19, 5)


def check_traced_matches(reference):
    lams = run.make_inputs("family_n6", 1, 0)["lams"][:3]
    for workload, inputs in (
            ("lseries_n4", {**run.make_inputs("lseries_n4", 1, 0), "primes": [307, 661]}),
            ("family_n6", {"p": run.FAMILY_P, "n": run.FAMILY_N, "lams": lams}),
            ("verify_sweep", {"calls": [[61, 2], [19, 5]]})):
        plain = run_pass(workload, inputs, False)
        traced = run_pass(workload, inputs, True)
        assert plain["compare"] == traced["compare"], workload
        assert run.failures([plain, traced], reference)[1] == 0
        assert (set(traced["layers"]) | set(traced["samples"])
                == set(run.PER_LAYER) - {"trace.overhead_frac"})


def main():
    reference = run.load_reference()
    check_metric_names()
    check_inputs()
    check_wrong_reference(reference)
    check_traced_matches(reference)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
