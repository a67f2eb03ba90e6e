#!/usr/bin/env python3
"""The dworkcount benchmark: three workloads, end-to-end metrics, and a traced
per-layer split, all checked against committed reference counts.

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload lseries_n4 --seed 1 --seconds 35 --trace 0

With --workload, the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1); the line before it carries the details
(environment, seed, tail percentile, failures).  Each pass runs in a fresh
interpreter (bench/worker.py), so every lru-cached table and engine starts
cold and peak RSS belongs to one pass.  One client, closed loop: the next
count starts when the previous one returns.

This file never imports dworkcount: it makes the inputs from the seed, hands
them to the worker, and checks what comes back.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_LIMIT_S = 170  # a run that is not done by then is killed and fails

WORKLOADS = ("lseries_n4", "family_n6", "verify_sweep")

END_TO_END = {"setup_s": "s", "run_s": "s", "counts_per_s": "1/s",
              "count_p50_ms": "ms", "count_tail_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "padic.teich_table_s": "s", "pgamma.gamma_table_s": "s",
    "pgamma.jacobi_terms": "count", "dwork.engine_build_s": "s",
    "dwork.eval_ms": "ms", "dwork.classes": "count", "dwork.class_types": "count",
    "dwork.main_evals": "count", "dwork.distinct_y": "count",
    "dwork.main_s": "s", "dwork.koblitz_s": "s", "dwork.relprime_s": "s",
    "hyperfun.ff_s": "s", "hyperfun.eval_F_calls": "count",
    "gauss.gk_products": "count", "oracle.brute_s": "s", "oracle.tuples": "count",
    "cli.overhead_ms": "ms", "trace.overhead_frac": "ratio",
}


def primes_between(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 3), hi + 1)
            if q % 2 and all(q % f for f in range(3, math.isqrt(q) + 1, 2))]


# lseries_n4: a_p for one fibre, one cold `count` per prime.  The cost of a
# prime depends on d = gcd(p-1, 4) (16 classes for p = 1 mod 4, 4 otherwise)
# and on p, so a pass takes one prime from each of 15 size strata of each
# residue class: every pass has the same cost profile whatever the seed.
LSERIES_N = 4
LSERIES_PRIMES = primes_between(300, 900)
LSERIES_LAMBDAS = tuple(range(2, 10))
LSERIES_STRATA = 15

# family_n6: every lambda in F_p^* for one (p, 6), d = 6.  Fixed at p = 31:
# drawing p from {31, 37, 43} moved the per-count cost by 1.5x between seeds.
FAMILY_N = 6
FAMILY_P = 31

# verify_sweep: the CLI sweep over every lambda, split by n so that the seed
# sets the order of the calls and an overrunning pass can stop between them.
# pmax is fixed at 61, the top of [47, 61], for the same reason as FAMILY_P:
# pmax = 47 costs half of pmax = 61.
VERIFY_CALLS = ((61, 2), (61, 3), (61, 4), (19, 5))


def _strata(values: list[int], k: int) -> list[list[int]]:
    return [values[i * len(values) // k:(i + 1) * len(values) // k] for i in range(k)]


def make_inputs(workload: str, seed: int, index: int) -> dict:
    """The inputs of pass `index` of a run; a function of (workload, seed, index)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "lseries_n4":
        fibre = random.Random(f"{workload}:{seed}")
        lam, lam0 = fibre.sample(LSERIES_LAMBDAS, 2)
        primes = [rng.choice(stratum)
                  for r in (1, 3)
                  for stratum in _strata([q for q in LSERIES_PRIMES if q % 4 == r],
                                         LSERIES_STRATA)]
        rng.shuffle(primes)
        return {"n": LSERIES_N, "lam": lam, "lam0": lam0, "primes": primes}
    if workload == "family_n6":
        lams = list(range(1, FAMILY_P))
        rng.shuffle(lams)
        return {"n": FAMILY_N, "p": FAMILY_P, "lams": lams}
    if workload == "verify_sweep":
        calls = [list(c) for c in VERIFY_CALLS]
        rng.shuffle(calls)
        return {"calls": calls}
    raise ValueError(f"unknown workload {workload!r}")


def verify_instances(pmax: int, n: int) -> int:
    """Instances `verify --pmax pmax --n-set n` reports: every lambda of every
    odd prime p <= pmax that does not divide n."""
    return sum(p for p in primes_between(3, pmax) if n % p)


# -- correctness -------------------------------------------------------------

def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def weil_ok(p: int, n: int, lam: int, count: int) -> bool:
    """Weil-Deligne: |N - (p^(n-1)-1)/(p-1)| <= b p^((n-2)/2) on smooth fibres (lam^n != 1)."""
    if pow(lam, n, p) == 1:
        return True
    b = ((n - 1) ** n + (-1) ** n * (n - 1)) // n
    dev = count - (p ** (n - 1) - 1) // (p - 1)
    return dev * dev <= b * b * p ** (n - 2)


def check_count(entry: list, reference: dict) -> str | None:
    """None if a count entry [p, n, lam, N, ms, error] is right, else why not."""
    p, n, lam, count, _, error = entry
    if error is not None:
        return error
    want = reference["counts"][f"{p},{n}"][str(lam)]
    if count != want:
        return f"N_{p}({lam}) = {count}, reference {want}"
    if not weil_ok(p, n, lam, count):
        return f"N_{p}({lam}) = {count} breaks the Weil-Deligne bound"
    return None


def check_call(entry: list, reference: dict) -> str | None:
    """None if a verify call [pmax, n, rc, lines, sha256, ms, error] is right."""
    pmax, n, rc, lines, digest, _, error = entry
    if error is not None:
        return error
    if rc != 0:
        return f"verify --pmax {pmax} --n-set {n} exited {rc}"
    if lines != verify_instances(pmax, n):
        return f"verify --pmax {pmax} --n-set {n}: {lines} instances"
    if digest != reference["verify_sha256"][f"{pmax},{n}"]:
        return f"verify --pmax {pmax} --n-set {n}: stdout differs from the reference"
    return None


def failures(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every count the passes made; a failed
    verify call fails all of its instances."""
    attempted = failed = 0
    reasons = []
    for out in passes:
        for entry in out.get("counts", []) + out.get("extra", []):
            attempted += 1
            why = check_count(entry, reference)
            if why:
                failed += 1
                reasons.append(why)
        for entry in out.get("calls", []):
            size = verify_instances(entry[0], entry[1])
            attempted += size
            why = check_call(entry, reference)
            if why:
                failed += size
                reasons.append(why)
    return attempted, failed, reasons


def verified(out: dict, reference: dict) -> int:
    """Correct counts in the timed part of a pass (the family set-up count is not timed)."""
    return (sum(1 for e in out.get("counts", []) if not check_count(e, reference))
            + sum(verify_instances(e[0], e[1]) for e in out.get("calls", [])
                  if not check_call(e, reference)))


# -- running passes ------------------------------------------------------------

def run_pass(workload: str, inputs: dict, traced: bool, budget_s: float | None,
             limit: float) -> dict:
    """One pass in a fresh interpreter, killed at perf_counter() == limit; a
    crash or a kill is fatal to the whole run."""
    spec = {"workload": workload, "inputs": inputs, "traced": traced, "budget_s": budget_s}
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(spec),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(limit - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {workload} did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker failed on {workload} (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest integer percentile with at least ten
    samples above it, by nearest rank; the maximum (percentile 100) when there
    are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], q
    return ordered[-1], 100


def untraced_run(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, dict]:
    """Whole passes, each with fresh inputs, while the next one is expected to
    end within `seconds`.  A pass still running half a pass after that is cut
    between counts; its counts are checked but not timed, unless no pass
    completed."""
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    passes, walls = [], []
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median(walls) if walls else 0.0
        if walls and elapsed + estimate > seconds:
            break
        t = time.perf_counter()
        passes.append(run_pass(workload, make_inputs(workload, seed, len(passes)), False,
                               max(seconds - elapsed, 0.0) + estimate / 2, limit))
        walls.append(time.perf_counter() - t)
    attempted, failed, reasons = failures(passes, reference)
    timed = [out for out in passes if out["complete"]] or passes
    if workload == "verify_sweep":
        # no per-count latency: one sample per pass, its mean ms per instance
        latencies = [out["timed_s"] * 1000 / sum(verify_instances(e[0], e[1])
                                                 for e in out["calls"])
                     for out in timed if out["calls"]]
    else:
        latencies = [e[4] for out in timed for e in out["counts"]]
    if not latencies:
        raise SystemExit(f"bench: no {workload} count finished within {seconds} s")
    tail_ms, tail_q = tail(latencies)
    metrics = {
        "setup_s": statistics.median(out["setup_s"] for out in passes),
        "run_s": statistics.median(out["timed_s"] for out in timed),
        "counts_per_s": (sum(verified(out, reference) for out in timed)
                         / sum(out["timed_s"] for out in timed)),
        "count_p50_ms": statistics.median(latencies),
        "count_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(out["peak_rss_kb"] for out in passes) / 1024,
    }
    details = {"passes": len(passes), "timed_passes": len(timed),
               "pass_s": [round(out["timed_s"], 4) for out in passes],
               "latency_samples": len(latencies), "tail_percentile": tail_q,
               "failed_frac": failed / attempted if attempted else 1.0,
               "attempted": attempted, "failed": failed, "failures": reasons[:10]}
    return metrics, details


def pieces(workload: str, inputs: dict) -> list[dict]:
    """A pass cut into pieces that can run in processes of their own: one per
    verify call, six primes at a time for lseries_n4.  The family grid shares
    one engine, so it stays whole."""
    if workload == "lseries_n4":
        primes = inputs["primes"]
        return [{**inputs, "primes": primes[i:i + 6]} for i in range(0, len(primes), 6)]
    if workload == "verify_sweep":
        return [{"calls": [call]} for call in inputs["calls"]]
    return [inputs]


def traced_run(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, dict]:
    """Rounds over the pieces of pass 0, while the next round fits in `seconds`.
    Each piece runs untraced and traced back to back, in alternating order, so
    that a drift in machine speed falls on both alike.  Layer times are per
    pass, the eval and cli samples medians over all calls."""
    parts = pieces(workload, make_inputs(workload, seed, 0))
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    pairs, rounds = [], 0
    while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for i, part in enumerate(parts):
            order = (False, True) if (i + rounds) % 2 == 0 else (True, False)
            out = {traced: run_pass(workload, part, traced, None, limit) for traced in order}
            pairs.append((out[False], out[True]))
        rounds += 1
    attempted, failed, reasons = failures([out for pair in pairs for out in pair], reference)
    for plain, traced in pairs:
        if traced["compare"] != plain["compare"]:
            failed += 1
            reasons.append("the traced pass returned other results than the untraced one")
    layers = {name: sum(t["layers"][name] for _, t in pairs) / rounds
              for name in pairs[0][1]["layers"]}
    for name in pairs[0][1]["samples"]:
        pooled = [x for _, t in pairs for x in t["samples"][name]]
        layers[name] = statistics.median(pooled) if pooled else 0.0
    plain_s = sum(p["work_s"] for p, _ in pairs)
    layers["trace.overhead_frac"] = sum(t["work_s"] for _, t in pairs) / plain_s - 1
    # the traced layer times should add up to the untraced pass within the overhead
    details = {"rounds": rounds, "pieces": len(parts),
               "attributed_frac": sum(t["attributed_s"] for _, t in pairs) / plain_s,
               "failed_frac": failed / attempted if attempted else 1.0,
               "attempted": attempted, "failed": failed, "failures": reasons[:10]}
    return layers, details


# -- reporting -------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> tuple[dict, dict]:
    if trace:
        values, details = traced_run(workload, seed, seconds, reference)
        units = PER_LAYER
    else:
        values, details = untraced_run(workload, seed, seconds, reference)
        units = END_TO_END
    result = {"correct": details["failed"] == 0 and details["attempted"] > 0,
              "attempted": details["attempted"], "failed": details["failed"],
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    details = {"workload": workload, "trace": int(trace), **environment(seed), **details}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "dworkcount", "__init__.py")):
        print(f"bench: no dworkcount sources under {ROOT}/src", file=sys.stderr)
        return 2
    reference = load_reference()
    if args.workload:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), reference)
        print(json.dumps(details, sort_keys=True))
        print(json.dumps(result))
        return 0
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, details = measure(workload, args.seed, args.seconds, trace, reference)
            ok = ok and result["correct"]
            print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
                  f"failed_frac {details['failed_frac']:.4g}")
            for name, m in result["metrics"].items():
                print(f"  {name:24} {m['value']:14.6g} {m['unit']}")
            if not trace:
                print(f"  tail is p{details['tail_percentile']} of "
                      f"{details['latency_samples']} samples; {details['passes']} passes")
            print("  " + json.dumps(details, sort_keys=True))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
