"""One pass of a benchmark workload, in a fresh interpreter.

Reads {"workload", "inputs", "traced", "budget_s"} as JSON on stdin and prints
one JSON line.  The untraced pass calls what a user calls (`cli.main`, or
`count_main` for the family grid).  The traced pass calls the lru-cached
layers bottom-up (teichmuller_table, frac_gamma_table, count_main at lam0,
count_main at lam, cli.main), so each call times only its own layer.
Computed counters are derived from the inputs and public functions after the
timed part.

Count entries are [p, n, lam, N, ms, error]; verify calls are
[pmax, n, exit code, instances, sha256 of stdout, ms, error].
"""

import os
import sys
import time

_T0 = time.perf_counter()
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)
from dworkcount import cli  # noqa: E402  (timed: the import part of setup_s)

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from math import gcd  # noqa: E402

from dworkcount import dwork, oracle, padic, pgamma  # noqa: E402

# layer times that add up over the pieces of a pass; eval_ms and overhead_ms
# are per-call samples instead, of which the parent takes the median
TIMES = ("padic.teich_table_s", "pgamma.gamma_table_s", "dwork.engine_build_s",
         "dwork.main_s", "dwork.koblitz_s", "dwork.relprime_s", "hyperfun.ff_s",
         "oracle.brute_s")
METHOD_LAYER = {"main": "dwork.main_s", "koblitz": "dwork.koblitz_s",
                "relprime": "dwork.relprime_s", "ff": "hyperfun.ff_s",
                "oracle": "oracle.brute_s"}


def _call(fn, *args):
    """(result, ms, error): a raised call is recorded for the checker, not fatal."""
    t = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # counted as a failed count by the checker
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, (time.perf_counter() - t) * 1000, error


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_count(p, n, lam):
    argv = ["count", "--p", str(p), "--n", str(n), "--lambda", str(lam),
            "--method", "main", "--json"]
    got, ms, error = _call(_cli, argv)
    count = None
    if error is None and got[0] != 0:
        error = f"count exited {got[0]}"
    elif error is None:
        count = json.loads(got[1])["methods"]["main"]
    return [p, n, lam, count, ms, error]


def _main_count(p, n, lam):
    count, ms, error = _call(dwork.count_main, p, n, lam)
    return [p, n, lam, count, ms, error]


def _tables(layers, p, n):
    """Build the Teichmuller and gamma tables a count at (p, n) reads, timing each."""
    digits = dwork.k_working(p, n, dwork.k_target(p, n))
    layers["padic.teich_table_s"] += _call(padic.teichmuller_table, p, digits)[1] / 1000
    layers["pgamma.gamma_table_s"] += _call(pgamma.frac_gamma_table, p, digits)[1] / 1000


def _before(deadline):
    return deadline is None or time.perf_counter() < deadline


# -- computed counters ---------------------------------------------------------

def _types(reps, d):
    """Symmetry types: classes whose sorted entries agree up to a diagonal shift."""
    return len({min(tuple(sorted((w + c) % d for w in r.wstar)) for c in range(d))
                for r in reps})


def counters(groups):
    """Work the seed algorithm does on `groups`, a list of
    (p, n, main_lams, ff_lams, koblitz, oracle): computed, not measured."""
    c = dict.fromkeys(("pgamma.jacobi_terms", "dwork.classes", "dwork.class_types",
                       "dwork.main_evals", "dwork.distinct_y", "hyperfun.eval_F_calls",
                       "gauss.gk_products", "oracle.tuples"), 0)
    tables = set()
    for p, n, main_lams, ff_lams, koblitz, oracle in groups:
        tables.add((p, dwork.k_working(p, n, dwork.k_target(p, n))))
        d = gcd(p - 1, n)
        if main_lams:
            reps = dwork.canonical_classes(n, d)
            c["dwork.classes"] += len(reps)
            c["dwork.class_types"] += _types(reps, d)
            c["dwork.main_evals"] += len(main_lams)
            c["dwork.distinct_y"] += len({pow(lam, n, p) for lam in main_lams})
        if ff_lams:  # engine: one prefactor per class; per lambda one eval_F per class
            classes = len(dwork.canonical_classes(n, n))
            c["hyperfun.eval_F_calls"] += len(ff_lams) * classes
            c["gauss.gk_products"] += classes + len(ff_lams) * classes * (p - 1)
        if koblitz:  # engine: one per all-nonzero w, then |W| * (p-1)/d character terms
            W = dwork.enumerate_W(n, d)
            c["gauss.gk_products"] += sum(1 for w in W if 0 not in w) + len(W) * (p - 1) // d
        if oracle:
            c["oracle.tuples"] += (p ** n - 1) // (p - 1)
    c["pgamma.jacobi_terms"] = sum((p - 2) * (p - 3) for p, _ in tables)
    return c


def verify_groups(pmax, n):
    """The (p, n) groups of `verify --pmax pmax --n-set n` and the methods each runs."""
    groups = []
    for p in range(3, pmax + 1):
        if padic.is_odd_prime(p) and n % p:
            lams = list(range(1, p))
            groups.append((p, n, lams, lams if (p - 1) % n == 0 else [], True, True))
    return groups


# -- workloads -----------------------------------------------------------------

def lseries_n4(inputs, traced, deadline, layers, samples):
    """One cold `count --method main` per prime, all at one lambda."""
    n, lam, lam0 = inputs["n"], inputs["lam"], inputs["lam0"]
    out = {"counts": [], "extra": [], "setup_s": IMPORT_S}
    for p in inputs["primes"]:
        if not _before(deadline):
            break
        if not traced:
            out["counts"].append(_cli_count(p, n, lam))
            continue
        _tables(layers, p, n)
        first = _main_count(p, n, lam0)
        warm = _main_count(p, n, lam)
        via_cli = _cli_count(p, n, lam)
        out["extra"] += [first, warm]
        out["counts"].append(via_cli)
        layers["dwork.engine_build_s"] += (first[4] - warm[4]) / 1000
        layers["dwork.main_s"] += (first[4] + warm[4]) / 1000
        samples["dwork.eval_ms"].append(warm[4])
        samples["cli.overhead_ms"].append(via_cli[4] - warm[4])
    out["complete"] = len(out["counts"]) == len(inputs["primes"])
    out["compare"] = [e[:4] for e in out["counts"]]
    if traced:
        # what the untraced cli count is made of: tables + build + eval + cli
        out["attributed_s"] = (layers["padic.teich_table_s"] + layers["pgamma.gamma_table_s"]
                               + layers["dwork.engine_build_s"]
                               + sum(samples["dwork.eval_ms"] + samples["cli.overhead_ms"]) / 1000)
        out["groups"] = [(p, n, [lam], [], False, False) for p in inputs["primes"]]
    return out


def family_n6(inputs, traced, deadline, layers, samples):
    """One engine build (the first count, part of setup), then warm count_main
    calls over the rest of F_p^*."""
    p, n, lams = inputs["p"], inputs["n"], inputs["lams"]
    if traced:
        _tables(layers, p, n)
    first = _main_count(p, n, lams[0])
    out = {"counts": [], "extra": [first], "setup_s": IMPORT_S + first[4] / 1000}
    for lam in lams[1:]:
        if not _before(deadline):
            break
        out["counts"].append(_main_count(p, n, lam))
    out["complete"] = len(out["counts"]) == len(lams) - 1
    out["compare"] = sorted(e[:4] for e in out["extra"] + out["counts"])
    if traced:
        warm = samples["dwork.eval_ms"] = [e[4] for e in out["counts"]]
        layers["dwork.engine_build_s"] = (first[4] - statistics.median(warm)) / 1000
        layers["dwork.main_s"] = (first[4] + sum(warm)) / 1000
        out["attributed_s"] = (layers["padic.teich_table_s"] + layers["pgamma.gamma_table_s"]
                               + layers["dwork.main_s"])
        out["groups"] = [(p, n, lams, [], False, False)]
    return out


def _sweep(pmax, n):
    """The library sweep behind `verify --json`, its stdout rendered as the CLI
    renders it (timings excluded), and its exit code."""
    reports = oracle.sweep_verify(pmax, [n], "all", jobs=1)
    text = "".join(json.dumps({"p": r.p, "n": r.n, "lambda": r.lam, "d": r.d,
                               "methods": r.methods, "agreement": r.agreement},
                              sort_keys=True) + "\n" for r in reports)
    return (0 if all(r.agreement for r in reports) else 3), text, reports


def verify_sweep(inputs, traced, deadline, layers, samples):
    """`verify --json --jobs 1` per (pmax, n) call; traced, the same sweep
    through the library with tables built first and timings summed per method."""
    out = {"calls": [], "setup_s": IMPORT_S}
    for pmax, n in inputs["calls"]:
        if not _before(deadline):
            break
        if traced:
            for p, *_ in verify_groups(pmax, n):
                _tables(layers, p, n)
            got, ms, error = _call(_sweep, pmax, n)
            for r in got[2] if got else ():
                for method, t in r.timings_ms.items():
                    layers[METHOD_LAYER[method]] += t / 1000
                if "main" in r.timings_ms:
                    samples["dwork.eval_ms"].append(r.timings_ms["main"])
        else:
            argv = ["verify", "--pmax", str(pmax), "--n-set", str(n), "--json", "--jobs", "1"]
            got, ms, error = _call(_cli, argv)
        rc, text = got[:2] if got else (None, "")
        digest = hashlib.sha256(text.encode()).hexdigest()
        out["calls"].append([pmax, n, rc, text.count("\n"), digest, ms, error])
    out["complete"] = len(out["calls"]) == len(inputs["calls"])
    out["compare"] = [e[:2] + e[3:5] for e in out["calls"]]
    if traced:
        out["attributed_s"] = sum(layers[k] for k in ("padic.teich_table_s",
                                                      "pgamma.gamma_table_s",
                                                      *METHOD_LAYER.values()))
        out["groups"] = [g for pmax, n in inputs["calls"] for g in verify_groups(pmax, n)]
    return out


def main():
    spec = json.loads(sys.stdin.read())
    budget = spec["budget_s"]
    deadline = None if budget is None else _T0 + budget
    traced = spec["traced"]
    layers = dict.fromkeys(TIMES, 0.0)
    samples = {"dwork.eval_ms": [], "cli.overhead_ms": []}
    start = time.perf_counter()
    run = {"lseries_n4": lseries_n4, "family_n6": family_n6,
           "verify_sweep": verify_sweep}[spec["workload"]]
    out = run(spec["inputs"], traced, deadline, layers, samples)
    out["work_s"] = time.perf_counter() - start
    out["timed_s"] = out["work_s"] - (out["setup_s"] - IMPORT_S)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        out["layers"] = {**layers, **counters(out.pop("groups"))}
        out["samples"] = samples
    print(json.dumps(out))


if __name__ == "__main__":
    if not os.path.abspath(cli.__file__).startswith(_SRC + os.sep):
        sys.exit(f"worker: imported dworkcount from {cli.__file__}, not from {_SRC}")
    main()
