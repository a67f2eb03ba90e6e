"""Command-line interface: point counts, direct mGm/mFm evaluation and the
verification sweep.

Importing this module loads only what a count runs (dwork and the modules
under it, argparse, json); the oracle, the mGm/mFm evaluators and fractions
load inside the commands and argparse types that use them.

`count --method all` runs the oracle and every method in dwork.applicable.
oracle.brute_count and dwork.count refuse an input outside their domain or
over a budget with an InstanceError: an error with a single --method, and a
notice on stderr, skipping that method, under --method all.

Exit codes: 0 success/agreement, 1 usage error, 2 domain or precondition
error, 3 disagreement detected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from math import inf

from . import dwork
from .padic import PadicError, ValuedPadic, is_odd_prime


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an int >= low (violations are usage errors)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _int_list(text: str) -> list[int]:
    """argparse type: a comma list of ints."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def _fraction_list(text: str) -> list:
    """argparse type: a comma list of Fractions (none for blank text)."""
    from fractions import Fraction
    try:
        return [Fraction(v) for v in text.split(",")] if text.strip() else []
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of fractions, got {text!r}") from None


def _lambda_policy(text: str) -> str:
    """argparse type: "all" or "sample:k" with k >= 1."""
    from . import oracle
    try:
        oracle.sample_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# -- formatting ----------------------------------------------------------------

def _value_payload(v: ValuedPadic, p: int) -> dict:
    if v.is_zero:
        prec = None if v.absolute_precision == inf else v.absolute_precision
        return {"zero": True, "valuation": None, "unit": None, "digits": [],
                "absolute_precision": prec, "integer": 0}
    payload = {
        "zero": False,
        "valuation": v.valuation,
        "unit": v.unit.residue,
        "digits": v.digits(),
        "absolute_precision": v.absolute_precision,
        "integer": None,
    }
    if v.valuation >= 0:
        prec = v.absolute_precision
        r = v.residue_mod(prec)
        # report the centered representative only when it is comfortably small
        centered = r if r <= p ** prec // 2 else r - p ** prec
        if abs(centered) < p ** (prec - 1) // 2:
            payload["integer"] = centered
    return payload


def _print_value(v: ValuedPadic, p: int, as_json: bool, label: str) -> None:
    payload = _value_payload(v, p)
    if as_json:
        print(json.dumps({"p": p, "kind": label, **payload}, sort_keys=True))
        return
    if payload["zero"]:
        prec = payload["absolute_precision"]
        print("0" if prec is None else f"0 (known mod {p}^{prec})")
        return
    digs = " ".join(str(d) for d in payload["digits"])
    print(f"valuation {payload['valuation']}, unit digits (base {p}, least significant "
          f"first): {digs}")
    print(f"unit residue {payload['unit']} mod {p}^{len(payload['digits'])}")
    if payload["integer"] is not None:
        print(f"integer value: {payload['integer']}")


# -- subcommands -----------------------------------------------------------------

def _cmd_count(args) -> int:
    lam = args.lam
    try:
        inst = dwork.DworkInstance(args.p, args.n, lam)
    except dwork.InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kt = args.precision_override if args.precision_override else dwork.k_target(args.p, args.n)
    method = args.method
    if method == "main" and inst.lam == 0:
        print("notice: lambda = 0 is outside the main formula; routing to the "
              "Gauss-sum count", file=sys.stderr)
        method = "koblitz"
    if method == "all":
        names = ["oracle", *dwork.applicable(args.p, args.n, inst.lam)]
    else:
        names = [method]

    congruence = bool(args.precision_override)
    modulus = args.p ** kt
    methods, timings = {}, {}
    for name in names:
        t0 = time.perf_counter()
        try:
            if name == "oracle":
                from . import oracle
                result = oracle.brute_count(args.p, args.n, inst.lam)
                if congruence:
                    result %= modulus
            elif congruence:
                result = dwork.method_value(name, args.p, args.n, inst.lam,
                                            kt).residue_mod(kt)
            else:
                result = dwork.count(name, args.p, args.n, inst.lam, kt)
        except (dwork.InstanceError, PadicError) as exc:
            if method == "all" and isinstance(exc, dwork.InstanceError):
                print(f"notice: skipping the {name} count: {exc}", file=sys.stderr)
                continue
            print(f"error: {exc}", file=sys.stderr)
            return 2
        methods[name] = result
        timings[name] = round((time.perf_counter() - t0) * 1000, 3)

    agreement = len(set(methods.values())) == 1
    report = {"p": args.p, "n": args.n, "lambda": inst.lam, "d": inst.d,
              "methods": methods, "agreement": agreement, "timings_ms": timings}
    if congruence:
        report["modulus"] = f"{args.p}^{kt}"
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        suffix = f" (mod {args.p}^{kt})" if congruence else ""
        for name, result in methods.items():
            print(f"{name:>9}: {result}{suffix}")
        if len(methods) > 1:
            print("agreement:", "yes" if agreement else "NO")
    return 0 if agreement else 3


def _cmd_fun(args) -> int:
    from .hyperfun import FParams, GParams, eval_F, eval_G
    ff = args.command == "ffun"
    try:
        if not is_odd_prime(args.p):
            raise ValueError(f"p={args.p} is not an odd prime")
        params = GParams(tuple(args.a), tuple(args.b))
        params.validate_for(args.p)
        if ff:
            value = eval_F(FParams.from_fractions(params, args.p), args.x % args.p,
                           args.p, args.kw)
        else:
            value = eval_G(params, args.x % args.p, args.p, args.kw)
    except (ValueError, PadicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_value(value, args.p, args.json, "F" if ff else "G")
    return 0


def _report_json_line(r) -> str:
    # timings are wall-clock and deliberately excluded: verify output must be
    # byte-identical across --jobs settings
    return json.dumps({"p": r.p, "n": r.n, "lambda": r.lam, "d": r.d,
                       "methods": r.methods, "agreement": r.agreement},
                      sort_keys=True)


def _cmd_verify(args) -> int:
    from . import oracle
    try:
        n_set = sorted(set(args.n_set))
        if any(n < 2 for n in n_set):
            raise ValueError("every n must be at least 2")
        reports = oracle.sweep_verify(args.pmax, n_set, args.lam_policy, jobs=args.jobs)
    except (ValueError, dwork.InstanceError, PadicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    disagreements = [r for r in reports if not r.agreement]
    if args.json:
        for r in reports:
            print(_report_json_line(r))
    else:
        print(f"{'p':>4} {'n':>3} {'lambda':>7} {'d':>3}  methods")
        for r in reports:
            cells = " ".join(f"{k}={v}" for k, v in sorted(r.methods.items()))
            flag = "" if r.agreement else "  <-- DISAGREES"
            print(f"{r.p:>4} {r.n:>3} {r.lam:>7} {r.d:>3}  {cells}{flag}")
    print(f"verify: {len(reports)} instances, {len(disagreements)} disagreements",
          file=sys.stderr)
    return 0 if not disagreements else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dworkcount",
                     description="Count F_p-points on Dwork hypersurfaces via "
                                 "p-adic hypergeometric functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count points on one instance")
    count.add_argument("--p", type=int, required=True)
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--lambda", dest="lam", type=int, required=True,
                       help="deformation parameter; negatives reduce mod p")
    count.add_argument("--method", default="all",
                       choices=["main", "koblitz", "relprime", "ff", "oracle", "all"])
    count.add_argument("--precision-override", type=_int_at_least(0), default=0, metavar="K",
                       help="congruence mode: carry K digits and report counts mod "
                            "p^K instead of reconstructing exactly (0, the default, "
                            "is off)")
    count.add_argument("--json", action="store_true")
    count.set_defaults(func=_cmd_count)

    for name, helptext in (("gfun", "evaluate the p-adic hypergeometric sum mGm"),
                           ("ffun", "evaluate the finite-field hypergeometric sum mFm")):
        fn = sub.add_parser(name, help=helptext)
        fn.add_argument("--p", type=int, required=True)
        fn.add_argument("--a", type=_fraction_list, required=True,
                        help='comma list of fractions, e.g. "1/4,3/4"')
        fn.add_argument("--b", type=_fraction_list, required=True,
                        help='comma list of fractions, e.g. "1,1/2"')
        fn.add_argument("--x", type=int, required=True)
        fn.add_argument("--kw", type=_int_at_least(1), default=6,
                        help="working digits (default 6)")
        fn.add_argument("--json", action="store_true")
        fn.set_defaults(func=_cmd_fun)

    verify = sub.add_parser(
        "verify", help="sweep the grid and compare all methods",
        description="Sweep every odd prime up to --pmax and every n in --n-set, "
                    "and compare the oracle with each applicable method.  relprime "
                    "is the main kernel evaluated at the same y = lambda^n, so it "
                    "agrees with main by construction: its column is no independent "
                    "evidence.")
    verify.add_argument("--pmax", type=int, required=True)
    verify.add_argument("--n-set", type=_int_list, required=True,
                        help='comma list, e.g. "2,3,4"')
    verify.add_argument("--lambda", dest="lam_policy", type=_lambda_policy, default="all",
                        help='"all" or "sample:k"')
    verify.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes, at most one per (p, n) group")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)
    return parser


_parser = lru_cache(maxsize=1)(build_parser)  # one build per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return args.func(args)


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
