import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dworkcount
from dworkcount import cli, dwork, oracle, padic
from dworkcount.padic import PadicError, PrecisionError, RangeError


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_all_methods_agree(capsys):
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "all"])
    assert code == 0
    assert "agreement: yes" in out
    assert "oracle: 21" in out


def test_count_json_schema_golden(capsys):
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "all", "--json"])
    assert code == 0
    report = json.loads(out)
    assert all(isinstance(v, (int, float)) and v >= 0
               for v in report["timings_ms"].values())
    report["timings_ms"] = {k: 0 for k in report["timings_ms"]}
    golden_path = pathlib.Path(__file__).parent / "data" / "count_p7_n3_l1.json"
    assert report == json.loads(golden_path.read_text())


def test_p_divides_n_is_a_domain_error(capsys):
    code, _, err = run(capsys, ["count", "--p", "7", "--n", "7", "--lambda", "1"])
    assert code == 2
    assert "divides" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["count", "--p", "7", "--n", "3"])
    assert code == 1
    assert "usage error" in err


def test_lambda_zero_routes_to_koblitz(capsys):
    code, out, err = run(capsys, ["count", "--p", "7", "--n", "4", "--lambda", "0",
                                  "--method", "main", "--json"])
    assert code == 0
    assert "routing to the Gauss-sum count" in err
    report = json.loads(out)
    assert list(report["methods"]) == ["koblitz"]
    assert report["methods"]["koblitz"] == oracle.brute_count(7, 4, 0)


@pytest.mark.parametrize("override", [[], ["--precision-override", "2"]])
@pytest.mark.parametrize("method, p", [("ff", "7"), ("relprime", "5")])
def test_lambda_zero_is_a_domain_error_for_relprime_and_ff(capsys, method, p, override):
    code, out, err = run(capsys, ["count", "--p", p, "--n", "3", "--lambda", "0",
                                  "--method", method, *override])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_disagreement_exit_code(capsys, monkeypatch):
    count = dwork.count
    monkeypatch.setattr(dwork, "count", lambda name, *args: -1 if name == "main"
                        else count(name, *args))
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "all"])
    assert code == 3
    assert "agreement: NO" in out


def test_too_low_a_precision_is_a_domain_error_with_the_ledger(capsys, monkeypatch):
    monkeypatch.setattr(cli.dwork, "k_target", lambda p, n: 1)  # 7^1 <= 57 points
    code, out, err = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                  "--method", "main"])
    assert code == 2 and out == ""
    assert "error:" in err and "K_target 1" in err and "bound 57" in err


PRECISION_TEXT = ("7^1 does not exceed the bound 57: the value is known to absolute "
                  "precision 1 only; K_target 1, working digits 1: a count needs a "
                  "K_target with p^K_target > 57")
RANGE_TEXT = ("no integer in [990, 2796] is congruent to the count's residue 948 "
              "mod 43^2: a formula is wrong")


def test_count_path_errors_keep_their_exact_text(capsys, monkeypatch):
    # the PrecisionError of K_target 1 at (7, 3), and the RangeError of a residue
    # just past the Weil window [990, 2796] at (43, 4), as the API and the CLI give them
    with pytest.raises(PadicError) as err:
        dwork.count_main(7, 3, 1, kt=1)
    assert (type(err.value), str(err.value)) == (PrecisionError, PRECISION_TEXT)
    monkeypatch.setattr(cli.dwork, "k_target", lambda p, n: 1)
    code, out, err = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                  "--method", "main"])
    assert (code, out, err) == (2, "", f"error: {PRECISION_TEXT}\n")
    monkeypatch.undo()
    monkeypatch.setattr(padic.CharSum, "residue", lambda self, y: (2796 + 1) % 43 ** 2)
    with pytest.raises(PadicError) as err:
        dwork.count_main(43, 4, 2)
    assert (type(err.value), str(err.value)) == (RangeError, RANGE_TEXT)
    code, out, err = run(capsys, ["count", "--p", "43", "--n", "4", "--lambda", "2",
                                  "--method", "main"])
    assert (code, out, err) == (2, "", f"error: {RANGE_TEXT}\n")


def test_precision_override_labels_congruence_mode(capsys):
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "all", "--json", "--precision-override", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["modulus"] == "7^2"
    assert all(v == 21 % 49 for v in report["methods"].values())


@pytest.mark.parametrize("k", ["-1", "-6"])
@pytest.mark.parametrize("method", ["main", "all"])
def test_negative_precision_override_is_a_usage_error(capsys, k, method):
    code, out, err = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                  "--method", method, "--json", "--precision-override", k])
    assert code == 1
    assert out == ""
    assert "usage error" in err and "--precision-override" in err


def test_precision_override_zero_is_off(capsys):
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "main", "--json", "--precision-override", "0"])
    assert code == 0
    report = json.loads(out)
    assert "modulus" not in report
    assert report["methods"] == {"main": 21}


@pytest.mark.parametrize("command", ["gfun", "ffun"])
@pytest.mark.parametrize("kw", ["0", "-1"])
def test_nonpositive_kw_is_a_usage_error(capsys, command, kw):
    code, out, err = run(capsys, [command, "--p", "7", "--a", "1/2", "--b", "1",
                                  "--x", "1", "--kw", kw])
    assert code == 1
    assert out == ""
    assert "usage error" in err and "--kw" in err


@pytest.mark.parametrize("command", ["gfun", "ffun"])
@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("text", ["1/0", "abc", "1/2,"])
def test_malformed_fraction_lists_are_usage_errors(capsys, command, flag, text):
    values = {"--a": "1/2", "--b": "1", flag: text}
    code, out, err = run(capsys, [command, "--p", "7", "--a", values["--a"],
                                  "--b", values["--b"], "--x", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and flag in err


def test_gfun_sweep_refusal_names_the_kw_flag(capsys):
    # 1/5 has no denominator dividing p-1 = 6: its lift sweep mod 7^12 is over budget
    code, out, err = run(capsys, ["gfun", "--p", "7", "--a", "1/5", "--b", "1", "--x", "1",
                                  "--kw", "12"])
    assert code == 2 and out == ""
    assert "--kw" in err and "--precision-override" not in err


def test_gfun_fractional_shift_invariance(capsys):
    _, out1, _ = run(capsys, ["gfun", "--p", "7", "--a", "1/2", "--b", "1", "--x", "1"])
    _, out2, _ = run(capsys, ["gfun", "--p", "7", "--a", "3/2", "--b", "1", "--x", "1"])
    assert out1 == out2


def test_gfun_at_zero(capsys):
    code, out, _ = run(capsys, ["gfun", "--p", "7", "--a", "1/2", "--b", "1", "--x", "0"])
    assert code == 0
    assert out.startswith("0")


def test_gfun_known_value(capsys):
    # 1G1[1/2; 1 | lambda^2] at p=5, lambda=2 feeds N_5(2) = 0 = 1 + G  =>  G = -1
    code, out, _ = run(capsys, ["gfun", "--p", "5", "--a", "1/2", "--b", "1",
                                "--x", "4", "--json"])
    assert code == 0
    assert json.loads(out)["integer"] == -1


def test_ffun_matches_gfun_on_bridge_inputs(capsys):
    _, fout, _ = run(capsys, ["ffun", "--p", "11", "--a", "1/2,1/5", "--b", "1,3/10",
                              "--x", "4", "--json"])
    _, gout, _ = run(capsys, ["gfun", "--p", "11", "--a", "1/2,1/5", "--b", "1,3/10",
                              "--x", str(pow(4, -1, 11)), "--json"])
    f, g = json.loads(fout), json.loads(gout)
    f.pop("kind"), g.pop("kind")
    assert f == g


def test_ffun_rejects_non_character_denominator(capsys):
    code, _, err = run(capsys, ["ffun", "--p", "7", "--a", "1/5", "--b", "1", "--x", "1"])
    assert code == 2
    assert "does not define a character" in err


def test_verify_json_deterministic_across_jobs(capsys):
    _, out1, _ = run(capsys, ["verify", "--pmax", "7", "--n-set", "2,3",
                              "--lambda", "all", "--json", "--jobs", "1"])
    _, out4, _ = run(capsys, ["verify", "--pmax", "7", "--n-set", "2,3",
                              "--lambda", "all", "--json", "--jobs", "4"])
    assert out1 == out4
    lines = [json.loads(line) for line in out1.splitlines()]
    assert all(line["agreement"] for line in lines)
    assert all("timings_ms" not in line for line in lines)


def test_verify_exit_zero_on_agreement(capsys):
    code, _, err = run(capsys, ["verify", "--pmax", "5", "--n-set", "2",
                                "--lambda", "all"])
    assert code == 0
    assert "0 disagreements" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, ["verify", "--pmax", "5", "--n-set", "2",
                                  "--jobs", jobs])
    assert code == 1
    assert out == ""
    assert "usage error" in err and "--jobs" in err


@pytest.mark.parametrize("flags", [["--n-set", "2,x"],
                                   ["--n-set", "2", "--lambda", "sample:zz"],
                                   ["--n-set", "2", "--lambda", "sample:0"],
                                   ["--n-set", "2", "--lambda", "bogus"]])
def test_malformed_verify_flags_are_usage_errors(capsys, flags):
    code, out, err = run(capsys, ["verify", "--pmax", "5", *flags])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")


def test_verify_n_below_two_is_a_domain_error(capsys):
    code, out, err = run(capsys, ["verify", "--pmax", "5", "--n-set", "1,2"])
    assert code == 2
    assert out == ""
    assert "at least 2" in err


def test_verify_json_matches_golden_output(capsys):
    # stdout of the pre-optimisation oracle and Gauss-sum builds, byte for byte
    code, out, _ = run(capsys, ["verify", "--pmax", "23", "--n-set", "2,3,4,5",
                                "--lambda", "all", "--json"])
    assert code == 0
    golden = pathlib.Path(__file__).parent / "data" / "verify_p23.jsonl"
    assert out.encode() == golden.read_bytes()


def test_verify_workers_capped_at_groups(capsys, monkeypatch):
    import concurrent.futures

    started = []

    class RecordingExecutor:
        """Records max_workers and maps in-process: starts no worker."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    argv = ["verify", "--pmax", "7", "--n-set", "2,3", "--json", "--jobs"]
    code, out_many, _ = run(capsys, argv + ["1000"])
    assert code == 0
    assert started == [5]  # (p, n) groups: 3 and 5 and 7 with n = 2, 5 and 7 with n = 3
    _, out_one, _ = run(capsys, argv + ["1"])
    assert out_many == out_one


def test_count_all_skips_the_oracle_over_its_limit(capsys, monkeypatch):
    argv = ["count", "--p", "7", "--n", "3", "--lambda", "1", "--method", "all", "--json"]
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 57)  # (7^3 - 1)/(7 - 1) points: in budget
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert "oracle" in json.loads(out)["methods"]
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 56)
    code, out, err = run(capsys, argv)
    assert code == 0
    assert err.startswith("notice: skipping the oracle")
    report = json.loads(out)
    assert report["methods"] == {"main": 21, "koblitz": 21, "ff": 21}
    assert report["agreement"] is True


def test_count_oracle_over_its_limit_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 56)
    code, out, err = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                  "--method", "oracle"])
    assert code == 2
    assert out == ""
    assert "over its limit" in err and "--method main" in err
    # at the real limit the refusal comes before any enumeration
    monkeypatch.undo()
    code, out, err = run(capsys, ["count", "--p", "1009", "--n", "4", "--lambda", "3",
                                  "--method", "oracle"])
    assert code == 2 and out == ""


def test_verify_over_the_oracle_limit_is_a_domain_error(capsys, monkeypatch):
    argv = ["verify", "--pmax", "7", "--n-set", "2,3", "--json"]
    # the grid's total: 4 + 6 + 8 points at n = 2, 31 + 57 at n = 3 (3 | 3 is skipped)
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 106)
    code, out, err = run(capsys, argv)
    assert code == 0 and out
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 105)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "106 points" in err and "57 of them at p=7, n=3" in err
    assert "--pmax" in err and "--n-set" in err
    # at the real limit the refusal comes before any group runs
    monkeypatch.undo()
    code, out, err = run(capsys, ["verify", "--pmax", "1009", "--n-set", "4"])
    assert code == 2 and out == ""
    assert "p=1009, n=4" in err
    # every group of this grid is in budget, but their sum is not
    code, out, err = run(capsys, ["verify", "--pmax", "1000", "--n-set", "3"])
    assert code == 2 and out == ""
    assert "p=997, n=3" in err


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    """cli.main builds its parser once per process; a run of calls through it,
    a usage error among them, prints and exits as fresh parsers do."""
    calls = [["count", "--p", "7", "--n", "3", "--lambda", "1", "--method", "main"],
             ["count", "--p", "7", "--n", "3"],
             ["verify", "--pmax", "7", "--n-set", "2,3", "--json"],
             ["gfun", "--p", "7", "--a", "1/2", "--b", "1", "--x", "1", "--json"],
             ["count", "--p", "7", "--n", "3", "--lambda", "1", "--method", "main"]]
    assert cli._parser() is cli._parser()
    reused = [run(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, argv) for argv in calls]
    assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0]
    assert reused == fresh


@pytest.mark.parametrize("argv", [
    ["count", "--p", "101", "--n", "4", "--lambda", "3", "--method", "main"],
    ["count", "--p", "101", "--n", "4", "--lambda", "3", "--method", "koblitz",
     "--precision-override", "2"],
    ["gfun", "--p", "101", "--a", "1/2", "--b", "1", "--x", "3"],
    ["ffun", "--p", "101", "--a", "1/2", "--b", "1", "--x", "3"],
])
def test_a_prime_over_the_table_limit_is_a_domain_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("dworkcount.padic.TABLE_LIMIT", 100)
    cli.dwork._checked.cache_clear()  # the limit is read when the checks run
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: p = 101 is over the table limit of 100")


def test_count_all_skips_every_method_over_a_budget(capsys):
    # the oracle is over its limit, but main, koblitz and ff still answer,
    # so --method all reports them and one notice
    code, out, err = run(capsys, ["count", "--p", "41", "--n", "20", "--lambda", "3",
                                  "--method", "all", "--json"])
    assert code == 0
    want = 110937250840650895768436283800
    assert json.loads(out)["methods"] == {"main": want, "koblitz": want, "ff": want}
    notices = err.splitlines()
    assert len(notices) == 1 and notices[0].startswith("notice: skipping the oracle")
    assert "over its limit" in err


FOOTPRINT = """
import json, sys
from dworkcount import cli
after_import = sorted(sys.modules)
code = cli.main(["count", "--p", "601", "--n", "4", "--lambda", "3", "--method", "main"])
print(json.dumps([code, after_import, sorted(sys.modules)]))
"""


def test_a_count_loads_only_the_count_path():
    """A fresh interpreter's `import dworkcount.cli`, and a count after it,
    load exactly the package, cli, dwork, padic and pgamma (no oracle,
    evaluators or references), and neither fractions nor dataclasses; the
    import already loads every module the count runs."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, after_import, after_count = json.loads(out.splitlines()[-1])
    assert code == 0 and out.splitlines()[0].split() == ["main:", "373784"]
    for loaded in (after_import, after_count):
        assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(loaded)
        assert {name for name in loaded if name.startswith("dworkcount")} == {
            "dworkcount", "dworkcount.cli", "dworkcount.dwork", "dworkcount.padic",
            "dworkcount.pgamma"}


def test_every_public_name_resolves_to_its_module_object():
    """The oracle and evaluator names load on first use, as the same objects
    their modules hold; `import *` binds every name; others are AttributeErrors."""
    for name in dworkcount.__all__:
        value = getattr(dworkcount, name)
        assert value.__module__.startswith("dworkcount.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace = {}
    exec("from dworkcount import *", namespace)
    assert all(namespace[name] is getattr(dworkcount, name) for name in dworkcount.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dworkcount.no_such_name
