import json
import pathlib

import pytest

from dworkcount import cli, oracle


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


def test_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(oracle._COUNTERS, "main", lambda p, n, lam, kt=None: -1)
    code, out, _ = run(capsys, ["count", "--p", "7", "--n", "3", "--lambda", "1",
                                "--method", "all"])
    assert code == 3
    assert "agreement: NO" in out


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
