"""Command-line surface: formats, exit codes, JSON round trips."""
import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from wkostka.cli import (_FLAGS, SUITES, build_parser, main,
                         omega_from_json, omega_to_json)
from wkostka.exact import LaurentPoly, RationalFunction
from wkostka.omega import omega_matrix
from wkostka.rpart import default_total_order


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_n0(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "0", "--r", "3")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        assert row["n_value"] == 0 and row["a_value"] == 0

    def test_a_column_n1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--r", "3")
        data = json.loads(out)
        assert [r["a_value"] for r in data["rows"]] == [2, 1, 0]

    def test_n3_row_count_and_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--r", "3",
                           "--format", "csv")
        assert code == 0
        assert len([l for l in out.strip().splitlines() if l]) == 23

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--r", "2",
                           "--format", "latex")
        assert code == 0 and out.startswith("\\begin{tabular}")


class TestOmegaCommand:
    def test_json_is_section71(self, capsys):
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "3")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [["t^4", "t^2", "t^3"],
                                   ["t^3", "t^4", "t^2"],
                                   ["t^2", "t^3", "t^4"]]

    def test_method_both_is_a_usage_error(self, capsys):
        """The cosets-vs-wreath comparison is verify oracle, which names
        each entry that differs."""
        code, out, err = run(capsys, "omega", "--n", "1", "--r", "3",
                             "--method", "both")
        assert code == 2 and out == ""
        assert "invalid choice: 'both'" in err

    def test_symmetric_r2(self, capsys):
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "2")
        rows = json.loads(out)["entries"]
        assert rows[0][1] == rows[1][0]

    def test_round_trip(self, capsys):
        om = omega_matrix(2, 3, default_total_order(2, 3))
        data = json.loads(json.dumps(omega_to_json(om)))
        back = omega_from_json(data)
        assert back.entries == om.entries
        assert back.order.items == om.order.items


class TestSolveCommand:
    def test_emit_lambda_matches_74_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "3", "--r", "3",
                           "--order", "fixture:n3r3", "--emit", "lambda")
        assert code == 0
        data = json.loads(out)
        lam = [RationalFunction.parse(s) for s in data["lambda"]]
        assert lam[0] == RationalFunction.one()
        assert lam[1] == RationalFunction.parse("t^6 - t^-3")

    def test_emit_p_plus_n1r5(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "5",
                           "--emit", "p-plus")
        data = json.loads(out)
        pp = [[LaurentPoly.parse(s) for s in row] for row in data["p_plus"]]
        for i in range(5):
            assert pp[i][i] == LaurentPoly.t_power(5 - 1 - i)
            if i >= 1:
                assert pp[i][0] == LaurentPoly.t_power(i - 1)

    def test_emit_ic_minus(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "2", "--r", "3",
                           "--order", "fixture:n2r3", "--emit", "ic-minus")
        data = json.loads(out)
        assert data["ic_minus"]["raw"][4][0] == "t^3 + 1"
        assert data["ic_minus"]["in_s"][4][0] == "t + 1"
        assert all(all(row) for row in data["ic_minus"]["ok"])

    def test_round_trip_blocks(self, capsys):
        from wkostka.factor import solve_factorization
        code, out, _ = run(capsys, "solve", "--n", "2", "--r", "2")
        data = json.loads(out)
        res = solve_factorization(omega_matrix(2, 2, default_total_order(2, 2)))
        back_pm = [[LaurentPoly.parse(s) for s in row]
                   for row in data["p_minus"]]
        assert back_pm == [list(row) for row in res.p_minus.rows]
        back_lam = [RationalFunction.parse(s) for s in data["lambda"]]
        assert back_lam == list(res.lam)
        back_omega = [[LaurentPoly.parse(s) for s in row]
                      for row in data["omega"]]
        assert back_omega == [list(row) for row in res.omega.entries.rows]

    def test_unknown_block(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "1", "--r", "2",
                           "--emit", "bogus")
        assert code == 2 and "unknown block" in err

    def test_empty_emit_is_a_usage_error(self, capsys):
        """An empty --emit names the block '', not the default of every
        block."""
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "2",
                             "--emit", "")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown block ''")
        assert err.count("\n") == 1

    def test_csv_and_latex(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "3",
                           "--format", "csv", "--emit", "lambda,p-minus")
        assert code == 0 and "rpartition,a_value,xi" in out
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "3",
                           "--format", "latex", "--emit", "lambda")
        assert code == 0 and out.startswith("\\begin{tabular}")

    def test_csv_prints_every_requested_block(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "3",
                           "--format", "csv", "--emit", "theta")
        assert code == 0
        assert out.splitlines() == ["rpartition,a_value,theta",
                                    "(-;-;1),2,1", "(-;1;-),1,t",
                                    "(1;-;-),0,t^-1"]

    def test_latex_prints_the_raw_ic_matrix(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "3",
                           "--format", "latex", "--emit", "ic-minus")
        assert code == 0
        assert out.startswith("% ic-minus for n=1, r=3\n\\begin{tabular}")
        assert "$(1;-;-)$ & $1$ & $1$ & $1$ \\\\" in out

    def test_text_blocks_follow_block_order(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1", "--r", "3",
                           "--format", "csv", "--emit", "lambda,p-plus")
        assert code == 0
        assert out.index("# p-plus") < out.index("rpartition,a_value,xi")


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "1", "--r", "2", "--emit", "p-minus,lambda"),
    ("omega", "--n", "1", "--r", "3"),
])
def test_csv_lines_end_in_newline_alone(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and "\r" not in out


# sha256 of stdout.  The (1,3), (4,1), (2,5) solve and the (3,2) verify
# digests are copied from WORKLOADS in bench/run.py, so that output drift
# shows in the unit tests without running the benchmark.  The others are not
# in bench/run.py: the (3,3) pair pins outputs with both n >= 3 and r >= 3,
# and the wreath omega digest pins the oracle's own bytes, where criterion 5
# only checks that the oracle agrees with the coset route.
GOLDEN = {
    ("solve", "--n", "1", "--r", "3"):
        "d403a744a4d08b3244db57cc81e9e6cedbc503e0516371a84a07ff59816f97fc",
    ("solve", "--n", "4", "--r", "1"):
        "741bb4beb646c9280245d345cd06d5b9f44bbf6c4a535b3b8eb5e10fbdb0fa36",
    ("solve", "--n", "2", "--r", "5"):
        "0a4100743a4abdf11a32003735ac387d918235f14f7084b91f24522fc12cdd16",
    ("verify", "thm55", "--n", "3", "--r", "2"):
        "7ef53aed39c1e105697587fc96e09f94faf7ca32276c773fcde97b867c79db74",
    ("solve", "--n", "3", "--r", "3"):
        "933d4e6c33e2ce4e427ab9f9e959afe3f3e25a2a12b3cd41f3419b24c816265c",
    ("verify", "thm55", "--n", "3", "--r", "3"):
        "9ad996e642c099b075b9363e37697a11d1e5a5d60544aae24a61cef3df1449fa",
    ("omega", "--n", "2", "--r", "4", "--method", "wreath"):
        "439432b755ee8851bfb7f67f26e10b7ab274f5d49d5a7a69fe99dff513d9724f",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", [
    ("verify", "lemma59", "--format", "csv"),
    ("verify", "thm55", "--suite", "lemma59"),
    ("solve", "--n", "1", "--r", "3", "--method", "both"),
    ("enumerate", "--n", "1", "--r", "3", "--seed", "1"),
    ("omega", "--n", "1", "--r", "3", "--samples", "3"),
    ("orders", "--order", "default", "--format", "latex"),
])
def test_undeclared_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err


class TestVerifyCommand:
    def test_fixtures_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "fixtures")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_thm55(self, capsys):
        code, out, _ = run(capsys, "verify", "thm55", "--n", "2", "--r", "3")
        assert code == 0

    def test_lemma59_small(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma59", "--n", "2", "--r", "2")
        assert code == 0

    def test_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "classical-r1", "--n", "3")
        assert code == 0

    def test_orders_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "orders", "--n", "2", "--r", "2",
                           "--samples", "4", "--seed", "3")
        assert code == 0

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_missing_suite(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_thm55_n0_is_not_replaced_by_the_default(self, capsys):
        code, out, _ = run(capsys, "verify", "thm55", "--n", "0", "--r", "2")
        assert code == 0
        data = json.loads(out)
        assert data["params"]["n"] == 0 and data["checked"] == 1

    def test_thm55_r0_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "thm55", "--n", "1",
                             "--r", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_symmetry_bounds_are_not_replaced_by_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "symmetry", "--n", "0",
                           "--r", "1")
        assert code == 0
        assert json.loads(out)["params"] == {"n_max": 0, "r_max": 1}

    @pytest.mark.parametrize("argv", [
        ("symmetry", "--n", "1", "--r", "0"),
        ("symmetry", "--n", "-1", "--r", "1"),
        ("lemma59", "--n", "1", "--r", "0"),
        ("classical-r1", "--n", "0"),
    ])
    def test_bad_suite_bounds_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["1", "0", "-1"])
    def test_bad_q_is_a_usage_error(self, capsys, q):
        code, out, err = run(capsys, "verify", "thm55", "--n", "2", "--r", "2",
                             "--q", q)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("fixtures", "--n", "9", "--r", "9"),
        ("classical-r1", "--n", "2", "--r", "7"),
        ("classical-r1", "--n", "2", "--q", "5"),
        ("lemma59", "--n", "1", "--r", "1", "--seed", "1"),
        ("thm55", "--n", "1", "--r", "2", "--samples", "3"),
        ("oracle", "--n", "1", "--r", "2", "--seed", "0"),
        ("symmetry", "--n", "1", "--r", "1", "--wreath-bound", "5"),
        ("orders", "--n", "1", "--r", "2", "--q", "2"),
    ])
    def test_flag_the_suite_does_not_read_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bound_violation_is_exit_1(self, capsys):
        for n, r, bound, cost in (("2", "3", "1", 18), ("1", "3", "2", 3)):
            code, out, err = run(capsys, "verify", "oracle", "--n", n,
                                 "--r", r, "--wreath-bound", bound)
            assert code == 1 and out == ""
            assert err == ("error: wreath oracle bound exceeded: "
                           f"n*r^n = {cost} > {bound}\n")


class TestCosetBound:
    def test_bound_counts_rpartitions(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "5",
                             "--coset-bound", "4")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K = 5" in err

    # K = 15 at (7,1): the default bound admits n = 7.
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "7", "--r", "1"),
        ("verify", "thm55", "--n", "7", "--r", "1"),
    ], ids=["solve", "thm55"])
    def test_n7_runs_by_default(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)


class TestOrderSources:
    def test_order_file(self, tmp_path, capsys):
        path = tmp_path / "order.txt"
        path.write_text("(-;-;1)\n(-;1;-)\n(1;-;-)\n")
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "3",
                           "--order", f"file:{path}")
        assert code == 0
        assert json.loads(out)["order"] == ["(-;-;1)", "(-;1;-)", "(1;-;-)"]

    def test_bad_order_file(self, tmp_path, capsys):
        path = tmp_path / "order.txt"
        path.write_text("(1;-;-)\n")
        code, _, err = run(capsys, "omega", "--n", "1", "--r", "3",
                           "--order", f"file:{path}")
        assert code == 2

    def test_missing_order_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, "omega", "--n", "1", "--r", "3",
                             "--order", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # An empty file, and a file listing P_{1,3} under --n 2 --r 2.
    @pytest.mark.parametrize("text,argv", [
        ("", ("solve", "--n", "1", "--r", "2")),
        ("(-;-;1)\n(-;1;-)\n(1;-;-)\n", ("enumerate", "--n", "2", "--r", "2")),
        ("(-;-;1)\n(-;1;-)\n(1;-;-)\n", ("solve", "--n", "2", "--r", "2")),
    ], ids=["empty", "n1r3-enumerate", "n1r3-solve"])
    def test_order_file_not_listing_p_nr_is_a_usage_error(
            self, tmp_path, capsys, text, argv):
        path = tmp_path / "order.txt"
        path.write_text(text)
        code, out, err = run(capsys, *argv, "--order", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_order_file_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "order.txt"
        path.write_bytes(b"\xff\xfe(1;-)\n")
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "2",
                             "--order", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_fixture_mismatch(self, capsys):
        code, _, err = run(capsys, "omega", "--n", "1", "--r", "3",
                           "--order", "fixture:n2r3")
        assert code == 2

    def test_missing_nr(self, capsys):
        code, _, err = run(capsys, "omega")
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "omega.json"
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "2",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 1

    def test_unwritable_out_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.json"
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "2",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOrdersCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "orders", "--n", "2", "--r", "3",
                           "--samples", "5", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        assert data["distinct_orders"] >= 1
        assert "comparable_mismatches" in data


def _readme_flag_table() -> dict:
    """{command: flags} from README's table, verify suites as "verify SUITE"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        m = re.fullmatch(r"\| `([a-z0-9 -]+)` \| `(.*)` \|", line)
        if m:
            table[m.group(1)] = set(re.findall(r"--[a-z-]+", m.group(2)))
    return table


def test_readme_flag_table_matches_the_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    want = {}
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings
                 if s != "--help" and s.startswith("--")}
        if name != "verify":
            want[name] = flags
            continue
        for suite, (_, reads) in SUITES.items():
            want[f"verify {suite}"] = {"--out", *reads}
        assert flags == set().union(*(want[f"verify {s}"] for s in SUITES))
    assert _readme_flag_table() == want


def test_readme_guard_defaults_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = set(re.findall(r"`(--(?:coset|wreath)-bound)`\s+\(default (\d+)\)",
                            readme))
    assert stated == {(flag, str(_FLAGS[flag]["default"]))
                      for flag in ("--coset-bound", "--wreath-bound")}
