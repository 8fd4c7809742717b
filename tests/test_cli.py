"""Command-line surface: formats, exit codes, JSON round trips."""
import argparse
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wkostka
from wkostka import omega as omega_mod, rpart
from wkostka.cli import _FLAGS, SUITES, build_parser, main
from wkostka.commands import omega_to_json
from wkostka.exact import LaurentPoly, PolyMatrix, RationalFunction
from wkostka.omega import omega_matrix
from wkostka.rpart import OrderedIndex, RPartition, default_total_order


SRC = Path(wkostka.__file__).resolve().parents[1]


def omega_from_json(data: dict) -> PolyMatrix:
    """The inverse of omega_to_json."""
    order = OrderedIndex(tuple(RPartition.parse(s) for s in data["order"]))
    rows = [[LaurentPoly.parse(s) for s in row] for row in data["entries"]]
    assert (data["n"], data["r"]) == (order.n, order.r)
    return PolyMatrix(order, rows)


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
        """omega builds Omega by one route; the cosets-vs-wreath comparison
        is verify oracle, which names each entry that differs."""
        code, out, err = run(capsys, "omega", "--n", "1", "--r", "3",
                             "--method", "both")
        assert (code, out, err) == (
            2, "", "error: unrecognized arguments: --method both\n")

    # The weight compositions must not recurse once per colour, or 1000
    # colours pass Python's recursion limit.  The wreath oracle runs as
    # verify oracle, which checks its one entry against the coset route's.
    @pytest.mark.parametrize("argv", [("omega",), ("verify", "oracle")],
                             ids=["cosets", "wreath"])
    def test_n0_with_1000_colours(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--n", "0", "--r", "1000")
        assert code == 0
        data = json.loads(out)
        if argv == ("omega",):
            assert data["entries"] == [["1"]]
            assert data["order"] == ["(" + ";".join(["-"] * 1000) + ")"]
        else:
            assert (data["checked"], data["pass"]) == (1, True)

    def test_symmetric_r2(self, capsys):
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "2")
        rows = json.loads(out)["entries"]
        assert rows[0][1] == rows[1][0]

    def test_round_trip(self, capsys):
        om = omega_matrix(2, 3, default_total_order(2, 3))
        data = json.loads(json.dumps(omega_to_json(om)))
        back = omega_from_json(data)
        assert back == om
        assert back.index.items == om.index.items

    def test_the_oracle_builds_the_same_matrix(self):
        """omega_matrix's wreath route, which no command runs, prints what
        `omega --n 2 --r 4` prints by the coset route."""
        om = omega_matrix(2, 4, default_total_order(2, 4), "wreath")
        out = json.dumps(omega_to_json(om), indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == \
            GOLDEN[("omega", "--n", "2", "--r", "4")]


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
        assert back_omega == [list(row) for row in res.omega.rows]

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
# the (2,4) omega digest also pins the oracle's matrix
# (TestOmegaCommand::test_the_oracle_builds_the_same_matrix), and the (2,4)
# verify oracle digest its report.  The (4,2) solve,
# the csv and latex forms of (3,3) and verify fixtures pin the printing of
# int and Fraction coefficients alike.
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
    ("omega", "--n", "2", "--r", "4"):
        "439432b755ee8851bfb7f67f26e10b7ab274f5d49d5a7a69fe99dff513d9724f",
    ("verify", "oracle", "--n", "2", "--r", "4"):
        "1c1eec3031c5c386ce88e472ab5c02c28e28a6c880f4e77449af37d19b8e78d8",
    ("solve", "--n", "4", "--r", "2"):
        "61d381885cbe7509372900aba07c8ef081b796c6436c8d0273e5ac2e1d1e2657",
    ("solve", "--n", "3", "--r", "3", "--format", "csv"):
        "eceaec2bdd0e2b93765f36ff48ddefb4024405853b50e9924ae476328efd1ae6",
    ("solve", "--n", "3", "--r", "3", "--format", "latex"):
        "07daf934e8400320b237b605d3e6c35560ff800f6f6a793d98d2309b2ece703b",
    ("verify", "fixtures"):
        "a2fd8580ed086a5928dec680eea56656bbc045c03d200e3d5602b2183bb393a7",
    ("verify", "lemma59"):
        "896a53d8ee0b2032c92e524d9d17cffbfdff8ed953b1abfe8246cc51acf6fa7f",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "1", "--r", "3"),
    ("verify", "thm55", "--n", "2", "--r", "2"),
], ids=" ".join)
def test_traced_harness_reports_the_cli_digest(capsys, argv):
    """bench/traced.py wraps names inside src/ by module attribute; a rename
    there breaks the per-layer benchmark, and this catches it."""
    root = SRC.parent
    done = subprocess.run(
        [sys.executable, "bench/traced.py", *argv], cwd=root,
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(done.stdout)["output_sha256"] == \
        hashlib.sha256(out.encode()).hexdigest()


# argv -> sha256 of its one stderr line.  The last five rows are argparse's
# own errors: a bad int, a missing command, a missing suite, an unknown suite
# and an unknown command.
USAGE_ERRORS = {
    ("verify", "lemma59", "--format", "csv"):
        "f48694e8c87c763fce10318e8eb79aa896577aa0e150805aafabc5d761888b76",
    ("verify", "thm55", "--suite", "lemma59"):
        "12aca1af379584584d1be1f8cad22ffe54ce6506568db6c8b229d423e72523e1",
    ("solve", "--n", "1", "--r", "3", "--method", "both"):
        "050cd612c6ea0894d368f9cf05b8d50b4e12049d22874cc22c7d08c67484372e",
    ("enumerate", "--n", "1", "--r", "3", "--seed", "1"):
        "b1203bc0eeb35bc0c2d92487878e453370ca3ea29e13a465c7134cc2bbc20000",
    ("omega", "--n", "1", "--r", "3", "--samples", "3"):
        "b1e5bdc26812b955a0ec3da8da863489715e369f3c2231f378eca40b4c167434",
    ("verify", "orders", "--order", "default"):
        "6493b67c8a5628874cc60848891d3f202b8939973b8128b1ee2a0bca567da8e5",
    ("solve", "--n", "x", "--r", "3"):
        "5215f00a56e1ac44f29db5e94b769acfdabcb877547d97e0ab87d07ba7747b31",
    ():
        "398a71844e12cf1130e8120e26594978f8c8e18f9dc1ee972324c143698a7cad",
    ("verify",):
        "4f87d26bf39011c0dc2e4e1bbd6a20c303f305900d573c75a3577ae90b04c941",
    ("verify", "nonsense"):
        "c22a653af005e968bc22d0e9d8fd9610e385c70b084001a3c1f5f2d9e54f0c1d",
    ("orders", "--n", "2"):
        "6185907a9941c9b5e6e1cb6781c411d40929bd25faa975c2a9527f8c841f749c",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_undeclared_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert hashlib.sha256(err.encode()).hexdigest() == USAGE_ERRORS[argv]


# sha256 of the --help stdout of the program, of each command and of each
# verify suite, at a width of 80 columns.
GOLDEN_HELP = {
    "": "37fa55669328e21dd898621ff2d56f8bb4629067e14a89bd7601ece7b22d58fb",
    "enumerate":
        "0c8e311ed9e31735df536fa064f80c74e023573c12c6ffdea9ceff3090da38b1",
    "omega": "a4f860f40b69dcb60861d64812ced6daaf2e9e9c3b743be781cfbfb205a80b68",
    "solve": "9d3e2f10195e784b1e004fc0879f5aef87b5d42a7ee31c483f04b0d681142d42",
    "verify": "e61ffdb35e3bb74fb6ce4decc89a90ed976bf0672f97397d4df6ee3e52e389a0",
    "verify fixtures":
        "13697db95d09006515e9be59fecbd1bee12e006c4b5897ae8d54a83069d7ccbe",
    "verify lemma59":
        "2a71597fbcfcfaba01df4fc496d5d4d1f837489bac9154c57948a2712fb738d5",
    "verify thm55":
        "486b3de9bbdce54d397c9e08640c02f1ef5f60b31d83f7db2b3fe60ce680fdd0",
    "verify oracle":
        "c599ad2fac641dc9d9e6e6ccb0015df7884fe15f0bcad41089193cb4f32d9326",
    "verify symmetry":
        "2db1fbc438890a0fea2a8e0662b7be0af6f929befe5033586af3a8adf8399d89",
    "verify classical-r1":
        "cbc04232cc4312b13bab46444de8f097abc68108a112f52ea11114373f6bf767",
    "verify orders":
        "74dcc00432a6c3e12d7ab32020a8ac9186769409df869ca733b782260556eca5",
}


@pytest.mark.parametrize("command", list(GOLDEN_HELP))
def test_golden_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_HELP[command]


@pytest.mark.parametrize("command", [("enumerate",), ("omega",), ("solve",),
                                     ("verify", "oracle")], ids=" ".join)
@pytest.mark.parametrize("n, r, message", [
    ("-1", "3", "--n must be at least 0"),
    ("2", "0", "--r must be at least 1"),
    ("-1", "-1", "--n must be at least 0")])
def test_n_and_r_ranges_are_checked_with_the_flags(capsys, command, n, r,
                                                   message):
    code, out, err = run(capsys, *command, "--n", n, "--r", r)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe early, as `| head -1` does, is no
    failure: exit 0 and nothing on stderr.  The 80 kB of stdout exceed the
    pipe's buffer, so the write meets the closed pipe."""
    done = subprocess.Popen(
        [sys.executable, "-m", "wkostka.cli", "solve", "--n", "3", "--r", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.read(1) == b"{"
    done.stdout.close()
    err = done.stderr.read()
    done.stderr.close()
    assert (done.wait(timeout=120), err) == (0, b"")


def test_each_error_class_exits_by_its_root_base():
    """main exits 1 on a wkostka.Failure and 2 on a wkostka.UsageError.
    The other error classes of the package are raised only by calls the
    commands never make (ExactError, SymGrpError), and main catches
    neither."""
    modules = [importlib.import_module(f"wkostka.{path.stem}")
               for path in sorted(SRC.joinpath("wkostka").glob("*.py"))
               if path.stem not in ("__init__", "cli")]
    errors = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == module.__name__}

    def names(base) -> set:
        return {e.__name__ for e in errors if issubclass(e, base)}

    assert names(wkostka.Failure) == {
        "OmegaError", "FactorizationError", "GreenCheckError"}
    assert names(wkostka.UsageError) == {"RPartitionError", "FixtureError"}
    assert {e.__name__ for e in errors} == {
        *names(wkostka.Failure), *names(wkostka.UsageError), "ExactError",
        "SymGrpError"}


@pytest.mark.parametrize("module, error, name, argv", [
    ("factor", "FactorizationError", "solve_factorization",
     ("solve", "--n", "1", "--r", "2")),
    ("greencheck", "GreenCheckError", "thm55_check",
     ("verify", "thm55", "--n", "1", "--r", "2")),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_errors_of_modules_loaded_by_a_command_exit_1(module, error, name,
                                                      argv):
    """Run as `python -m wkostka.cli`, the CLI is __main__ and loads factor
    and greencheck inside its commands; their errors still exit 1."""
    probe = "\n".join((
        f"import runpy, sys, wkostka.{module} as m",
        f"def seeded(*args): raise m.{error}('seeded')",
        f"m.{name} = seeded",
        f"sys.argv = ['wkostka', *{list(argv)!r}]",
        "runpy.run_module('wkostka.cli', run_name='__main__')"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout, done.stderr) == \
        (1, "", "error: seeded\n")


def test_omega_bound_exits_1_with_neither_factor_nor_greencheck_loaded():
    done = subprocess.run(
        [sys.executable, "-m", "wkostka.cli", "omega", "--n", "1", "--r", "5",
         "--coset-bound", "4"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: coset route bound exceeded: K = 5 > 4, "
                           "where K = |P_{n,r}|\n")


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

    def test_lemma59_fails_on_a_seeded_a_O_fault(self, capsys, monkeypatch):
        from wkostka import greencheck
        real = greencheck.a_O
        monkeypatch.setattr(greencheck, "a_O", lambda h, r: real(h, r) + 1)
        code, out, _ = run(capsys, "verify", "lemma59", "--n", "1", "--r", "2")
        data = json.loads(out)
        assert (code, data["pass"]) == (1, False)
        assert len(data["violations"]) == data["checked"] > 0

    def test_classical_fails_on_a_wrong_solver_cell(self, capsys,
                                                    monkeypatch):
        """Seeded: the solver's P- one more in its last row's first cell."""
        from wkostka import factor
        solve = factor.solve_factorization

        def seeded(om):
            rows = [list(row) for row in solve(om).p_minus.rows]
            rows[-1][0] += 1
            return SimpleNamespace(p_minus=SimpleNamespace(rows=rows))

        monkeypatch.setattr(factor, "solve_factorization", seeded)
        code, out, _ = run(capsys, "verify", "classical-r1", "--n", "2")
        data = json.loads(out)
        assert (code, data["pass"]) == (1, False)
        assert [(v["n"], v["lam"], v["mu"]) for v in data["violations"]] == \
            [(1, "(1)", "(1)"), (2, "(2)", "(11)")]
        assert all(LaurentPoly.parse(v["solver"]) ==
                   LaurentPoly.parse(v["charge_oracle"]) + 1
                   for v in data["violations"])

    def test_fixtures_tags_each_violation_with_its_fixture(self, capsys,
                                                          monkeypatch):
        """Seeded: a(lambda) of each solve's first r-partition one more, so
        every fixture reports its own a_values mismatch."""
        from wkostka import fixtures
        from wkostka.factor import FactorizationResult
        solve = fixtures.solve_factorization

        def seeded(om):
            res = solve(om)
            fields = {f: getattr(res, f) for f in FactorizationResult.__slots__}
            fields["a_values"] = (res.a_values[0] + 1, *res.a_values[1:])
            return FactorizationResult(**fields)

        monkeypatch.setattr(fixtures, "solve_factorization", seeded)
        code, out, _ = run(capsys, "verify", "fixtures")
        found = json.loads(out)["violations"]
        assert code == 1
        assert [v["fixture_id"] for v in found] == \
            ["n1r3", "n2r3", "n3r3"] + [f"n1rk(r={r})" for r in range(2, 7)]
        assert all(v["table"].startswith("a_values") and v["at"] == 0
                   for v in found)

    def test_orders_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "orders", "--n", "2", "--r", "2",
                           "--samples", "4", "--seed", "3")
        assert code == 0

    def test_bare_orders_compares_more_than_one_order(self, capsys):
        code, out, _ = run(capsys, "verify", "orders")
        params = json.loads(out)["params"]
        assert code == 0 and (params["n"], params["r"]) == (3, 2)
        assert params["distinct_orders"] > 1

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

    def test_symmetry_catches_a_seeded_asymmetric_entry(self, capsys,
                                                         monkeypatch):
        """One direct entry off by 1 at a pair whose first index is not its
        orbit's representative breaks the transpose, rotation and
        conjugation checks."""
        argv = ("verify", "symmetry", "--n", "2", "--r", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["violations"] == []
        real = omega_mod._omega_entry_direct
        seeded_pair = (RPartition.parse("(2;-;-)"), RPartition.parse("(1;1;-)"))

        def seeded(lam, mu, r):
            value = real(lam, mu, r)
            return value + 1 if (lam, mu) == seeded_pair else value

        monkeypatch.setattr(omega_mod, "_omega_entry_direct", seeded)
        code, out, _ = run(capsys, *argv)
        found = json.loads(out)["violations"]
        assert code == 1
        assert {v["kind"] for v in found} == {"transpose", "rotation",
                                              "conjugation"}
        assert all(v["r"] == 3 for v in found)
        assert ("(2;-;-)", "(1;1;-)") in {(v["lam"], v["mu"]) for v in found}

    @pytest.mark.parametrize("argv", [
        ("symmetry", "--n", "1", "--r", "0"),
        ("symmetry", "--n", "-1", "--r", "1"),
        ("lemma59", "--n", "1", "--r", "0"),
        ("classical-r1", "--n", "0"),
        ("orders", "--samples", "0"),
    ])
    def test_bad_suite_bounds_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_samples_names_the_flag(self, capsys):
        code, out, err = run(capsys, "verify", "orders", "--samples", "0")
        assert code == 2 and out == ""
        assert err == "error: --samples must be at least 1\n"

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
        for n, r, bound, cost in (("2", "3", "13121", 13122),
                                  ("1", "3", "2", 243)):
            code, out, err = run(capsys, "verify", "oracle", "--n", n,
                                 "--r", r, "--wreath-bound", bound)
            assert code == 1 and out == ""
            assert err == ("error: wreath oracle bound exceeded: "
                           f"K^3*r^2*n = {cost} > {bound}, "
                           "where K = |P_{n,r}|\n")

    # K^3 r^2 n is 81776640 at (15,1) and 110480986 at (2,11), past the
    # default bound, which admits (4,4) at 74088000.
    @pytest.mark.parametrize("n, r, cost", [("15", "1", 81776640),
                                            ("2", "11", 110480986)])
    def test_size_past_the_default_bound_exits_1(self, capsys, n, r, cost):
        code, out, err = run(capsys, "verify", "oracle", "--n", n, "--r", r)
        assert code == 1 and out == ""
        assert err == ("error: wreath oracle bound exceeded: "
                       f"K^3*r^2*n = {cost} > 80000000, "
                       "where K = |P_{n,r}|\n")


class TestCosetBound:
    def test_bound_counts_rpartitions(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "5",
                             "--coset-bound", "4")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "K = 5" in err

    # The ids number the rows as they were when omega and solve also took
    # --wreath-bound, so that test reports stay comparable.
    @pytest.mark.parametrize("command, flag", [
        (("omega",), "--coset-bound"), (("solve",), "--coset-bound"),
        (("verify", "oracle"), "--wreath-bound")],
        ids=["command0---coset-bound", "command2---coset-bound",
             "command4---wreath-bound"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_bound_below_1_is_a_usage_error(self, capsys, command, flag,
                                            value):
        code, out, err = run(capsys, *command, "--n", "1", "--r", "3",
                             flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be at least 1\n"

    # K = 429 at (7,3) and 481 at (10,2), past the default bound of 300.
    @pytest.mark.parametrize("n, r, k", [("7", "3", 429), ("10", "2", 481)])
    def test_k_past_the_default_bound_exits_1(self, capsys, n, r, k):
        code, out, err = run(capsys, "solve", "--n", n, "--r", r)
        assert code == 1 and out == ""
        assert err == ("error: coset route bound exceeded: "
                       f"K = {k} > 300, where K = |P_{{n,r}}|\n")

    # Building an order compares every pair of the K r-partitions, so the
    # coset guard trips before it: K = 2640 at (10,3).
    @pytest.mark.parametrize("command", ["omega", "solve"])
    def test_guard_trips_before_the_order_is_built(self, capsys, monkeypatch,
                                                   command):
        def refuse(n, r):
            raise AssertionError("the order was built")
        monkeypatch.setattr(rpart, "default_total_order", refuse)
        code, out, err = run(capsys, command, "--n", "10", "--r", "3")
        assert (code, out, err) == (
            1, "", "error: coset route bound exceeded: K = 2640 > 300, "
                   "where K = |P_{n,r}|\n")

    def test_orders_guard_trips_before_the_orders_are_drawn(self, capsys,
                                                           monkeypatch):
        def refuse(n, r, count, seed):
            raise AssertionError("the orders were drawn")
        monkeypatch.setattr(rpart, "sample_linear_extensions", refuse)
        code, out, err = run(capsys, "verify", "orders", "--n", "10",
                             "--r", "3")
        assert (code, out, err) == (
            1, "", "error: coset route bound exceeded: K = 2640 > 300, "
                   "where K = |P_{n,r}|\n")

    # K is counted, not enumerated, so refusing (14,4) (K = 116090) costs
    # no walk over P_{n,r}.
    @pytest.mark.parametrize("argv, message", [
        (("omega",), "coset route bound exceeded: K = 116090 > 300"),
        (("verify", "orders"), "coset route bound exceeded: K = 116090 > 300"),
        (("verify", "oracle"), "wreath oracle bound exceeded: "
         "K^3*r^2*n = 350455154454496000 > 80000000")],
        ids=["omega-cosets", "orders", "oracle"])
    def test_guard_counts_without_enumerating(self, capsys, monkeypatch,
                                             argv, message):
        def refuse(n, r):
            raise AssertionError("P_{n,r} was enumerated")
        # omega gets the stub too, in case its guard imports the name.
        for mod in (rpart, omega_mod):
            monkeypatch.setattr(mod, "enumerate_rpartitions", refuse,
                                raising=False)
        code, out, err = run(capsys, *argv, "--n", "14", "--r", "4")
        assert (code, out, err) == (
            1, "", f"error: {message}, where K = |P_{{n,r}}|\n")

    def test_bound_of_1_admits_k_1(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "0", "--r", "3",
                           "--coset-bound", "1")
        assert code == 0 and json.loads(out)["order"] == ["(-;-;-)"]

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

    # A malformed line and an order against dominance raise RPartitionError,
    # a UsageError, in a fresh interpreter that reached cli either as
    # `python -m wkostka.cli` or, as the console script does, by importing
    # wkostka.cli and calling main.
    @pytest.mark.parametrize("text, argv, message", [
        ("(1;-;-\n", ("omega", "--n", "1", "--r", "3"),
         "bad partition chunk '(1'"),
        ("(1;-)\n(-;1)\n", ("solve", "--n", "1", "--r", "2"),
         "order violates dominance: (-;1) must precede (1;-)"),
    ], ids=["malformed", "against-dominance"])
    @pytest.mark.parametrize("route", [
        ("-m", "wkostka.cli"),
        ("-c", "import sys; from wkostka.cli import main; "
               "sys.exit(main(sys.argv[1:]))"),
    ], ids=["python-m", "console-script"])
    def test_bad_order_file_exits_2_in_a_fresh_interpreter(
            self, tmp_path, route, text, argv, message):
        path = tmp_path / "order.txt"
        path.write_text(text)
        done = subprocess.run(
            [sys.executable, *route, *argv, "--order", f"file:{path}"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stdout, done.stderr) == \
            (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("spec,r,message", [
        ("fixture:nope", "3", "unknown fixture 'nope'"),
        ("fixture:n1rk", "1", "the general-r fixture needs r >= 2"),
    ])
    def test_bad_fixture_is_a_usage_error(self, capsys, spec, r, message):
        code, out, err = run(capsys, "solve", "--n", "1", "--r", r,
                             "--order", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_import_skips_fixtures_and_csv(self):
        """Only fixture orders, verify fixtures and csv output load them."""
        probe = ("import sys, wkostka.cli; print('wkostka.fixtures' in "
                 "sys.modules, 'csv' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.stdout == "False False\n"

    def test_missing_nr(self, capsys):
        code, _, err = run(capsys, "omega")
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "omega.json"
        code, out, _ = run(capsys, "omega", "--n", "1", "--r", "2",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 1

    # solve in each format, and a verify suite's report.
    @pytest.mark.parametrize("argv", [
        ("solve", "--n", "1", "--r", "2"),
        ("solve", "--n", "1", "--r", "2", "--format", "csv"),
        ("solve", "--n", "1", "--r", "2", "--format", "latex"),
        ("verify", "symmetry", "--n", "1", "--r", "2"),
    ], ids=["solve-json", "solve-csv", "solve-latex", "verify-symmetry"])
    def test_out_file_gets_the_stdout_bytes(self, tmp_path, capsys, argv):
        """--out writes exactly the bytes stdout gets, final newline and
        all."""
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n")
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_unwritable_out_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.json"
        code, out, err = run(capsys, "solve", "--n", "1", "--r", "2",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOrdersCommand:
    """The order-sensitivity report, which `verify orders` gives."""

    def test_report(self, capsys):
        code, out, _ = run(capsys, "verify", "orders", "--n", "2", "--r", "3",
                           "--samples", "5", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        params = data["params"]
        assert list(params) == ["n", "r", "samples", "distinct_orders", "seed",
                                "comparable_mismatches",
                                "incomparable_mismatches"]
        assert data["checked"] == params["distinct_orders"] >= 1
        assert params["comparable_mismatches"] == []

    def test_no_orders_subcommand(self, capsys):
        code, out, err = run(capsys, "orders", "--n", "2", "--r", "3")
        assert code == 2 and out == ""
        assert "invalid choice: 'orders'" in err


def _readme_flag_table() -> dict:
    """{command: flags} from README's table, verify suites as "verify SUITE"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        m = re.fullmatch(r"\| `([a-z0-9 -]+)` \| `(.*)` \|", line)
        if m:
            table[m.group(1)] = set(re.findall(r"--[a-z-]+", m.group(2)))
    return table


def _subparsers(parser) -> dict:
    """{name: sub-parser} of parser's sub-command action."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _parser_flags(parser=None) -> dict:
    """{command: its flags but --help}, verify suites as "verify SUITE", of
    parser's tree (the whole tree by default)."""
    parsers = dict(_subparsers(parser or build_parser()))
    if "verify" in parsers:
        suites = _subparsers(parsers.pop("verify"))
        parsers.update((f"verify {suite}", p) for suite, p in suites.items())
    return {name: {s for a in p._actions for s in a.option_strings
                   if s != "--help" and s.startswith("--")}
            for name, p in parsers.items()}


@pytest.mark.parametrize("argv, named", [
    (("solve", "--n", "2", "--r", "3", "--emit", "lambda"), {"solve"}),
    (("omega", "--n", "1", "--r", "3", "--method", "wreath"), {"omega"}),
    (("enumerate", "--n", "2", "--r", "2", "--format", "csv"), {"enumerate"}),
    (("verify", "thm55", "--n", "2", "--q", "2", "3"), {"verify thm55"}),
    (("verify", "orders", "--seed", "4"), {"verify orders"}),
    (("verify", "--out", "x", "thm55"), None),
    (("solve", "--n", "-1", "--r", "3", "--order", "verify"), {"solve"}),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_the_named_parser_reads_argv_as_the_whole_tree(argv, named):
    """build_parser(argv) builds only the command and suite argv names, or
    the whole tree (named None) when argv names none, each parser with its
    flags; it parses argv as the whole tree does, or fails as it does."""
    def parsed(parser):
        try:
            return vars(parser.parse_args(argv))
        except wkostka.UsageError as exc:
            return str(exc)
    assert parsed(build_parser(argv)) == parsed(build_parser())
    built = _parser_flags(build_parser(argv))
    assert set(built) == (set(_parser_flags()) if named is None else named)
    assert all(built.values())


def _tree_size(parser) -> int:
    """The number of parsers in parser's tree, parser included."""
    return 1 + sum(_tree_size(p) for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)
                   for p in a.choices.values())


@pytest.mark.parametrize("argv, size", [
    (("verify", "thm55", "--n", "3", "--r", "2"), 3),
    (("solve", "--n", "2", "--r", "5"), 2),
    (("enumerate", "--n", "2", "--r", "2"), 2),
    (("--help", "solve"), 12), (("verify",), 12), (("verify", "nonsense"), 12),
    (("nonsense",), 12), ((), 12)], ids=lambda v: " ".join(v)
    if isinstance(v, tuple) else str(v))
def test_only_the_named_path_is_built(argv, size):
    """A command and suite that argv names get their parsers alone; any
    other argv gets all 12, so that help and choice errors stay whole."""
    assert _tree_size(build_parser(argv)) == size


def test_readme_flag_table_matches_the_parser():
    want = _parser_flags()
    for suite, (_, flags) in SUITES.items():
        assert want[f"verify {suite}"] == {"--out", *flags}
    assert _readme_flag_table() == want


def _readme_cli_lines() -> list:
    """The argv of each `wkostka` line in README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("wkostka ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for argv in lines:
        build_parser().parse_args(argv)


@pytest.mark.parametrize("command", ["", "verify"] + sorted(_parser_flags()))
def test_help_exits_0_and_lists_the_declared_flags(capsys, command):
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert set(re.findall(r"--[a-z-]+", out)) == \
        {"--help", *_parser_flags().get(command, ())}


def test_readme_guard_defaults_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = set(re.findall(r"`(--(?:coset|wreath)-bound)`\s+\(default (\d+)\)",
                            readme))
    assert stated == {(flag, str(_FLAGS[flag]["default"]))
                      for flag in ("--coset-bound", "--wreath-bound")}
