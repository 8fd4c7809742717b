"""Fixture loading, transcription guards, and the documented source errata."""
import json
from importlib import resources

import pytest

from wkostka import fixtures
from wkostka.cli import main
from wkostka.exact import LaurentPoly, RationalFunction
from wkostka.factor import solve_factorization
from wkostka.fixtures import (FixtureError, check_fixture, load_fixture,
                              reconstruction_check)
from wkostka.omega import omega_matrix

from literal_reconstruction import laurent_mismatches, matrix_low_mismatches


class TestLoading:
    def test_ids(self):
        for fid in ("n1r3", "n2r3", "n3r3"):
            fx = load_fixture(fid)
            assert fx.id == fid
            assert len(fx.order) == len(fx.a_values)

    def test_n1rk_needs_r(self):
        with pytest.raises(FixtureError):
            load_fixture("n1rk")
        with pytest.raises(FixtureError):
            load_fixture("bogus")

    def test_orders_are_dominance_compatible(self):
        # OrderedIndex construction validates; loading is the assertion
        for fid in ("n1r3", "n2r3", "n3r3"):
            load_fixture(fid)

    @pytest.mark.parametrize("key, value", [("n", 2), ("r", 4)])
    def test_n_and_r_must_be_the_orders(self, tmp_path, monkeypatch, capsys,
                                        key, value):
        """A file's "n" and "r" are checked against its order, not stored:
        a doctored n1r3.json fails to load, and `--order fixture:n1r3`
        exits 2 with one error line."""
        raw = json.loads(resources.files("wkostka.data")
                         .joinpath("n1r3.json").read_text())
        assert (raw["n"], raw["r"]) == (1, 3)
        raw[key] = value
        (tmp_path / "n1r3.json").write_text(json.dumps(raw))
        monkeypatch.setattr(fixtures.resources, "files",
                            lambda package: tmp_path)
        with pytest.raises(FixtureError, match="n1r3"):
            load_fixture("n1r3")
        code = main(["solve", "--n", "1", "--r", "3",
                     "--order", "fixture:n1r3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_the_id_must_be_the_files_name(self, tmp_path, monkeypatch,
                                           capsys):
        """A file's "id" is checked against the id it was loaded by, not
        stored: a copy of n2r3.json whose id reads n1r3 fails to load, and
        `--order fixture:n2r3` exits 2 with one error line."""
        raw = json.loads(resources.files("wkostka.data")
                         .joinpath("n2r3.json").read_text())
        assert raw["id"] == "n2r3"
        raw["id"] = "n1r3"
        (tmp_path / "n2r3.json").write_text(json.dumps(raw))
        monkeypatch.setattr(fixtures.resources, "files",
                            lambda package: tmp_path)
        with pytest.raises(FixtureError, match="'n2r3'.*'n1r3'"):
            load_fixture("n2r3")
        code = main(["solve", "--n", "2", "--r", "3",
                     "--order", "fixture:n2r3"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTranscriptionGuards:
    def test_n1r3_reconstructs_its_omega(self):
        rep = reconstruction_check(load_fixture("n1r3"))
        assert rep.passed and rep.checked == 9

    def test_seeded_omega_cells_are_reported_where_they_are(self):
        fx = load_fixture("n1r3")
        fx.omega[1][2] = fx.omega[1][2] + LaurentPoly.t_power(3)
        rep = reconstruction_check(fx)
        assert rep.checked == 9
        assert rep.violations == [{"at": (1, 2), "omega": str(fx.omega[1][2])}]
        fx.omega[0][1] = fx.omega[0][1] - 1
        rep = reconstruction_check(fx)
        assert [v["at"] for v in rep.violations] == [(0, 1), (1, 2)]

    def test_seeded_n2r3_cells_match_both_oracles(self):
        # The source prints no Omega for n = 2, so the fixture's own tables
        # are checked against the solver's.
        fx = load_fixture("n2r3")
        fx.omega = [list(row) for row in
                    omega_matrix(2, 3, fx.order).rows]
        assert reconstruction_check(fx).passed
        fx.p_minus[5][0] = fx.p_minus[5][0] - LaurentPoly.t_power(5)
        fx.xi[7] = fx.xi[7] + LaurentPoly.t_power(-3)
        fx.omega[2][6] = fx.omega[2][6] + LaurentPoly.t_power(40, 2)
        cells = [v["at"] for v in reconstruction_check(fx).violations]
        tables = (fx.p_minus, fx.xi, fx.p_plus, fx.omega)
        assert len(cells) > 3
        assert cells == list(laurent_mismatches(*tables)) == \
            list(matrix_low_mismatches(*tables))

    def test_fixture_triangles_have_monomial_diagonals(self):
        for fid in ("n1r3", "n2r3", "n3r3"):
            fx = load_fixture(fid)
            for i, lam in enumerate(fx.order.items):
                want_consistent = lam.a_value()
                for tri in (fx.p_minus, fx.p_plus):
                    assert tri[i][i] == LaurentPoly.t_power(want_consistent)


class TestAgainstSolver:
    @pytest.mark.parametrize("fid,r", [("n1r3", None), ("n2r3", None),
                                       ("n1rk", 2), ("n1rk", 3), ("n1rk", 4)])
    def test_full_check(self, fid, r):
        rep = check_fixture(load_fixture(fid, r))
        assert rep.passed, rep.violations[:5]

    def test_violations_name_table_and_cell_in_check_order(self):
        fx = load_fixture("n1r3")
        res = solve_factorization(omega_matrix(1, 3, fx.order))
        fx.xi[1] = RationalFunction.one()
        fx.p_plus[2][0] = LaurentPoly.parse("t^7")
        rep = check_fixture(fx, res)
        assert [(v["table"], v["at"]) for v in rep.violations] == \
            [("p_plus", (2, 0)), ("xi", 1)]
        assert rep.checked == check_fixture(load_fixture("n1r3"), res).checked


class TestDocumentedErrata:
    """The n=3 source table is internally inconsistent at three cells; the
    fixture records the printed values and the values forced by the unique
    factorization (which the fully independent wreath oracle confirms)."""

    def _result(self):
        fx = load_fixture("n3r3")
        om = omega_matrix(3, 3, fx.order)
        return fx, solve_factorization(om)

    def test_erratum_cells_match_forced_values(self):
        fx, res = self._result()
        assert res.a_values[16] == 3            # printed as 2
        assert res.lam[16] == RationalFunction(
            LaurentPoly.parse("t^6*(t^3 - 1)*(t^6 - 1)*(t^9 - 1)"))
        assert res.lam[17] == RationalFunction(
            LaurentPoly.parse("t^9*(t^6 - 1)*(t^9 - 1)"))

    @pytest.mark.xfail(strict=True,
                       reason="three cells of the printed n=3 table "
                              "contradict the printed P+- matrices and the "
                              "uniqueness of the factorization (see the "
                              "fixture errata block)")
    def test_printed_values_verbatim(self):
        fx, res = self._result()
        ok = (res.a_values[16] == fx.a_values[16]
              and res.lam[16] == fx.xi[16]
              and res.lam[17] == fx.xi[17])
        assert ok

    def test_everything_else_matches_verbatim(self):
        fx, res = self._result()
        rep = check_fixture(fx, res)
        assert rep.passed, rep.violations[:5]

    def test_a_misrecorded_erratum_is_a_violation(self):
        fx, res = self._result()
        fx.errata["xi"]["16"]["printed"] = "t^2"
        rep = check_fixture(fx, res)
        assert [(v["table"], v["at"]) for v in rep.violations] == \
            [("xi(erratum)", 16)]
