"""End-to-end CLI tests: every subcommand runs, outputs are byte
deterministic, and failures produce a machine-readable error record
with no partial files left behind."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ptbound
from ptbound.cli import main
from ptbound.molecules import AMU_TO_EV, builtin_molecules
from ptbound.schrodinger import HBARC_EV_ANG


@pytest.fixture()
def runner():
    return CliRunner()


def read_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestTable2:
    def test_emits_grid_with_reference_column(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        res = runner.invoke(main, ["table2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        header, rows = read_rows(out)
        assert header == [
            "molecule", "n", "l",
            "energy_model_ev", "energy_calibrated_ev", "energy_reference_ev",
            "rel_dev_model", "rel_dev_calibrated", "beyond_nmax",
        ]
        assert len(rows) == 12 * 9
        i2 = next(r for r in rows if r["molecule"] == "I2" and r["n"] == "0" and r["l"] == "0")
        assert i2["energy_reference_ev"] == "-2.01518700249"
        assert abs(float(i2["rel_dev_calibrated"])) < 1e-7
        # rows past the level ceiling are flagged, never dropped
        tih = next(r for r in rows if r["molecule"] == "TiH" and r["n"] == "7" and r["l"] == "0")
        assert tih["beyond_nmax"] == "1"
        assert float(tih["energy_model_ev"]) < 0.0

    def test_byte_deterministic(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, ["table2", "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["table2", "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_calibration_report(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        res = runner.invoke(main, ["table2", "--out", str(out)])
        assert res.exit_code == 0
        report = tmp_path / "t2.report.txt"
        assert report.exists()
        text = report.read_text(encoding="utf-8")
        assert "worst |rel_dev_calibrated| = 3.1" in text
        assert "1973.0" in text
        assert "l(l+1)/12 offset term is dropped" in text
        assert "entries compared: 108" in text

    def test_custom_report_path(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        rep = tmp_path / "notes.txt"
        res = runner.invoke(main, ["table2", "--out", str(out), "--report", str(rep)])
        assert res.exit_code == 0
        assert rep.exists()


class TestSpectrum:
    def test_free_case_closed_form(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(
            main, ["spectrum", "--A", "0", "--B", "0", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        mols = {m.name: m for m in builtin_molecules()}
        for row in rows:
            mol = mols[row["molecule"]]
            n = int(row["n"])
            mu = mol.mu_amu * AMU_TO_EV
            expected = (
                -2.0 * (mol.alpha_invA * HBARC_EV_ANG) ** 2 / mu * (n + 0.5) ** 2
            )
            assert float(row["energy_ev"]) == pytest.approx(expected, rel=1e-9)
            assert row["beyond_nmax"] == "1"  # free well binds nothing

    def test_default_grid_shape(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["spectrum", "--out", str(out)])
        assert res.exit_code == 0
        _, rows = read_rows(out)
        assert len(rows) == 12 * 3  # n in (0,1,2), l in (0,)

    def test_custom_molecule_file(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("name,mu_amu,alpha_invA\nXY,1.5,2.0\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        res = runner.invoke(
            main, ["spectrum", "--molecules", str(data), "--out", str(out)]
        )
        assert res.exit_code == 0
        _, rows = read_rows(out)
        assert {r["molecule"] for r in rows} == {"XY"}

    def test_missing_molecule_file(self, runner, tmp_path):
        res = runner.invoke(
            main, ["spectrum", "--molecules", str(tmp_path / "nope.csv")]
        )
        assert res.exit_code != 0


class TestThermo:
    def test_reduced_units_grid(self, runner, tmp_path):
        out = tmp_path / "th.csv"
        res = runner.invoke(
            main, ["thermo", "--tau", "1.0", "--points", "8", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        header, rows = read_rows(out)
        assert header == ["molecule", "beta", "chi", "Z", "U", "C", "F", "S"]
        assert len(rows) == 12 * 8
        for row in rows:
            assert float(row["Z"]) > 0.0
            for col in ("U", "C", "F", "S"):
                assert math.isfinite(float(row[col]))

    def test_physical_tau_defaults_run(self, runner, tmp_path):
        # Physical tau is large (46.7 for I2), so chi stays small on the
        # default beta grid and everything is finite.
        out = tmp_path / "th.csv"
        res = runner.invoke(main, ["thermo", "--points", "6", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        assert all(math.isfinite(float(r["Z"])) for r in rows)

    def test_overflow_gives_error_record(self, runner, tmp_path):
        # A tiny tau pushes chi past the erfi range; the failure must
        # surface as an error record, not a file.
        out = tmp_path / "th.csv"
        res = runner.invoke(
            main, ["thermo", "--tau", "1e-6", "--out", str(out)]
        )
        assert res.exit_code == 1
        record = json.loads(res.stderr.strip())
        assert record["error"] == "OverflowRangeError"
        assert not out.exists()


class TestDirac:
    def test_reference_root(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["dirac", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["symmetry"] == "pspin"
        assert float(row["E"]) == pytest.approx(19.97340513040207, rel=1e-8)
        assert abs(float(row["residual"])) < 1e-6

    def test_unsatisfiable_mass_gives_error_record(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["dirac", "--M", "5", "--out", str(out)])
        assert res.exit_code == 1
        record = json.loads(res.stderr.strip())
        assert record["error"] == "BracketError"
        assert "n=0" in record["message"]
        assert not out.exists()
        assert not list(tmp_path.iterdir())

    def test_spin_branch(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(
            main,
            ["dirac", "--symmetry", "spin", "--kappa", "-1", "--M", "20",
             "--B", "0", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        assert rows and all(r["symmetry"] == "spin" for r in rows)


class TestFigureData:
    def run_once(self, runner, where):
        res = runner.invoke(
            main, ["figure-data", "--points", "24", "--out", str(where)]
        )
        assert res.exit_code == 0, res.output
        return (
            where / "fig_energy_vs_alpha.csv",
            where / "fig_thermo_vs_beta.csv",
            where / "fig_thermo_vs_zeta.csv",
        )

    def test_three_files_deterministic(self, runner, tmp_path):
        first = self.run_once(runner, tmp_path / "one")
        second = self.run_once(runner, tmp_path / "two")
        for a, b in zip(first, second):
            assert a.exists() and b.exists()
            assert a.read_bytes() == b.read_bytes()

    def test_n2_mean_energy_monotone_in_beta(self, runner, tmp_path):
        _, beta_file, _ = self.run_once(runner, tmp_path / "fig")
        header, rows = read_rows(beta_file)
        assert "U_N2" in header
        u = [float(r["U_N2"]) for r in rows]
        assert all(b <= a for a, b in zip(u, u[1:]))

    def test_z_strictly_increasing_in_zeta(self, runner, tmp_path):
        _, _, zeta_file = self.run_once(runner, tmp_path / "fig")
        header, rows = read_rows(zeta_file)
        for col in ("Z_beta1", "Z_beta2", "Z_beta3"):
            z = [float(r[col]) for r in rows]
            assert all(b > a for a, b in zip(z, z[1:]))


class TestSelfChecks:
    def test_aim_verify(self, runner, tmp_path):
        out = tmp_path / "av.csv"
        res = runner.invoke(main, ["aim-verify", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        assert [r["n"] for r in rows] == ["0", "1", "2", "3"]
        for row in rows:
            assert float(row["rel_dev"]) < 1e-10
            assert row["converged"] == "1"

    def test_oracle_check(self, runner, tmp_path):
        out = tmp_path / "oc.csv"
        res = runner.invoke(main, ["oracle-check", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, rows = read_rows(out)
        assert len(rows) >= 5
        assert all(row["pass"] == "1" for row in rows)


class TestGroup:
    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0, res.output
        assert res.output == f"ptbound, version {ptbound.__version__}\n"

    @pytest.mark.parametrize("module", ["ptbound", "ptbound.cli"])
    def test_version_as_module(self, module, tmp_path):
        # Started as a module from a source checkout, with nothing installed.
        src = Path(ptbound.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        res = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"ptbound, version {ptbound.__version__}\n"

    def test_help_lists_subcommands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for cmd in ("spectrum", "table2", "thermo", "dirac",
                    "figure-data", "aim-verify", "oracle-check"):
            assert cmd in res.output
