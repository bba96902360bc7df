"""End-to-end CLI tests: every subcommand runs, outputs are byte
deterministic, and failures produce a machine-readable error record
with no partial files left behind."""

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ptbound
from ptbound.cli import (
    FIGURE_MOLECULES,
    RunConfig,
    _grid,
    cli_aim_verify,
    cli_figure_data,
    cli_table2,
    cli_thermo,
    main,
)
from ptbound.errors import ConvergenceError, DomainError, PtboundError
from ptbound.molecules import AMU_TO_EV, builtin_molecules, thermo_context_for
from ptbound.schrodinger import HBARC_EV_ANG, energy_nr
from ptbound.tableio import format_cell
from ptbound.thermo import ThermoContext, thermo_point


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

    def test_molecule_without_reference_values(self, tmp_path):
        i2 = next(m for m in builtin_molecules() if m.name == "I2")
        data = tmp_path / "mols.csv"
        data.write_text(
            f"name,mu_amu,alpha_invA\nXY,1.5,2.0\nI2,{i2.mu_amu!r},{i2.alpha_invA!r}\n",
            encoding="utf-8",
        )
        out, report = cli_table2(RunConfig(out=tmp_path / "t2.csv", molecules_path=data))
        _, rows = read_rows(out)
        assert len(rows) == 2 * 9
        for row in rows:
            if row["molecule"] == "XY":
                assert row["energy_reference_ev"] == ""
                assert math.isnan(float(row["rel_dev_model"]))
                assert math.isnan(float(row["rel_dev_calibrated"]))
                assert math.isfinite(float(row["energy_model_ev"]))
            else:
                assert row["energy_reference_ev"] != ""
        assert "entries compared: 9" in report.read_text(encoding="utf-8")

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


def row_path_bytes(header, rows) -> bytes:
    """A table as the row path renders it: format_cell on every cell."""
    return "".join(",".join(map(format_cell, row)) + "\n" for row in [header, *rows]).encode()


def thermo_row_table(config, *, l=0, beta_min=1e-4, beta_max=1.0, points=64, tau=None):
    """cli_thermo's table built row by row from pointwise thermo_point calls."""
    betas = _grid(beta_min, beta_max, points, log=True)
    rows = []
    for mol in config.molecules():
        ctx = thermo_context_for(
            mol, config.potential(mol.alpha_invA), l=l, tau=tau,
            hbar_c=config.hbar_c, amu_to_ev=config.amu_to_ev,
        )
        rows += [[mol.name, *thermo_point(ctx, beta)] for beta in betas]
    return row_path_bytes(["molecule", "beta", "chi", "Z", "U", "C", "F", "S"], rows)


def figure_row_tables(config, *, alpha_min=0.05, alpha_max=0.5, beta_min=1e-4, beta_max=1.0,
                      zeta_min=1.0, zeta_max=100.0, points=64):
    """cli_figure_data's three tables built row by row, pointwise."""
    mols = {mol.name: mol for mol in config.molecules()}
    wanted = [name for name in FIGURE_MOLECULES if name in mols]
    ctx = config.context(mols.get("N2") or next(iter(mols.values())))
    contexts = [
        thermo_context_for(mols[name], config.potential(mols[name].alpha_invA), tau=1.0,
                           hbar_c=config.hbar_c, amu_to_ev=config.amu_to_ev)
        for name in wanted
    ]
    fields = ("Z", "U", "C", "F", "S")
    fixed = (1e-4, 1e-3, 1e-2)
    return {
        "fig_energy_vs_alpha.csv": row_path_bytes(
            ["alpha", "E_n1", "E_n2", "E_n3", "E_n4"],
            [[a] + [energy_nr(config.potential(a), ctx, n, 0) for n in (1, 2, 3, 4)]
             for a in _grid(alpha_min, alpha_max, points)],
        ),
        "fig_thermo_vs_beta.csv": row_path_bytes(
            ["beta"] + [f"{q}_{name}" for name in wanted for q in fields],
            [[b] + [v for c in contexts for v in thermo_point(c, b)[2:]]
             for b in _grid(beta_min, beta_max, points, log=True)],
        ),
        "fig_thermo_vs_zeta.csv": row_path_bytes(
            ["zeta"] + [f"{q}_beta{i}" for i in (1, 2, 3) for q in fields],
            [[z] + [v for b in fixed for v in thermo_point(ThermoContext(zeta=z, tau=1.0), b)[2:]]
             for z in _grid(zeta_min, zeta_max, points)],
        ),
    }


def seeded_thermo_args(rng):
    a = rng.uniform(-3.0, -0.5)
    config = RunConfig(a=a, b=-a + rng.uniform(0.5, 3.0))
    kwargs = dict(l=rng.randint(0, 2), tau=rng.choice((None, 1.0)), points=rng.randint(16, 96))
    zetas = [thermo_context_for(m, config.potential(m.alpha_invA), l=kwargs["l"], tau=kwargs["tau"])
             for m in config.molecules()]
    kwargs["beta_max"] = (rng.uniform(8.0, 20.0) / max(c.zeta / c.tau for c in zetas)) ** 2
    kwargs["beta_min"] = kwargs["beta_max"] * 10.0 ** -rng.uniform(2.0, 4.0)
    return config, kwargs


def seeded_figure_args(rng):
    return RunConfig(), dict(
        alpha_min=rng.uniform(0.02, 0.1), alpha_max=rng.uniform(0.3, 1.0),
        beta_min=10.0 ** rng.uniform(-5.0, -3.0), beta_max=rng.uniform(0.2, 1.0),
        zeta_min=rng.uniform(0.5, 5.0), zeta_max=rng.uniform(75.0, 200.0),
        points=rng.randint(16, 96),
    )


NON_ASCII = "name,mu_amu,alpha_invA\nN2,7.0,2.7\n\u00c5ngstr\u00f6m,12.0,1.5\nI2,63.4,1.9\n"
WITH_NUL = "name,mu_amu,alpha_invA\nN2,7.0,2.7\nX\x00Y,20.0,1.0\n"


class TestColumnTables:
    """thermo and figure-data format their float64 blocks as ColumnTables;
    every file must hold the bytes the row path gives for the same table,
    built from pointwise thermo_point calls."""

    @pytest.mark.parametrize("seed", range(4))
    def test_thermo_seeded(self, tmp_path, seed):
        config, kwargs = seeded_thermo_args(random.Random(3000 + seed))
        out = cli_thermo(RunConfig(a=config.a, b=config.b, out=tmp_path / "t.csv"), **kwargs)
        assert out.read_bytes() == thermo_row_table(config, **kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_figure_data_seeded(self, tmp_path, seed):
        config, kwargs = seeded_figure_args(random.Random(3100 + seed))
        paths = cli_figure_data(RunConfig(out=tmp_path), **kwargs)
        expected = figure_row_tables(config, **kwargs)
        assert {p.name: p.read_bytes() for p in paths} == expected

    @pytest.mark.parametrize("text", [NON_ASCII, WITH_NUL], ids=["non-ascii", "nul"])
    def test_molecule_names(self, tmp_path, text):
        data = tmp_path / "mols.csv"
        data.write_text(text, encoding="utf-8")
        config = RunConfig(molecules_path=data)
        name = text.splitlines()[2].split(",")[0]
        kwargs = dict(beta_max=1e-2, points=8)
        out = cli_thermo(RunConfig(molecules_path=data, out=tmp_path / "t.csv"), **kwargs)
        assert out.read_bytes() == thermo_row_table(config, **kwargs)
        assert name.encode() in out.read_bytes()
        paths = cli_figure_data(RunConfig(molecules_path=data, out=tmp_path / "fig"), points=8)
        assert {p.name: p.read_bytes() for p in paths} == figure_row_tables(config, points=8)

    @pytest.mark.parametrize("command", ["thermo", "figure-data"])
    def test_context_failing_mid_list(self, runner, tmp_path, command):
        # TiH's context fails (2 mu/hbar_c**2 overflows) after N2's points
        # are drawn; those are valid, so the context's error is reported.
        data = tmp_path / "mols.csv"
        data.write_text("name,mu_amu,alpha_invA\nN2,7.0,2.0\nTiH,1e299,1.0\nI2,63.0,1.0\n",
                        encoding="utf-8")
        config = RunConfig(molecules_path=data)
        bad = config.molecules()[1]
        with pytest.raises(PtboundError) as info:
            thermo_context_for(bad, config.potential(bad.alpha_invA))
        out = tmp_path / "out"
        res = runner.invoke(main, [command, "--molecules", str(data), "--out", str(out)])
        assert res.exit_code == 1
        assert json.loads(res.stderr.strip()) == {
            "error": type(info.value).__name__, "message": str(info.value),
        }
        assert not out.exists()


class TestBadInput:
    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_thermo_point_count(self, tmp_path, points):
        out = tmp_path / "th.csv"
        with pytest.raises(DomainError):
            cli_thermo(RunConfig(out=out), points=points)
        assert not out.exists()

    @pytest.mark.parametrize("beta_min", [0.0, -1.0, 2.0, math.nan])
    def test_thermo_beta_range(self, tmp_path, beta_min):
        with pytest.raises(DomainError):
            cli_thermo(RunConfig(out=tmp_path / "th.csv"), beta_min=beta_min)

    def test_log_grid_past_the_ratio_range(self):
        # hi / lo overflows; the grid steps in logs instead.
        grid = _grid(1e-300, 1e300, 64, log=True)
        assert all(map(math.isfinite, grid))
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] == pytest.approx(1e-300, rel=1e-12)
        assert grid[-1] == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("command, beta_max", [("thermo", "1e300"), ("figure-data", "1e10")])
    def test_wide_beta_range_error_record(self, runner, tmp_path, command, beta_max):
        # The grid once made a NaN beta that the record then named.
        out = tmp_path / "out"
        res = runner.invoke(
            main, [command, "--beta-min", "1e-300", "--beta-max", beta_max, "--out", str(out)]
        )
        assert res.exit_code == 1
        record = json.loads(res.stderr.strip())
        assert record["error"] == "OverflowRangeError"
        assert "nan" not in record["message"]
        assert not out.exists()

    def test_thermo_point_count_error_record(self, runner, tmp_path):
        out = tmp_path / "th.csv"
        res = runner.invoke(main, ["thermo", "--points", "1", "--out", str(out)])
        assert res.exit_code == 1
        assert json.loads(res.stderr.strip())["error"] == "DomainError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs", [{"points": 1}, {"points": 0}, {"alpha_min": 0.5, "alpha_max": 0.5}]
    )
    def test_figure_data_grid_leaves_no_directory(self, tmp_path, kwargs):
        out = tmp_path / "fig"
        with pytest.raises(DomainError):
            cli_figure_data(RunConfig(out=out), **kwargs)
        assert not out.exists()

    def test_figure_data_series_error_leaves_no_file(self, tmp_path):
        # zeta_min = 0 puts chi = 0 on the last series: it fails after the
        # first two series were computed.
        out = tmp_path / "fig"
        with pytest.raises(DomainError, match="chi > 0"):
            cli_figure_data(RunConfig(out=out), zeta_min=0.0, points=4)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["thermo", "figure-data"])
    @pytest.mark.parametrize("molecules", [False, True], ids=["bundled", "bad-second-molecule"])
    def test_nonpositive_chi_error_record(self, runner, tmp_path, command, molecules):
        # A = -2, B = 0.2 makes every zeta negative, so the first point
        # fails.  The second molecule of the file fails too, in its
        # context (2 mu/hbar_c**2 overflows), but only after the first
        # molecule's points, so theirs is the error reported.
        data = tmp_path / "mols.csv"
        data.write_text("name,mu_amu,alpha_invA\nN2,7.0,2.0\nX,1e299,1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        args = [command, "--A", "-2", "--B", "0.2", "--out", str(out)]
        res = runner.invoke(main, args + (["--molecules", str(data)] if molecules else []))
        assert res.exit_code == 1
        assert json.loads(res.stderr.strip()) == {
            "error": "DomainError", "message": "mean energy needs chi > 0",
        }
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["spectrum", "--A", "5"], "well-depth discriminant negative: -174691.22508374622"),
        (["spectrum", "--B", "-5"], "core-strength discriminant negative: -174691.22508374622"),
        (["spectrum", "--molecules", "TINY", "--hbar-c", "1e-10"],
         "(alpha hbar_c)**2 must be a normal double, got (alpha hbar_c)=1e-160"),
        (["spectrum", "--n", "0", "--n", "-1"], "level index must be an integer >= 0, got -1"),
        (["spectrum", "--A", "5", "--n", "-1"],
         "well-depth discriminant negative: -174691.22508374622"),
        (["spectrum", "--l", "-1"], "angular momentum must be an integer >= 0, got -1"),
        (["table2", "--A", "5"], "square-root argument negative: -174691.22508374622"),
        (["table2", "--B", "-5"], "square-root argument negative: -174691.22508374622"),
        (["table2", "--molecules", "TINY", "--hbar-c", "1e-10"],
         "(alpha hbar_c)**2 must be a normal double, got (alpha hbar_c)=1e-160"),
        (["table2", "--A", "5", "--hbar-c", "1e6"],
         "well parameter a=5.0 makes a square root complex for I2"),
        (["figure-data", "--A", "5"], "square-root argument negative: -26805508.975659918"),
        (["figure-data", "--B", "-5"], "square-root argument negative: -26805508.975659918"),
        (["figure-data", "--alpha-min", "1e-150", "--hbar-c", "1e-10"],
         "(alpha hbar_c)**2 must be a normal double, got (alpha hbar_c)=1e-160"),
    ])
    def test_closed_form_first_error_record(self, runner, tmp_path, args, message):
        # a complex square root, a subnormal (alpha hbar_c)**2 (alpha =
        # 1e-150 at hbar_c = 1e-10) and a bad level index: each command
        # reports the first error of its row loop
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("name,mu_amu,alpha_invA\nX,7.0,1e-150\n", encoding="utf-8")
        out = tmp_path / "out"
        args = [str(tiny) if a == "TINY" else a for a in args]
        res = runner.invoke(main, args + ["--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == json.dumps({"error": "DomainError", "message": message}) + "\n"
        assert not out.exists()

    def test_figure_data_empty_dataset(self, runner, tmp_path):
        data = tmp_path / "none.csv"
        data.write_text("name,mu_amu,alpha_invA\n", encoding="utf-8")
        out = tmp_path / "fig"
        res = runner.invoke(
            main, ["figure-data", "--molecules", str(data), "--out", str(out)]
        )
        assert res.exit_code == 1
        record = json.loads(res.stderr.strip())
        assert record["error"] == "DomainError"
        assert record["message"]
        assert not out.exists()

    def test_aim_verify_without_stable_root(self, tmp_path):
        # Depth 2 grades no n = 1 root converged.
        out = tmp_path / "av.csv"
        with pytest.raises(ConvergenceError, match="n=1"):
            cli_aim_verify(RunConfig(out=out), depth=2)
        assert not out.exists()

    def test_aim_verify_negative_n_max_error_record(self, runner, tmp_path):
        out = tmp_path / "av.csv"
        res = runner.invoke(main, ["aim-verify", "--n-max", "-1", "--out", str(out)])
        assert res.exit_code == 1
        assert json.loads(res.stderr.strip()) == {
            "error": "DomainError", "message": "n_max must be an integer >= 0, got -1",
        }
        assert not out.exists()


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


class TestGoldenOutput:
    """Every command's default output, and two dirac runs with a nonzero
    symmetry constant, pinned byte for byte: a change that moves any of
    these files must say why and recompute its digest."""

    DIGESTS = {
        "spectrum.csv": "072e15491b3547b670f3fc1205ca06826a2d2516f28a2bdf6ed6f73ee3acf120",
        "table2.csv": "16abfc75d30816eb64273c987da33b11e62542b07bc9be50d9ba62e7322cac6d",
        "table2.report.txt": "6f9a93f52879cd3f8ea85bcb1824bfe78d8f778949cf92e683851cc88f804a3c",
        "thermo.csv": "a07c0215c4447db553ab0f5d79e363c4c19b837496e476059bf693d4f4dffb2d",
        "dirac.csv": "db2e0b6a025e738cf1c9e322791562ada4cd12f4fbe170ac140422a272f7aab1",
        "dirac_spin_shift.csv": "d5db30707acaf918910e4615bbba2730ab064e4d7e2886c92e2230caf811861c",
        "dirac_pspin_shift.csv": "964751fd2943655ff6fe8c6ebf61c952f312c41065c22a213deb7eac5e543a6c",
        "fig/fig_energy_vs_alpha.csv": "f9ca1ad665768c4cd8917547bff3a9f3bffb76ce6757e794e2e2842c2e1346e6",
        "fig/fig_thermo_vs_beta.csv": "56df553e6100ef415a9198f8490d88d2a8a148eb8aa658036cf484c6122a301e",
        "fig/fig_thermo_vs_zeta.csv": "08574cf29eb3ed53528b8212bca6dbfcc603cbf399b8fe944e58d4bd29bb1b3c",
        "oracle_check.csv": "6edf3c8a9142c63baccd5b357abbe1687f0cf4e498328189e791cdb7dd513476",
        "aim_verify.csv": "da26a43e6ee67e6873ce2861b7a482c9707a3cbfbde6a6bcaed8e41c3a1c858c",
    }

    def test_default_output_digests(self, runner, tmp_path):
        for args, out in (
            (["spectrum"], "spectrum.csv"),
            (["table2"], "table2.csv"),
            (["thermo"], "thermo.csv"),
            (["dirac"], "dirac.csv"),
            (["dirac", "--symmetry", "spin", "--kappa", "-1", "--c-shift", "1.5",
              "--n", "0", "--n", "1"], "dirac_spin_shift.csv"),
            (["dirac", "--symmetry", "pspin", "--kappa", "2", "--c-shift", "0.75",
              "--n", "0"], "dirac_pspin_shift.csv"),
            (["figure-data"], "fig"),
            (["oracle-check"], "oracle_check.csv"),
            (["aim-verify"], "aim_verify.csv"),
        ):
            res = runner.invoke(main, [*args, "--out", str(tmp_path / out)])
            assert res.exit_code == 0, (args, res.output)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH on
    x86-64, whose kernels OPENBLAS_CORETYPE then picks."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def _has_avx512f() -> bool:
    """Whether the CPU lists avx512f, which OpenBLAS's SkylakeX kernel needs."""
    try:
        return "avx512f" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


# One child per kernel: argv is the source and test directories and the
# aim-verify output path.  It writes the file through the CLI, then prints
# one JSON line of the file's sha256 and each pinned kernel digest.
_KERNEL_CHILD = """
import hashlib, json, sys
sys.path[:0] = sys.argv[1:3]
from ptbound.cli import main
main(["aim-verify", "--out", sys.argv[3]], standalone_mode=False)
from test_aim import TestKernelDigest
from test_schrodinger import coefficient_digest
print(json.dumps({
    "aim_verify.csv": hashlib.sha256(open(sys.argv[3], "rb").read()).hexdigest(),
    "iterate": TestKernelDigest.iterate_digest(),
    "delta_polys": TestKernelDigest.delta_polys_digest(),
    "scan_reports": TestKernelDigest.scan_reports_digest(),
    "coefficients": coefficient_digest(),
}))
"""


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="ROADMAP direction 16: needs numpy on an OpenBLAS built with DYNAMIC_ARCH, on x86-64",
)
def test_aim_verify_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # The aim-verify file and every pinned digest of the AIM products, in
    # child processes under different OpenBLAS kernel choices: one value
    # each.  SkylakeX runs only where the CPU has AVX-512.
    src = Path(ptbound.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    coretypes = ("Haswell", "Prescott") + (("SkylakeX",) if _has_avx512f() else ())
    seen = {}
    for coretype in coretypes:
        out = tmp_path / f"aim_verify_{coretype}.csv"
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
        res = subprocess.run(
            [sys.executable, "-c", _KERNEL_CHILD, str(src), str(tests), str(out)],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        for name, digest in json.loads(res.stdout.splitlines()[-1]).items():
            seen.setdefault(name, {})[coretype] = digest
    assert len(seen) == 5
    for name, by_kernel in seen.items():
        assert len(set(by_kernel.values())) == 1, (name, by_kernel)


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


class TestOptionSurface:
    """Every command's options, pinned: flags -> (type, default, multiple,
    choices).  Option order and help text are free to change."""

    MOLECULE_OPTIONS = {
        ("--molecules",): ("path", None, False, None),
        ("--A",): ("float", -2.0, False, None),
        ("--B",): ("float", 3.0, False, None),
        ("--hbar-c",): ("float", 1973.29, False, None),
        ("--amu-ev",): ("float", 931494061.0, False, None),
    }
    SURFACE = {
        "spectrum": {
            **MOLECULE_OPTIONS,
            ("--n",): ("integer", (0, 1, 2), True, None),
            ("--l",): ("integer", (0,), True, None),
            ("--out",): ("path", Path("ptbound_spectrum.csv"), False, None),
        },
        "table2": {
            **MOLECULE_OPTIONS,
            ("--report",): ("path", None, False, None),
            ("--out",): ("path", Path("ptbound_table2.csv"), False, None),
        },
        "thermo": {
            **MOLECULE_OPTIONS,
            ("--l",): ("integer", 0, False, None),
            ("--beta-min",): ("float", 1e-4, False, None),
            ("--beta-max",): ("float", 1.0, False, None),
            ("--points",): ("integer", 64, False, None),
            ("--tau",): ("float", None, False, None),
            ("--out",): ("path", Path("ptbound_thermo.csv"), False, None),
        },
        "dirac": {
            ("--M",): ("float", 20.0, False, None),
            ("--kappa",): ("integer", 1, False, None),
            ("--n",): ("integer", (0,), True, None),
            ("--symmetry",): ("choice", "pspin", False, ("pspin", "spin")),
            ("--A",): ("float", -2.0, False, None),
            ("--B",): ("float", 3.0, False, None),
            ("--alpha",): ("float", 1.0, False, None),
            ("--c-shift",): ("float", 0.0, False, None),
            ("--hbar-c",): ("float", 1.0, False, None),
            ("--out",): ("path", Path("ptbound_dirac.csv"), False, None),
        },
        "figure-data": {
            **MOLECULE_OPTIONS,
            ("--alpha-min",): ("float", 0.05, False, None),
            ("--alpha-max",): ("float", 0.5, False, None),
            ("--beta-min",): ("float", 1e-4, False, None),
            ("--beta-max",): ("float", 1.0, False, None),
            ("--zeta-min",): ("float", 1.0, False, None),
            ("--zeta-max",): ("float", 100.0, False, None),
            ("--points",): ("integer", 64, False, None),
            ("--out",): ("path", Path("."), False, None),
        },
        "aim-verify": {
            ("--a1",): ("float", -30.0, False, None),
            ("--b1",): ("float", 2.3, False, None),
            ("--alpha",): ("float", 1.0, False, None),
            ("--n-max",): ("integer", 3, False, None),
            ("--depth",): ("integer", None, False, None),
            ("--out",): ("path", Path("ptbound_aim_verify.csv"), False, None),
        },
        "oracle-check": {
            ("--out",): ("path", Path("ptbound_oracle_check.csv"), False, None),
        },
    }

    @staticmethod
    def surface(command):
        out = {}
        for param in command.params:
            choices = getattr(param.type, "choices", None)
            out[tuple(param.opts)] = (
                param.type.name,
                param.default,
                param.multiple,
                None if choices is None else tuple(choices),
            )
        return out

    def test_every_command_option(self):
        assert set(main.commands) == set(self.SURFACE)
        for name, expected in self.SURFACE.items():
            assert self.surface(main.commands[name]) == expected, name

    def test_dirac_strengths_are_not_in_ev(self):
        params = {tuple(p.opts): p for p in main.commands["dirac"].params}
        for flag in ("--A", "--B"):
            assert "(eV)" not in (params[(flag,)].help or "")
