"""Tests for molecule parameter ingestion, unit conversion, and the
bundled reference energies.

The bundled energy table follows its own printed convention (documented
on reference_energy); the calibration tests here pin that convention to
every bundled entry and record how far it sits from the full closed-form
spectrum, so neither is mistaken for the other.
"""

import math

import pytest

from ptbound.errors import TableFormatError
from ptbound.molecules import (
    AMU_TO_EV,
    HBARC_CALIBRATED,
    MoleculeParams,
    builtin_molecules,
    load_molecules,
    nr_context_for,
    reference_energy,
    save_molecules,
    thermo_context_for,
)
from ptbound.refdata import (
    REFERENCE_ENERGIES,
    REFERENCE_ENERGY_STRINGS,
    REFERENCE_GRID,
    REFERENCE_WELL_A,
    REFERENCE_WELL_B,
)
from ptbound.schrodinger import HBARC_EV_ANG, PTPotential, energy_nr, level_count


def by_name():
    return {m.name: m for m in builtin_molecules()}


class TestBuiltinDataset:
    def test_twelve_molecules_in_tabulated_order(self):
        names = [m.name for m in builtin_molecules()]
        assert names == [
            "I2", "CO", "TiH", "TiC", "N2", "NO",
            "CrH", "NiC", "O2", "LiH", "VH", "ScN",
        ]

    @pytest.mark.parametrize(
        "name,mu,alpha",
        [
            ("I2", 63.452235020, 1.86430),
            ("LiH", 0.880122100, 1.12800),
            ("CO", 6.860586, 2.2994),
            ("TiH", 0.987371, 1.32408),
        ],
    )
    def test_tabulated_values(self, name, mu, alpha):
        mol = by_name()[name]
        assert mol.mu_amu == mu
        assert mol.alpha_invA == alpha


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mols.csv"
        save_molecules(path, builtin_molecules())
        assert load_molecules(path) == builtin_molecules()

    def test_save_is_atomic_and_lf(self, tmp_path):
        path = tmp_path / "mols.csv"
        save_molecules(path, builtin_molecules()[:2])
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"name,mu_amu,alpha_invA\n")
        assert [p.name for p in tmp_path.iterdir()] == ["mols.csv"]

    def test_save_rejects_name_with_comma(self, tmp_path):
        # Such a file would load as four fields per row.
        with pytest.raises(TableFormatError):
            save_molecules(tmp_path / "m.csv", [MoleculeParams("a,b", 1.0, 1.0)])
        assert list(tmp_path.iterdir()) == []

    def test_save_unencodable_name_leaves_no_file(self, tmp_path):
        with pytest.raises(TableFormatError):
            save_molecules(tmp_path / "m.csv", [MoleculeParams("X\udc80", 1.0, 1.0)])
        assert list(tmp_path.iterdir()) == []

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert load_molecules(empty) == []
        header = tmp_path / "header.csv"
        header.write_text("name,mu_amu,alpha_invA\n", encoding="utf-8")
        assert load_molecules(header) == []

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("molecule,mass,alpha\nCO,6.8,2.3\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=":1:"):
            load_molecules(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,mu_amu,alpha_invA\nCO,6.8\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=":2:"):
            load_molecules(path)

    def test_unparseable_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,mu_amu,alpha_invA\nCO,heavy,2.3\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=":2:"):
            load_molecules(path)

    def test_nonpositive_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,mu_amu,alpha_invA\nCO,-6.8,2.3\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match="positive"):
            load_molecules(path)

    @pytest.mark.parametrize("row", ["CO,inf,2.3", "CO,6.8,inf"])
    def test_infinite_value(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"name,mu_amu,alpha_invA\nNO,7.5,2.4\n{row}\n", encoding="utf-8")
        with pytest.raises(TableFormatError, match=":3:.*finite"):
            load_molecules(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "name,mu_amu,alpha_invA\nCO,6.8,2.3\nCO,6.9,2.4\n", encoding="utf-8"
        )
        with pytest.raises(TableFormatError, match=":3:.*duplicate"):
            load_molecules(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "name,mu_amu,alpha_invA\n\nCO,6.8,2.3\n\n", encoding="utf-8"
        )
        assert [m.name for m in load_molecules(path)] == ["CO"]


class TestContexts:
    def test_nr_context_units(self):
        co = by_name()["CO"]
        ctx = nr_context_for(co)
        assert ctx.mu == co.mu_amu * AMU_TO_EV
        assert ctx.hbar_c == HBARC_EV_ANG
        custom = nr_context_for(co, hbar_c=1973.0, amu_to_ev=9.3e8)
        assert custom.hbar_c == 1973.0
        assert custom.mu == co.mu_amu * 9.3e8

    def test_thermo_context_for_i2(self):
        i2 = by_name()["I2"]
        pot = PTPotential(A=REFERENCE_WELL_A, B=REFERENCE_WELL_B, alpha=i2.alpha_invA)
        tctx = thermo_context_for(i2, pot)
        assert tctx.zeta == pytest.approx(14.35231136923251, rel=1e-12)
        tau = math.sqrt(0.5 * i2.mu_amu * AMU_TO_EV) / (i2.alpha_invA * HBARC_EV_ANG)
        assert tctx.tau == pytest.approx(tau, rel=1e-14)
        _, n_max = level_count(pot, nr_context_for(i2), 0)
        assert n_max == 14

    def test_thermo_context_reduced_units_and_rotation(self):
        i2 = by_name()["I2"]
        pot = PTPotential(A=REFERENCE_WELL_A, B=REFERENCE_WELL_B, alpha=i2.alpha_invA)
        tctx = thermo_context_for(i2, pot, l=1, tau=1.0)
        assert tctx.tau == 1.0
        # the centrifugal term enters the count formula additively
        zeta_l1, _ = level_count(pot, nr_context_for(i2), 1)
        assert tctx.zeta == pytest.approx(zeta_l1, rel=1e-14)
        assert tctx.zeta > 14.35231136923251


class TestReferenceEnergies:
    def test_i2_ground_entry(self):
        i2 = by_name()["I2"]
        assert reference_energy(i2, 0, 0) == pytest.approx(
            float("-2.01518700249"), rel=1e-8
        )

    def test_all_bundled_entries(self):
        # Calibrated convention reproduces every bundled value; the worst
        # relative deviation over all 108 entries is 3.1e-8.
        mols = by_name()
        worst = 0.0
        for (name, n, l), ref in REFERENCE_ENERGIES.items():
            got = reference_energy(mols[name], n, l)
            worst = max(worst, abs(got - ref) / abs(ref))
        assert worst < 1e-7

    def test_grid_shape(self):
        assert len(REFERENCE_ENERGIES) == 12 * len(REFERENCE_GRID)
        assert set(REFERENCE_GRID) == {
            (n, l) for n in (0, 5, 7) for l in (0, 5, 10)
        }

    def test_printed_degeneracy_n5_l10(self):
        # The bracket (n + 1/2 + s/4 - (2l+1)/4) coincides for (0,0) and
        # (5,10); the bundled table indeed prints identical strings.
        for name in by_name():
            assert (
                REFERENCE_ENERGY_STRINGS[(name, 5, 10)]
                == REFERENCE_ENERGY_STRINGS[(name, 0, 0)]
            )

    def test_calibrated_hbar_c_differs_from_standard(self):
        assert HBARC_CALIBRATED == 1973.0
        assert HBARC_CALIBRATED != HBARC_EV_ANG

    def test_full_closed_form_is_a_different_convention(self):
        # With the standard constants and the full spectrum formula the
        # I2 ground level is -0.0943 eV, a factor ~21 from the bundled
        # -2.015 eV: the bundled table is a distinct printed convention,
        # not a disagreement between our spectrum routes.
        i2 = by_name()["I2"]
        pot = PTPotential(A=-2.0, B=3.0, alpha=i2.alpha_invA)
        energy = energy_nr(pot, nr_context_for(i2), 0, 0, branch="paper")
        assert energy == pytest.approx(-0.09433223100371006, rel=1e-12)
        assert abs(energy) < 0.1 * abs(reference_energy(i2, 0, 0))
