"""Every exported name resolves: a deletion that leaves a name behind in
an ``__all__`` list fails here, not at a user's ``from ... import *``.
Likewise every name the benchmark's tracer patches stays bound, the
shooting oracle imports nothing from the routes it checks, no module
imports a name it never uses, the package exports exactly its layers'
``__all__``, and the sets of defaulted settings, of result-record fields
and of public names are pinned."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ptbound
import ptbound.oracle

MODULES = ["ptbound"] + [
    f"ptbound.{info.name}" for info in pkgutil.iter_modules(ptbound.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_sites_bound(monkeypatch):
    """The benchmark's traced run wraps package names it looks up with
    getattr: a refactor that unbinds one fails here, not in the trace."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in MODULES[1:]}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(SimpleNamespace(**modules))
        wrapped = {
            f"{name}.{attr}"
            for name, module in modules.items()
            for attr, value in vars(module).items()
            if value is not before[name].get(attr)
        }
    finally:
        tracer.restore()
    assert {
        "thermo.dawson", "thermo.erfi", "thermo.ln_erfi", "cli.thermo_point",
        "aim.bisect", "dirac.bisect", "aim.aim_delta", "aim.sign_change_brackets",
        "schrodinger.jet_mul", "schrodinger.jet_reciprocal",
    } <= wrapped
    assert {name: dict(vars(module)) for name, module in modules.items()} == before


def test_oracle_imports_only_errors():
    """The shooting oracle checks the closed form and the iterative engine,
    so it may share nothing with them beyond error types."""
    tree = ast.parse(Path(ptbound.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ptbound":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "ptbound")
    assert imported == {"errors"}


def test_no_unused_imports():
    """Each name a module's top-level import binds is read in the module or
    listed in its __all__ (from __future__ binds nothing used)."""
    unused = []
    for path in sorted(Path(ptbound.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set(getattr(importlib.import_module(f"ptbound.{path.stem}"), "__all__", ()))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read | exported:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _numpy_lines(tree) -> list[int]:
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("np", "numpy")
    ]


def test_aim_jets_and_schrodinger_name_no_numpy():
    """The Taylor products and the scan's exact polynomials stay off
    numpy, and with it off BLAS and the platform's long double: aim,
    jets and schrodinger never import or name numpy.  This holds the
    platform independence of the aim-verify bytes where the OpenBLAS
    kernel test skips."""
    package = Path(ptbound.__file__).parent
    for name in ("aim.py", "jets.py", "schrodinger.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        imported = [
            alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not any(str(m).split(".")[0] == "numpy" for m in imported), name
        assert _numpy_lines(tree) == [], name


SETTABLE_MODULES = (
    "schrodinger", "thermo", "molecules", "dirac", "aim", "oracle", "rootfind", "tableio",
    "errors", "specfun", "jets",
)


def settable_surface():
    """Public name -> the names of its parameters (or dataclass fields)
    that carry a default: every setting a caller may leave alone."""
    surface = {}
    for mod in SETTABLE_MODULES:
        module = importlib.import_module(f"ptbound.{mod}")
        for name in module.__all__:
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                names = tuple(
                    f.name for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                )
            elif (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and not inspect.isfunction(obj.__init__)
            ):
                continue  # a builtin exception's __init__ has no signature and no settings
            elif callable(obj):
                params = inspect.signature(obj).parameters.values()
                names = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
            else:
                continue
            if names:
                surface[f"{mod}.{name}"] = names
    return surface


def test_settable_surface():
    """Adding or dropping a setting is a deliberate one-line change here."""
    assert settable_surface() == {
        "schrodinger.NRContext": ("hbar_c",),
        "schrodinger.energy_nr": ("branch",),
        "schrodinger.pt_aim_problem": ("branch", "z0"),
        "schrodinger.pt_radial_problem": ("centrifugal", "k1_estimate"),
        "schrodinger.spectral_params": ("branch",),
        "schrodinger.wavefunction_nr": ("branch", "argument"),
        "molecules.nr_context_for": ("hbar_c", "amu_to_ev"),
        "molecules.reference_energy": ("a", "amu_to_ev"),
        "molecules.thermo_context_for": ("l", "tau", "hbar_c", "amu_to_ev"),
        "dirac.DiracContext": ("c_shift", "hbar_c"),
        "dirac.solve_levels": ("bracket", "tol"),
        "dirac.special_case_residual": ("alpha", "a", "b", "eta", "hbar_c"),
        "aim.AimProblem": ("e_shift", "e_scale"),
        "oracle.RadialProblem": ("npts", "origin_w0", "origin_w2"),
        "oracle.finite_difference": ("order", "h"),
        "oracle.harmonic_problem": ("omega", "npts"),
        "oracle.integrate_adaptive": ("tol", "max_depth"),
        "oracle.shoot_eigenvalue": ("tol", "max_refinements"),
        "tableio.ColumnTable": ("labels",),
        "errors.ConvergenceError": ("estimate",),
    }


RESULT_RECORDS = (
    "AimRoot", "AimScanReport", "ShootResult", "RelativisticRoot", "SymmetryParams",
    "LevelCount", "SpectralParams", "ThermoPoint",
)


def field_names(record):
    if dataclasses.is_dataclass(record):
        return tuple(f.name for f in dataclasses.fields(record))
    return record._fields


def test_result_fields():
    """Adding or dropping a field of a result record is a deliberate
    one-line change here."""
    assert {name: field_names(getattr(ptbound, name)) for name in RESULT_RECORDS} == {
        "AimRoot": ("value", "residual", "stability_gap", "converged"),
        "AimScanReport": ("roots", "shallow_roots", "delta_evals"),
        "ShootResult": ("value", "npts", "refinements", "passes", "gaps", "points"),
        "RelativisticRoot": ("E", "residual", "flags"),
        "SymmetryParams": ("a3", "b3", "k3", "gamma2", "beta2"),
        "LevelCount": ("zeta", "n_max"),
        "SpectralParams": ("alpha", "a1", "b1", "gamma", "beta"),
        "ThermoPoint": ("beta", "chi", "Z", "U", "C", "F", "S"),
    }


LAYERS = ("aim", "dirac", "errors", "molecules", "oracle", "schrodinger", "specfun", "thermo")


def star_imported_layers():
    """The modules ``ptbound/__init__.py`` imports with ``*``, in order."""
    tree = ast.parse(Path(ptbound.__file__).read_text(encoding="utf-8"))
    return tuple(
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]
    )


def test_star_imported_layers_define_all():
    """The package star-imports the layers, and each declares ``__all__``:
    a layer without one would hand the package its np, math and require_*."""
    layers = star_imported_layers()
    assert layers == LAYERS
    modules = [importlib.import_module(f"ptbound.{name}") for name in layers]
    assert [m.__name__ for m in modules if "__all__" not in vars(m)] == []


def public_surface():
    """Module name -> its ``__all__``, sorted (None where it has none)."""
    surface = {}
    for name in MODULES[1:]:
        names = getattr(importlib.import_module(name), "__all__", None)
        surface[name] = None if names is None else tuple(sorted(names))
    return surface


def test_public_surface():
    """Adding or dropping a public name is a deliberate one-line change
    here; the package exports each layer's names, each once."""
    layers = [importlib.import_module(f"ptbound.{name}").__all__ for name in LAYERS]
    assert ptbound.__all__ == [name for names in layers for name in names]
    assert len(set(ptbound.__all__)) == len(ptbound.__all__)
    assert public_surface() == {
        "ptbound.aim": (
            "AimProblem", "AimRoot", "AimScanReport", "aim_delta", "aim_eigen_scan", "aim_iterate",
        ),
        "ptbound.cli": (
            "RunConfig", "cli_aim_verify", "cli_dirac", "cli_figure_data", "cli_oracle_check",
            "cli_spectrum", "cli_table2", "cli_thermo", "main",
        ),
        "ptbound.dirac": (
            "DiracContext", "RelativisticRoot", "SymmetryParams", "nr_limit_energy",
            "plain_params", "pspin_residual", "reflectionless_nr_energy", "solve_levels",
            "special_case_residual", "spin_residual", "spin_residual_shifted",
            "spin_residual_via_map", "spinor_wavefunction", "symmetric_nr_energy", "tilde_params",
        ),
        "ptbound.errors": (
            "BracketError", "ConvergenceError", "DomainError", "NodeCountError",
            "OverflowRangeError", "PtboundError", "TableFormatError",
        ),
        "ptbound.jets": ("jet_mul", "jet_reciprocal"),
        "ptbound.molecules": (
            "AMU_TO_EV", "HBARC_CALIBRATED", "MoleculeParams", "builtin_molecules",
            "load_molecules", "nr_context_for", "reference_energy", "save_molecules",
            "thermo_context_for",
        ),
        "ptbound.oracle": (
            "RadialProblem", "ShootResult", "finite_difference", "harmonic_problem",
            "integrate_adaptive", "shoot_eigenvalue",
        ),
        "ptbound.refdata": (
            "MOLECULE_CONSTANTS", "REFERENCE_ENERGIES", "REFERENCE_ENERGY_STRINGS",
            "REFERENCE_GRID", "REFERENCE_WELL_A", "REFERENCE_WELL_B",
        ),
        "ptbound.rootfind": ("bisect", "sign_change_brackets", "uniform_grid"),
        "ptbound.schrodinger": (
            "D0", "HBARC_EV_ANG", "LevelCount", "NRContext", "PTPotential",
            "SpectralParams", "centrifugal_approx_residual", "energy_from_k1", "energy_nr",
            "k1_from_energy", "level_count", "potential_value", "pt_aim_problem",
            "pt_radial_problem", "spectral_params", "wavefunction_nr",
        ),
        "ptbound.specfun": (
            "ERFI_MAX_ARG", "dawson", "erfi", "hyp2f1_terminating", "ln_erfi", "pochhammer",
        ),
        "ptbound.tableio": ("ColumnTable", "format_cell", "render_csv", "write_csv", "write_text"),
        "ptbound.thermo": (
            "ThermoContext", "ThermoPoint", "chi", "entropy", "free_energy",
            "log_partition_closed", "mean_energy", "partition_closed", "partition_sum",
            "specific_heat", "thermo_point", "thermo_table",
        ),
    }
