"""Every exported name resolves: a deletion that leaves a name behind in
an ``__all__`` list fails here, not at a user's ``from ... import *``.
Likewise every name the benchmark's tracer patches stays bound, and the
shooting oracle imports nothing from the routes it checks."""

import ast
import importlib
import importlib.util
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
    } <= wrapped
    assert {name: dict(vars(module)) for name, module in modules.items()} == before


def test_oracle_imports_only_errors_and_rootfind():
    """The shooting oracle checks the closed form and the iterative engine,
    so it may share nothing with them beyond error types and root finding."""
    tree = ast.parse(Path(ptbound.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ptbound":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "ptbound")
    assert imported == {"errors", "rootfind"}
