"""Spans and counters for the benchmark's traced run.

The package binds helpers with ``from .x import y``, which copies the
name into the importing module, so a layer function is wrapped at every
module that calls it (``ptbound.aim.jet_mul`` and ``ptbound.jets.jet_mul``
are separate sites).  ``Tracer.install`` patches the sites and
``Tracer.restore`` puts the originals back.

Entry points of a layer open a span (name, id, parent id, start, end).
Hot leaf calls -- jet arithmetic, ``aim_delta``, special functions,
Dirac residuals, the potential ``w`` -- keep only a call count and an
inclusive time, attributed to the innermost open span; one AIM level
makes tens of thousands of them.  Every wrapped call also books its self
time (inclusive time minus the time of wrapped calls nested in it) to its
layer, so ``jet_div`` does not double-count the ``jet_reciprocal`` it
calls.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    leaves: dict = field(default_factory=dict)  # leaf name -> [calls, inclusive s]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, int] = {}  # work counters read from arguments/results
        self._open: list[Span] = []
        self._child = [0.0]  # nested-call time of each open wrapped call
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, fn, name: str, layer: str, span: bool, post=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        child, open_spans, spans, clock = self._child, self._open, self.spans, time.perf_counter

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sp = Span(len(spans), open_spans[-1].sid if open_spans else None, name, clock())
                spans.append(sp)
                open_spans.append(sp)
                child.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    sp.end = clock()
                    t = sp.end - sp.start
                    nested = child.pop()
                    child[-1] += t
                    open_spans.pop()
                    stat[0] += 1
                    stat[1] += t
                    stat[2] += t - nested
                return result if post is None else post(result, args)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                child.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t = clock() - t0
                    nested = child.pop()
                    child[-1] += t
                    stat[0] += 1
                    stat[1] += t
                    stat[2] += t - nested
                    if open_spans:
                        leaf = open_spans[-1].leaves.setdefault(name, [0, 0.0])
                        leaf[0] += 1
                        leaf[1] += t
                return result if post is None else post(result, args)

        return wrapper

    def span(self, name: str, layer: str, fn):
        """Call fn() inside a span of its own (used for the op itself)."""
        return self._wrap(fn, name, layer, span=True)()

    def patch(self, module, attr: str, layer: str, *, span: bool = False, name=None, post=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name or attr, layer, span, post))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- the package's layer sites -------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every layer entry point and hot leaf the workloads reach."""
        jets, aim, sch, oracle = pkg.jets, pkg.aim, pkg.schrodinger, pkg.oracle
        dirac, thermo, cli, tableio = pkg.dirac, pkg.thermo, pkg.cli, pkg.tableio

        for site in (jets, aim, sch):
            for attr in ("jet_add", "jet_mul", "jet_differentiate", "jet_reciprocal",
                         "jet_div", "jet_scale"):
                if hasattr(site, attr):
                    self.patch(site, attr, "jets")
        self.patch(aim, "aim_delta", "aim")
        self.patch(aim, "aim_eigen_scan", "aim", span=True)
        self.patch(aim, "sign_change_brackets", "rootfind",
                   post=self._count_arg("rootfind.scan_points", 3))
        for site in (aim, dirac):
            self.patch(site, "bisect", "rootfind")

        self.patch(sch, "pt_aim_problem", "schrodinger", span=True)
        self.patch(sch, "pt_radial_problem", "schrodinger", span=True, post=self._count_w)
        for site in (cli, pkg.molecules):
            self.patch(site, "level_count", "schrodinger", name="closed_form")
        self.patch(cli, "energy_nr", "schrodinger", name="closed_form")
        self.patch(oracle, "shoot_eigenvalue", "oracle", span=True)

        self.patch(dirac, "pspin_residual", "dirac", name="dirac_residual")
        self.patch(dirac, "spin_residual", "dirac", name="dirac_residual")
        self.patch(cli, "solve_levels", "dirac", span=True)

        self.patch(cli, "thermo_point", "thermo", span=True)
        for attr in ("dawson", "erfi", "ln_erfi"):
            self.patch(thermo, attr, "specfun", name="specfun")

        self.patch(cli, "write_csv", "tableio", span=True, post=self._count_table)
        self.patch(tableio, "render_csv", "tableio")
        self.patch(cli, "builtin_molecules", "molecules", name="molecules_load")
        for attr in ("cli_spectrum", "cli_table2", "cli_thermo", "cli_dirac", "cli_figure_data"):
            self.patch(cli, attr, "cli", span=True)

    def _count_arg(self, counter: str, index: int):
        def post(result, args):
            self.add(counter, int(args[index]))
            return result
        return post

    def _count_w(self, problem, args):
        # Rebuild the problem around a counting w: one call per mesh point.
        # w is the potential that schrodinger builds, so its time is not
        # the oracle's.
        w = self._wrap(problem.w, "w", "schrodinger", span=False)
        return dataclasses.replace(problem, w=w)

    def _count_table(self, result, args):
        rows = args[2]
        self.add("tableio.files")
        self.add("tableio.rows", len(rows))
        self.add("tableio.bytes", os.path.getsize(args[0]))
        return result

    # -- summaries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if self.layer_of[n] == layer)

    def work_counts(self) -> dict[str, int]:
        """Every count the traced run made: these repeat exactly for a seed."""
        out = {f"calls.{n}": s[0] for n, s in self.stats.items()}
        out.update(self.counts)
        return out

    def dump(self) -> list:
        """Spans as plain lists: [id, parent, name, start, end, {leaf: [calls, s]}]."""
        return [[s.sid, s.parent, s.name, s.start, s.end, s.leaves] for s in self.spans]
