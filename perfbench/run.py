"""ptbound benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout with no install step: the
package is imported from ``src/``.  The ops run in this one process and
thread; only the set-up is also timed in a few fresh interpreters, one
after another, so that every timed import is cold.  The last line of
standard output is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries the run's metadata,
which is never gated.

--trace 0  set-up, then a closed loop over a fixed, seed-determined
           number of rounds of ops, sized to take about S seconds of op
           time on the reference host; prints the end-to-end metrics.
           Every timing is given at the reference host speed (see
           ``speed_kernel``); the raw timings are in the metadata.
           setup_s is the median over SETUP_REPEATS interpreters of the
           cold import of ptbound, with numpy and click already imported,
           plus the building of the first round.
--trace 1  a fixed, seed-determined list of ops run once untraced and
           twice traced (S is not used); prints the per-layer metrics,
           checks that every count repeats exactly between the two
           traced passes, and writes the spans to .perfbench/.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MODULES = ("errors", "specfun", "jets", "rootfind", "aim", "oracle", "schrodinger", "dirac",
           "thermo", "refdata", "molecules", "tableio", "cli")

SETUP_REPEATS = 9
# One cold set-up in a fresh interpreter: argv is HERE, SRC, workload,
# seed, workdir; prints the seconds it took.
SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; run.import_dependencies(); "
               "print(run.cold_set_up(sys.argv[3], int(sys.argv[4]), sys.argv[5])[2])")
# Rounds of one traced pass: fixed per workload so that counts depend
# only on the seed and the code.
TRACE_ROUNDS = {"aim_scan": 5, "shoot_scan": 5, "artifacts": 20}
# Rounds of a --trace 0 run per second of --seconds: about one second of
# op time per second on the reference host.  Fixed, so that a seed gives
# the same ops, and the same failures, however fast the host runs.
ROUNDS_PER_S = {"aim_scan": 0.9, "shoot_scan": 1.8, "artifacts": 14.0}

# The host's speed moves by up to half between one minute and the next,
# much the same for any code in the process (measured on a shared 2-vCPU
# VM, Python 3.11.7): the median time of the same Numerov level went from
# 83 ms to 131 ms between runs.  speed_kernel, a fixed stdlib and numpy
# loop that no change to ptbound can touch, is timed between ops, and
# each op's time is scaled by REFERENCE_KERNEL_S over the mean kernel
# time on either side of it.  Timings so read as on a host where the
# kernel takes REFERENCE_KERNEL_S, about its median on that VM, and their
# spread between runs of the same code falls from 0.13-0.38 of the median
# to below 0.1.  A change that slows the whole process, the kernel
# included, is partly scaled away: the raw timings are in the metadata.
REFERENCE_KERNEL_S = 2.0e-3
_KERNEL_TAPS = (0.25, 0.5, 0.25)


def import_package() -> SimpleNamespace:
    """Import ptbound from src/."""
    pkg = SimpleNamespace(**{m: importlib.import_module(f"ptbound.{m}") for m in MODULES})
    origin = Path(sys.modules["ptbound"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: ptbound was imported from {origin}, not from src/")
    return pkg


def import_dependencies() -> None:
    """Import the package's declared dependencies, numpy and click.

    Set-up is timed after this: the cold import of numpy is about two
    thirds of a full cold set-up, no change to ptbound can shorten it,
    and its time varied between runs by a third without following the
    host's speed.  A dependency ptbound adds later is still timed.
    """
    importlib.import_module("numpy")
    importlib.import_module("click")


def cold_set_up(workload: str, seed: int, workdir):
    """Import the package and build the first round of seeded inputs.

    Called once per interpreter, before anything there imports ptbound,
    so its import is cold.  Later rounds are built as the run needs
    them.  Returns the package, its stream of rounds and the seconds
    taken.
    """
    t0 = time.perf_counter()
    pkg = import_package()
    stream = workloads.WORKLOADS[workload](pkg, random.Random(seed), Path(workdir))
    first = next(stream)
    return pkg, itertools.chain([first], stream), time.perf_counter() - t0


def speed_kernel() -> float:
    """Seconds taken by one pass of a fixed loop over Python floats and
    small numpy arrays, the two kinds of work ptbound does.

    Call it only after import_dependencies.
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    for i in range(8000):
        s += math.sin(i * 1e-3) * 0.5
    x = np.linspace(0.0, 1.0, 24)
    for _ in range(240):
        x = np.convolve(x, _KERNEL_TAPS, "same") + x[::-1] * 0.5
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, workdir: Path):
    """cold_set_up here, and SETUP_REPEATS - 1 more times in fresh
    interpreters, one after another.  Each set-up is scaled like an op,
    by the kernel times just before and just after it.  Returns this
    process's package and rounds, and the median scaled and raw set-up
    times."""
    import_dependencies()
    speed_kernel()  # numpy's first calls are slow
    kernel = [speed_kernel()]
    pkg, rounds, first_s = cold_set_up(workload, seed, workdir)
    times = [first_s]
    kernel.append(speed_kernel())
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), workload, str(seed), str(workdir)],
            capture_output=True, text=True, check=True,
        )
        times.append(float(child.stdout.split()[-1]))
        kernel.append(speed_kernel())
    scaled = [t * 2.0 * REFERENCE_KERNEL_S / (a + b) for t, a, b in zip(times, kernel, kernel[1:])]
    return pkg, rounds, statistics.median(scaled), statistics.median(times)


class Tally:
    """Outcome of a sequence of ops."""

    def __init__(self):
        self.ops: list[tuple[str, float, bool]] = []  # label, seconds, whether it returned
        self.raised = 0  # exceptions and unanswered gates
        self.wrong = 0
        self.observations: list[tuple[str, dict]] = []
        self.errors: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def busy(self) -> float:
        """Seconds spent inside ops, failed ones included."""
        return sum(t for _, t, _ in self.ops)

    def run(self, op, call=None) -> None:
        """Time one op, then apply its gate outside the clock.

        Any exception from the package fails the op: PtboundError is its
        documented failure, and anything else is a leak worth counting.
        """
        t0 = time.perf_counter()
        try:
            out = call() if call else op.run()
        except Exception as exc:
            self.ops.append((op.label, time.perf_counter() - t0, False))
            self.raised += 1
            key = f"{op.label}: {type(exc).__name__}: {exc}"[:200]
            self.errors[key] = self.errors.get(key, 0) + 1
            return
        self.ops.append((op.label, time.perf_counter() - t0, True))
        verdict, obs = op.check(out)
        self.observations.append((op.label, obs))
        if verdict == workloads.PASS:
            return
        if verdict == workloads.WRONG:
            self.wrong += 1
        else:
            self.raised += 1
        key = f"{op.label}: gate verdict {verdict}"
        self.errors[key] = self.errors.get(key, 0) + 1


def end_to_end(rounds, n_rounds: int, setup_s: float, raw_setup_s: float):
    """Closed loop, one client: each op starts when the previous returns.

    The speed kernel runs between ops, off the op clock, and each op is
    scaled by the mean of the kernel times on either side of it.
    """
    tally = Tally()
    kernel = [speed_kernel()]
    for ops in itertools.islice(rounds, n_rounds):
        for op in ops:
            tally.run(op)
            kernel.append(speed_kernel())
    factors = [2.0 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    scaled = [(label, t * f, ok) for (label, t, ok), f in zip(tally.ops, factors)]
    passed = tally.attempted - tally.failed
    metrics = {"setup_s": (setup_s, "s")} | _timings(scaled, passed) | {
        "pass_frac": (passed / tally.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    returned = sum(ok for _, _, ok in scaled)
    extra = {
        "rounds": n_rounds,
        "fail_frac": tally.failed / tally.attempted,
        "latency_samples": returned,
        "samples_beyond_p75": returned - math.ceil(0.75 * returned),
        "op_seconds": sum(t for _, t, _ in scaled),
        "kernel_ms_quartiles": [1e3 * q for q in statistics.quantiles(kernel, n=4)],
        "raw": {"setup_s": raw_setup_s, "op_seconds": tally.busy}
               | {k: v for k, (v, _) in _timings(tally.ops, passed).items()},
        "latency_ms_by_op": _by_label(scaled),
    }
    return tally, metrics, extra


def _timings(ops, passed: int) -> dict:
    """ops_per_s and, when two ops returned, the latency percentiles."""
    out = {"ops_per_s": (passed / sum(t for _, t, _ in ops), "1/s")}
    # When nearly every op raised, the result still reports pass_frac
    # and the errors.
    lat_ms = [1e3 * t for _, t, ok in ops if ok]
    if len(lat_ms) > 1:
        p50, p75 = statistics.quantiles(lat_ms, n=4, method="inclusive")[1:]
        out |= {"latency_ms.p50": (p50, "ms"), "latency_ms.p75": (p75, "ms")}
    return out


def _by_label(ops) -> dict:
    """Op count and median latency (ms) of each kind of op that returned."""
    groups: dict[str, list[float]] = {}
    for label, t, ok in ops:
        if ok:
            groups.setdefault(label, []).append(1e3 * t)
    return {k: [len(v), statistics.median(v)] for k, v in groups.items()}


def traced(pkg, rounds, workload: str, seed: int):
    """One untraced and two traced passes over the same fixed ops.

    The passes are interleaved op by op, alternating which goes first,
    so that drift in the machine's speed cancels out of the overhead.
    """
    ops = [op for r in itertools.islice(rounds, TRACE_ROUNDS[workload]) for op in r]
    plain = Tally()
    passes = [(tracing.Tracer(), Tally()) for _ in range(2)]

    def run_traced(op, tracer, tally):
        tracer.install(pkg)
        try:
            tally.run(op, lambda: tracer.span("op", "bench", op.run))
        finally:
            tracer.restore()

    for i, op in enumerate(ops):
        if i % 2 == 0:
            plain.run(op)
        for tracer, tally in passes:
            run_traced(op, tracer, tally)
        if i % 2 == 1:
            plain.run(op)
    counts = [_work_counts(tracer, tally) for tracer, tally in passes]
    repeat = counts[0] == counts[1]
    tracer, tally = passes[0]
    traced_busy = statistics.mean(t.busy for _, t in passes)
    metrics = layer_metrics(tracer, tally)
    metrics["trace.overhead_frac"] = (traced_busy / plain.busy - 1.0, "frac")
    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
    tallies = [plain] + [t for _, t in passes]
    extra = {
        "trace_ops": len(ops),
        "counts_repeat": repeat,
        "counts": counts[0],
        "errors": _merge(t.errors for t in tallies),
    }
    return tallies, repeat, metrics, extra


def _work_counts(tracer, tally) -> dict:
    counts = tracer.work_counts()
    counts["ops.failed"] = tally.failed
    for label, obs in tally.observations:
        for key in ("roots", "converged", "refinements", "npts"):
            if key in obs:
                counts[f"obs.{key}"] = counts.get(f"obs.{key}", 0) + obs[key]
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, tally) -> dict:
    def obs(key, prefix=""):
        return [o[key] for label, o in tally.observations
                if key in o and label.startswith(prefix)]

    ms = 1e3
    op_s = tr.inclusive_s("op")
    aim_levels = len(obs("roots"))
    mesh_points = tr.calls("w")
    thermo_s = tr.inclusive_s("thermo_point")
    specfun_in_thermo_s = sum(s.leaves.get("specfun", (0, 0.0))[1]
                              for s in tr.spans if s.name == "thermo_point")
    return {
        "aim.scan_calls": (tr.calls("aim_eigen_scan"), "count"),
        "aim.delta_evals": (tr.calls("aim_delta"), "count"),
        "aim.delta_evals_per_level": (_ratio(tr.calls("aim_delta"), aim_levels), "count"),
        "aim.delta_us": (1e6 * _ratio(tr.inclusive_s("aim_delta"), tr.calls("aim_delta")), "us"),
        "aim.self_ms": (ms * tr.layer_self_s("aim"), "ms"),
        "aim.converged_ratio": (_ratio(sum(obs("converged")), sum(obs("roots"))), "frac"),
        "aim.max_rel_dev": (max(obs("rel_dev", "aim_scan"), default=0.0), "frac"),
        "jets.mul_calls": (tr.calls("jet_mul"), "count"),
        "jets.add_calls": (tr.calls("jet_add"), "count"),
        "jets.differentiate_calls": (tr.calls("jet_differentiate"), "count"),
        "jets.reciprocal_calls": (tr.calls("jet_reciprocal"), "count"),
        "jets.div_calls": (tr.calls("jet_div"), "count"),
        "jets.self_ms": (ms * tr.layer_self_s("jets"), "ms"),
        "jets.share": (_ratio(tr.layer_self_s("jets"), op_s), "frac"),
        "rootfind.scan_points": (tr.counts.get("rootfind.scan_points", 0), "count"),
        "rootfind.bisect_calls": (tr.calls("bisect"), "count"),
        "rootfind.self_ms": (ms * tr.layer_self_s("rootfind"), "ms"),
        "schrodinger.build_ms": (
            ms * (tr.inclusive_s("pt_aim_problem") + tr.inclusive_s("pt_radial_problem")), "ms"),
        "schrodinger.closed_form_calls": (tr.calls("closed_form"), "count"),
        "schrodinger.closed_form_ms": (ms * tr.inclusive_s("closed_form"), "ms"),
        "oracle.shoot_calls": (tr.calls("shoot_eigenvalue"), "count"),
        "oracle.refinements": (sum(obs("refinements")), "count"),
        "oracle.final_npts_mean": (_ratio(sum(obs("npts")), len(obs("npts"))), "count"),
        "oracle.mesh_points": (mesh_points, "count"),
        "oracle.ms_per_1k_mesh_points": (
            _ratio(ms * tr.inclusive_s("shoot_eigenvalue"), mesh_points / 1e3), "ms"),
        "oracle.max_rel_dev": (max(obs("rel_dev", "shoot_scan"), default=0.0), "frac"),
        "oracle.self_ms": (ms * tr.layer_self_s("oracle"), "ms"),
        "dirac.solve_calls": (tr.calls("solve_levels"), "count"),
        "dirac.residual_evals": (tr.calls("dirac_residual"), "count"),
        "dirac.self_ms": (ms * tr.layer_self_s("dirac"), "ms"),
        "thermo.point_calls": (tr.calls("thermo_point"), "count"),
        "thermo.us_per_point": (1e6 * _ratio(thermo_s, tr.calls("thermo_point")), "us"),
        "thermo.self_ms": (ms * tr.layer_self_s("thermo"), "ms"),
        "specfun.calls": (tr.calls("specfun"), "count"),
        "specfun.self_ms": (ms * tr.layer_self_s("specfun"), "ms"),
        "specfun.share_of_thermo": (_ratio(specfun_in_thermo_s, thermo_s), "frac"),
        "tableio.files": (tr.counts.get("tableio.files", 0), "count"),
        "tableio.rows": (tr.counts.get("tableio.rows", 0), "count"),
        "tableio.bytes": (tr.counts.get("tableio.bytes", 0), "bytes"),
        "tableio.render_ms": (ms * tr.inclusive_s("render_csv"), "ms"),
        "tableio.write_ms": (ms * (tr.inclusive_s("write_csv") - tr.inclusive_s("render_csv")), "ms"),
        "molecules.load_calls": (tr.calls("molecules_load"), "count"),
        "molecules.load_ms": (ms * tr.inclusive_s("molecules_load"), "ms"),
        "cli.self_ms": (ms * tr.layer_self_s("cli"), "ms"),
    }


def _merge(dicts) -> dict:
    out: dict[str, int] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def metadata(pkg, args, load_start) -> dict:
    import numpy

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        click_version = getattr(pkg.cli.click, "__version__", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": click_version,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def _git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptbound" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ptbound'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            pkg, ops, _ = cold_set_up(args.workload, args.seed, workdir)
            tallies, repeat, metrics, extra = traced(pkg, ops, args.workload, args.seed)
            correct = repeat and not any(t.wrong for t in tallies)
            attempted = sum(t.attempted for t in tallies)
            failed = sum(t.failed for t in tallies)
        else:
            pkg, ops, setup_s, raw_setup_s = set_up(args.workload, args.seed, workdir)
            n_rounds = max(1, math.ceil(args.seconds * ROUNDS_PER_S[args.workload]))
            tally, metrics, extra = end_to_end(ops, n_rounds, setup_s, raw_setup_s)
            extra["errors"] = tally.errors
            correct, attempted, failed = not tally.wrong, tally.attempted, tally.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(pkg, args, load_start)
    meta.update(extra)
    print(json.dumps({"meta": meta}))
    print(_result(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
