"""dicube benchmark: end-to-end runs of the dicube CLI, and a traced run
that reports per-module (per-layer) metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the harness runs the dicube sources of the checkout it
lives in (``src/``) and writes only to a temporary directory inside that
checkout.  Every child is a fresh ``python -m dicube.cli`` process, because
the order caches (``lru_cache``) start cold for every CLI invocation.

``--trace 0`` runs untraced children back to back for about ``--seconds``
seconds and prints the end-to-end metrics (medians over the children), with
times in reference seconds (see REFERENCE_RATE).
``--trace 1`` runs pairs of one untraced and one traced child
(``perfbench/tracer.py``) and prints the per-layer metrics (medians over the
traced children), the tracing overhead and the share of the child's CPU
time the spans cover.  Every child's output passes the correctness gate or the run fails.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# the suite's registry ids, in registry order (what `--suite all` runs)
CHECK_IDS = (
    "chain-order-iso",
    "orbit-iso",
    "non-self-linked",
    "face-swap",
    "free-action",
    "union-sigma",
    "F-G-triangles",
    "nerve-quotient",
    "bar-F-iso",
    "cover-complete",
    "cover-proper",
    "homology-cross-model",
    "euler-zero",
)

# exact homology of the break-category nerve: (betti, torsion) per degree
EXPECTED_HOMOLOGY = {
    4: [(1, []), (1, []), (0, [2]), (0, [])],
    5: [(1, []), (1, []), (0, [2]), (0, []), (0, [])],
    6: [(1, []), (1, []), (0, [2]), (0, [2]), (0, [3]), (0, [])],
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "suite": dicube verify; "break": dicube homology --model en
    n: int
    why: str
    jobs: int = 1
    # spans that must record calls in a traced run (the tracing self-check)
    active: tuple[str, ...] = ()
    deadline_s: float = 170.0  # a run must end within 180 s


TIMED_SPANS = tuple(name for _module, _attr, name in SPANS)
BREAK_SPANS = (
    "categories.break_build",
    "categories.nerve",
    "homology.d2_check",
    "homology.elim",
    "homology.dense",
    "homology.homology",
)
SUITE_SPANS = TIMED_SPANS + tuple(f"suite.check.{c}" for c in CHECK_IDS)

WORKLOADS = {
    "suite-n4": Workload(
        "suite", 4, "main verification workload: whole suite at n=4, one job; "
        "orders and categories dominate", active=SUITE_SPANS,
    ),
    # Outside BENCHMARK.json: with two suite workloads the benchmark's runs
    # do not fit its total time limit.  Unpinned, so unscaled seconds.
    "suite-n4-jobs2": Workload(
        "suite", 4, "same suite with --jobs 2: the only workload where suite "
        "concurrency and interpreter-lock contention show", jobs=2, active=SUITE_SPANS,
    ),
    "break-n5": Workload(
        "break", 5, "exact homology of the break-category nerve at n=5: nerve, "
        "d2 check and elimination; bypasses orders and poset_category",
        active=BREAK_SPANS,
    ),
    # Outside BENCHMARK.json: one child takes about 80 s and 1.24 GB, more
    # than a benchmark run may spend.  Run by hand for the frontier numbers.
    "break-n6": Workload(
        "break", 6, "exact-homology frontier at n=6 (588,576 generators); "
        "run by hand", active=BREAK_SPANS, deadline_s=900.0,
    ),
    # Tiny inputs for the benchmark's own tests.
    "smoke-suite": Workload(
        "suite", 2, "suite at n=2 with two jobs, in about a second", jobs=2,
        active=tuple(s for s in SUITE_SPANS if s != "homology.dense"),
    ),
    "smoke-break": Workload(
        "break", 4, "break-category homology at n=4, in under a second", active=BREAK_SPANS,
    ),
}

END_TO_END = {
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"suite.check_s.{c}": "s" for c in CHECK_IDS},
    "suite.self_s": "s",
    "suite.parallel_efficiency": "ratio",
    "orders.enumerate_s": "s",
    "orders.act_calls": "count",
    "orders.act_s": "s",
    "orders.init_calls": "count",
    "orders.init_s": "s",
    "orders.union_bar_calls": "count",
    "orders.union_bar_s": "s",
    "orders.union_bar_defined_ratio": "ratio",
    "complexes.ordered_cover_s": "s",
    "precubical.non_self_linked_s": "s",
    "precubical.quotient_s": "s",
    "chains.enumerate_s": "s",
    "chains.count": "count",
    "posets.init_s": "s",
    "posets.chains_s": "s",
    "categories.poset_category_s": "s",
    "categories.poset_category_hit_ratio": "ratio",
    "categories.group_action_validate_s": "s",
    "categories.quotient_s": "s",
    "categories.break_build_s": "s",
    "categories.nerve_s": "s",
    "categories.nerve_generators": "count",
    "categories.nerve_nnz": "count",
    "homology.d2_check_s": "s",
    "homology.d2_check_calls": "count",
    "homology.elim_s": "s",
    "homology.unit_pivots": "count",
    "homology.dense_rows": "count",
    "homology.dense_cols": "count",
    "homology.dense_s": "s",
    "homology.homology_s": "s",
    "cover.verify_s": "s",
    "cover.intersections": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

SETUP_IMPORTS = 9
IMPORT_PROBE = (
    "import time; t = time.process_time(); import dicube.cli; "
    "print(time.process_time() - t); print(dicube.cli.__file__)"
)

# Times in BENCHMARK.json are reference seconds: CPU seconds scaled to a CPU
# that runs _reference_unit() REFERENCE_RATE times per CPU-second.  On a
# shared host the speed of one CPU drifts by a third within minutes; the
# harness pins itself and each child to one CPU and runs the reference loop
# while the child runs, so both are measured at the same speed.
REFERENCE_RATE = 1000.0


def _reference_unit() -> None:
    """About a millisecond of interpreter work like dicube's: tuple keys,
    dict updates and integer bit operations."""
    table = {}
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + (i ^ (i >> 3))


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong interpreter setup)."""


@dataclass
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rate: float | None  # reference units per CPU-second while the child ran
    stderr: str

    def reference_seconds(self, cpu_s: float) -> float:
        """CPU seconds of this child scaled to reference seconds; unscaled
        when the child ran without the reference loop."""
        return cpu_s if self.rate is None else cpu_s * self.rate / REFERENCE_RATE


@dataclass
class Child:
    usage: Usage
    problems: list[str]
    stats: dict | None = None


def child_env() -> dict:
    # children load cached bytecode, as an installed CLI does, whatever the
    # caller's environment says
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str], workdir: Path, deadline: float, calibrate: bool) -> Usage:
    """Runs one child to completion, its output in workdir/stdout.txt.

    CPU and RSS come from wait4 on this child alone: getrusage(RUSAGE_CHILDREN)
    keeps the maximum RSS over every child reaped so far.  With `calibrate`
    this process runs the reference loop on the child's CPU, one unit per
    millisecond, until the child exits; that slows the child's wall time,
    not its CPU time."""
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start, cpu_start, units, killed = time.perf_counter(), _self_cpu(), 0, False
        proc = subprocess.Popen(
            [sys.executable, *argv], env=child_env(), cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.monotonic() > deadline:
                    proc.kill()
                    killed = True
                if calibrate:
                    _reference_unit()
                    units += 1
                # sleeping as long as a reference unit takes leaves the
                # child most of its CPU while still sampling its speed
                time.sleep(0.001)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        rate = units / (_self_cpu() - cpu_start) if calibrate else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, rate,
        (workdir / "stderr.txt").read_text(errors="replace")[-2000:],
    )


def measure_setup(workdir: Path, deadline: float, calibrate: bool) -> list[float]:
    """Fresh-interpreter `import dicube.cli` CPU times in reference seconds;
    the first import, which writes the bytecode caches, is not counted."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        usage = run_child(["-c", IMPORT_PROBE], workdir, deadline, calibrate)
        if usage.code != 0:
            raise BenchError(f"import dicube.cli failed:\n{usage.stderr}")
        seconds, module_file = (workdir / "stdout.txt").read_text().split("\n")[:2]
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise BenchError(f"dicube was imported from {module_file}, not from {SRC}")
        if i:
            times.append(usage.reference_seconds(float(seconds)))
    return times


def load_reference(n: int) -> dict[str, dict]:
    reports = json.loads((REFERENCE_DIR / f"suite-n{n}.json").read_text())
    return {r["id"]: r for r in reports}


def check_suite(out_path: Path, ids: list[str], reference: dict[str, dict]) -> list[str]:
    reports = json.loads(out_path.read_text())
    problems = []
    got = [r.get("id") for r in reports]
    if got != ids:
        problems.append(f"report ids {got} differ from the selection {ids}")
    for report in reports:
        report = {k: v for k, v in report.items() if k != "wall_time"}
        check_id = report.get("id")
        if report.get("status") != "pass":
            problems.append(f"{check_id}: status {report.get('status')!r}: {report.get('details')!r}")
        elif report != reference.get(check_id):
            problems.append(f"{check_id}: report differs from the reference snapshot: {report!r}")
    return problems


def check_break(out_path: Path, n: int) -> list[str]:
    groups = json.loads(out_path.read_text())
    got = [(g["betti"], g["torsion"]) for g in groups]
    dims = [g["dim"] for g in groups]
    if got != EXPECTED_HOMOLOGY[n] or dims != list(range(len(groups))):
        return [f"homology {groups} differs from the expected {EXPECTED_HOMOLOGY[n]}"]
    return []


class Runner:
    """Builds each child's inputs from the seed, runs it and checks it."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float, calibrate: bool):
        self.workload = workload
        self.calibrate = calibrate
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.deadline = deadline
        self.reference = load_reference(workload.n) if workload.kind == "suite" else None

    def _cli_args(self, out_path: Path) -> tuple[list[str], list[str]]:
        w = self.workload
        if w.kind == "break":
            return ["homology", "--model", "en", "--n", str(w.n), "--out", str(out_path)], []
        ids = list(CHECK_IDS)
        if self.seed == 0:
            suite = "all"
        else:
            # the order decides which check fills the shared order caches and
            # how the checks split between --jobs workers
            self.rng.shuffle(ids)
            suite = ",".join(ids)
        args = ["verify", "--suite", suite, "--n-max", str(w.n), "--jobs", str(w.jobs)]
        return args + ["--out", str(out_path)], ids

    def run(self, traced: bool) -> Child:
        out_path = self.workdir / "out.json"
        stats_path = self.workdir / "stats.json"
        for path in (out_path, stats_path):
            path.unlink(missing_ok=True)
        cli_args, ids = self._cli_args(out_path)
        if traced:
            argv = [str(HERE / "tracer.py"), str(stats_path), *cli_args]
        else:
            argv = ["-m", "dicube.cli", *cli_args]
        usage = run_child(argv, self.workdir, self.deadline, self.calibrate)
        problems = []
        if usage.code != 0:
            problems.append(f"exit code {usage.code}: {usage.stderr.strip()}")
        else:
            try:
                if self.workload.kind == "suite":
                    problems += check_suite(out_path, ids, self.reference)
                else:
                    problems += check_break(out_path, self.workload.n)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        stats = None
        if traced and not problems:
            stats = json.loads(stats_path.read_text())
            problems += self._trace_self_check(stats)
        return Child(usage, problems, stats)

    def _trace_self_check(self, stats: dict) -> list[str]:
        spans = stats["spans"]
        return [
            f"traced run recorded no calls to span {name}"
            for name in self.workload.active
            if spans.get(name, {}).get("calls", 0) == 0
        ]


def layer_metrics(child: Child, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced child.  Span times are thread CPU
    times, in reference seconds like the end-to-end times, and self times
    except suite.check_s.<id>, which is the whole check."""
    spans, counters, usage = child.stats["spans"], child.stats["counters"], child.usage
    scale = usage.reference_seconds(1.0)
    # the child's own running time: alone on its CPUs its wall time, while
    # sharing one CPU with the reference loop its CPU time
    busy = usage.wall_s if usage.rate is None else usage.cpu_s

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    checks = [spans.get(f"suite.check.{c}", {}) for c in CHECK_IDS]
    out = {f"suite.check_s.{c}": s.get("total_s", 0.0) * scale for c, s in zip(CHECK_IDS, checks)}
    out["suite.self_s"] = sum(s.get("self_s", 0.0) for s in checks) * scale
    out["suite.parallel_efficiency"] = sum(s.get("total_s", 0.0) for s in checks) / (jobs * busy)
    for name in TIMED_SPANS:
        out[f"{name}_s"] = spans.get(name, {}).get("self_s", 0.0) * scale
    for name in ("orders.act", "orders.init", "orders.union_bar", "homology.d2_check"):
        out[f"{name}_calls"] = calls(name)
    out["orders.union_bar_defined_ratio"] = ratio(
        counters.get("orders.union_bar_defined", 0), calls("orders.union_bar")
    )
    out["categories.poset_category_hit_ratio"] = ratio(
        counters.get("categories.poset_category_pairs", 0),
        counters.get("categories.poset_category_scanned", 0),
    )
    for name in ("chains.count", "categories.nerve_generators", "categories.nerve_nnz", "cover.intersections"):
        out[name] = counters.get(name, 0)
    out["homology.unit_pivots"] = counters.get("homology.elim_rank", 0) - counters.get(
        "homology.dense_rank", 0
    )
    _area, out["homology.dense_rows"], out["homology.dense_cols"] = counters.get(
        "homology.dense_block", [0, 0, 0]
    )
    out["trace.coverage"] = sum(s["self_s"] for s in spans.values()) / usage.cpu_s
    return out


def _children_loop(seconds: float, deadline: float, step) -> None:
    """Calls step() until the next call would end after `seconds`, judged
    by the median step so far; always at least once."""
    start = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        step()
        durations.append(time.monotonic() - t)
        now = time.monotonic()
        typical = statistics.median(durations)
        if now - start + typical > seconds or now + typical > deadline:
            return


def _spread(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}; min {min(values):.4f}, max {max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + workload.deadline_s

    if not (SRC / "dicube" / "cli.py").is_file():
        print(f"error: no dicube sources at {SRC / 'dicube'}", file=sys.stderr)
        return 2
    provenance = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
    print("provenance " + json.dumps(provenance), flush=True)

    # The reference loop needs the child on its CPU (see REFERENCE_RATE); a
    # workload with several jobs runs unpinned and reports unscaled seconds.
    calibrate = workload.jobs == 1
    if calibrate:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    untraced: list[Child] = []
    traced: list[Child] = []
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            setup = measure_setup(Path(tmp), deadline, calibrate)
            runner = Runner(workload, args.seed, Path(tmp), deadline, calibrate)
            if args.trace:
                def step():
                    untraced.append(runner.run(traced=False))
                    traced.append(runner.run(traced=True))
            else:
                def step():
                    untraced.append(runner.run(traced=False))
            _children_loop(args.seconds, deadline, step)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    children = untraced + traced
    failed = [c for c in children if c.problems]
    for child in failed:
        for problem in child.problems:
            print(f"FAIL: {problem}")
    correct = not failed

    def cpu_ref(group):
        return [c.usage.reference_seconds(c.usage.cpu_s) for c in group]

    if args.trace:
        layers = [layer_metrics(c, workload.jobs) for c in traced if c.stats is not None]
        units = PER_LAYER
        samples = {name: [m[name] for m in layers] or [0.0] for name in PER_LAYER if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [statistics.median(cpu_ref(traced)) - statistics.median(cpu_ref(untraced))]
    else:
        units = END_TO_END
        samples = {
            "cpu_ref_s": cpu_ref(untraced),
            "peak_rss_mb": [c.usage.peak_rss_mb for c in untraced],
            "setup_s": setup,
        }
    # a count reports one of its samples, so it stays a whole number
    values = {
        name: (statistics.median_low if unit == "count" else statistics.median)(samples[name])
        for name, unit in units.items()
    }
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced children")
    for name, unit in units.items():
        shown = values[name] if unit == "count" else f"{values[name]:.6g}"
        print(f"{name:<40} {shown} {unit} ({_spread(samples[name])})")
    cpus = [c.usage.cpu_s for c in untraced]
    print(f"{'cpu_s':<40} {statistics.median(cpus):.6g} s (untraced, not scaled, {_spread(cpus)})")
    if calibrate:
        rates = [c.usage.rate for c in untraced]
        print(f"{'reference rate':<40} {statistics.median(rates):.6g} 1/s ({_spread(rates)})")
    else:
        walls = [c.usage.wall_s for c in untraced]
        print(f"{'wall_s':<40} {statistics.median(walls):.6g} s (untraced, {_spread(walls)})")
        print("no reference loop with several jobs: times are not scaled")
    print(f"{'fail_share':<40} {len(failed) / len(children):.4f} share ({len(failed)} of {len(children)})")
    result = {
        "correct": correct,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
