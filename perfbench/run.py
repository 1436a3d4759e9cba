"""Benchmark of the nhtrap CLI: fixed workloads, timed end to end and by layer.

Run from the root of a checkout that holds ``src/nhtrap``::

    python3 perfbench/run.py --workload cap_fine --seed 1 --seconds 20 --trace 0

Each CLI command runs as its own process (``child.py``), one at a time,
with BLAS/OpenMP threads pinned to 1 and ``workers = 1``.  Times are scaled
to a reference host speed by the gauge of ``gauge.py``.  Untraced passes
repeat the workload's command list until the next pass would end after
``--seconds``; at least one pass always runs.  ``--trace 1`` adds one
traced pass and reports per-layer metrics instead of end-to-end ones.
The last line of standard output is the JSON result; the lines above it
name every metric with its unit and record the run's environment.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import check_run, check_runtime_spans, compare_outputs, read_json
from gauge import REFERENCE_S, HostGauge
from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench_work"
COMMAND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0
SETUP_SAMPLES_MIN = 6
# the cheapest command; its handler is skipped by set-up probes
PROBE_COMMAND = Command("trap-find", (("beta_list", "0"),))
# CPU time beyond wall time that still counts as one busy core
CPU_SLACK = 1.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_TIMES = {
    "capspec.eig_s": "capspec.eig",
    "capspec.resolvent_s": "capspec.resolvent",
    "capspec.build_s": "capspec.build",
    "capspec.assemble_s": "capspec.assemble",
    "capspec.spectral_gap_s": "capspec.spectral_gap",
    "trapping.certify_s": "trapping.certify",
    "trapping.ivp_s": "trapping.ivp",
    "trapping.linearization_s": "trapping.linearization",
    "trapping.beta_range_s": "trapping.beta_range",
    "flow.integrate_s": "flow.integrate",
    "escape.pair_s": "escape.pair",
    "escape.spec_s": "escape.spec",
    "escape.verify_s": "escape.verify",
    "escape.commutator_s": "escape.commutator",
    "escape.order_s": "escape.order",
    "cli.handler_s": "cli.handler",
    "artifacts.write_s": "artifacts.write",
}
_SPAN_CALLS = {
    "capspec.resolvent_calls": "capspec.resolvent",
    "capspec.build_calls": "capspec.build",
    "capspec.assemble_calls": "capspec.assemble",
    "trapping.certify_calls": "trapping.certify",
    "trapping.ivp_calls": "trapping.ivp",
    "flow.integrate_calls": "flow.integrate",
}
_COUNTERS = (
    "capspec.eig_dense_calls",
    "capspec.eig_arpack_calls",
    "capspec.eig_max_n",
    "capspec.eig_dense_bytes",
    "capspec.eig_returned",
    "capspec.lu_factorizations",
    "capspec.lu_solves",
    "capspec.resolvent_maxiter_hits",
    "trapping.rhs_evals",
    "flow.rhs_evals",
    "models.hamilton_rhs_calls",
    "models.variational_calls",
    "models.radial_derivs_calls",
    "kerr.symbol_calls",
    "escape.grid_points",
    "artifacts.bytes",
)
LAYERS = ("capspec", "trapping", "flow", "escape", "cli", "artifacts")

PER_LAYER = {
    **{name: "s" for name in _SPAN_TIMES},
    **{name: "count" for name in _SPAN_CALLS},
    **{name: "count" for name in _COUNTERS},
    # the two byte counters override the unit given just above
    "capspec.eig_dense_bytes": "B",
    "capspec.eig_distinct_ratio": "ratio",
    "trapping.rhs_evals_per_s": "1/s",
    "trapping.perturb_setup_s": "s",
    "flow.rhs_evals_per_s": "1/s",
    "artifacts.bytes": "B",
    "cli.cpu_s": "s",
    "cli.checks_failed": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "process.setup_s": "s",
    "process.other_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class CommandRun:
    """One finished CLI process and what was measured on it."""

    command: Command
    out: Path
    rc: int | None = None
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    # gauge scale factors over the whole run and over its set-up
    scale: float = 1.0
    setup_scale: float = 1.0
    probe: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    checks_failed: int = 0


@dataclass
class Pass:
    runs: list

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def scaled_wall_s(self) -> float:
        return sum(run.wall_s * run.scale for run in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(run.rss_mb for run in self.runs)

    @property
    def checks_failed(self) -> int:
        return sum(run.checks_failed for run in self.runs)

    def command_s(self, name: str) -> float:
        return sum(run.wall_s * run.scale for run in self.runs if run.command.name == name)


class Bench:
    """Spawns, times and checks CLI processes inside one work directory."""

    def __init__(self, root: Path, work: Path, seed: int, gauge: HostGauge):
        self.root = root
        self.work = work
        self.seed = seed
        self.gauge = gauge
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("NHTRAP_WORKERS", None)  # would override workers = 1
        self.runs: list[CommandRun] = []

    def run_command(self, command: Command, tag: str, trace=False, setup_only=False) -> CommandRun:
        cwd = self.work / tag / f"{len(self.runs)}_{command.slug}"
        out = cwd / "out"
        cwd.mkdir(parents=True)
        config = cwd / "cmd.cfg"
        config.write_text(command.config_text(self.seed, str(out)), encoding="utf-8")
        probe_path = cwd / "probe.json"
        argv = [sys.executable, str(HERE / "child.py"), str(probe_path)]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        argv += ["--", command.name, "--config", str(config)]
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        timeout = min(COMMAND_TIMEOUT_S, max(5.0, left))
        run = CommandRun(command=command, out=out)
        with open(cwd / "stdout.txt", "wb") as stdout, open(cwd / "stderr.txt", "wb") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
            run.wall_s = end - start
        run.scale = self.gauge.scale(start, end)
        proc.returncode = run.rc = os.waitstatus_to_exitcode(status)
        run.rss_mb = usage.ru_maxrss / 1024.0
        run.cpu_s = usage.ru_utime + usage.ru_stime
        stderr_text = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        run.problems, run.checks_failed = check_run(command, run.rc, stderr_text, out, setup_only)
        if run.wall_s >= timeout:
            run.problems.append(f"timed out after {timeout:.0f} s")
        if run.cpu_s > CPU_SLACK * run.wall_s:
            # a second busy thread would also slow the gauge and skew its scale
            run.problems.append(
                f"used {run.cpu_s:.3g} CPU s in {run.wall_s:.3g} s: more than one core"
            )
        try:
            run.probe = read_json(probe_path)
            run.setup_s = run.probe["handler_start"] - start
            run.setup_scale = self.gauge.scale(start, run.probe["handler_start"])
        except (OSError, ValueError, KeyError) as exc:
            run.problems.append(f"probe unreadable: {exc!r}")
        self._check_probe(run)
        self.runs.append(run)
        return run

    def _check_probe(self, run: CommandRun) -> None:
        if run.probe.get("workers", 1) != 1:
            run.problems.append(f"ran with {run.probe['workers']} workers")
        module = run.probe.get("module")
        if module is not None and not Path(module).resolve().is_relative_to(self.root / "src"):
            run.problems.append(f"imported nhtrap from {module}")

    def run_pass(self, workload: Workload, tag: str, trace=False) -> Pass:
        return Pass([self.run_command(command, tag, trace) for command in workload.commands])

    def setup_probe(self, tag: str) -> CommandRun:
        return self.run_command(PROBE_COMMAND, tag, setup_only=True)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(passes: list, setups: list) -> dict:
    """Median scaled pass wall time and set-up time, median peak RSS;
    ``setups`` are set-up runs."""
    return {
        "wall_s": _median(p.scaled_wall_s for p in passes),
        "setup_s": _median(run.setup_s * run.setup_scale for run in setups),
        "peak_rss_mb": _median(p.peak_rss_mb for p in passes),
    }


def _span_tables(traced: Pass):
    """Per-span-name totals and call counts, layer self times, and the
    time of certify spans nested in perturb spans, over a traced pass."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    nested_certify = 0.0
    for run in traced.runs:
        spans = run.probe.get("spans", [])
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), covered in zip(spans, child_time):
            self_s[name.split(".")[0]] += (end - start) - covered
            if name == "trapping.certify":
                while parent >= 0 and spans[parent][0] != "trapping.perturb":
                    parent = spans[parent][3]
                if parent >= 0:
                    nested_certify += end - start
    return totals, calls, self_s, nested_certify


def per_layer_metrics(traced: Pass, plain: list) -> dict:
    totals, calls, self_s, nested_certify = _span_tables(traced)
    counters: dict[str, int] = {}
    for run in traced.runs:
        for name, value in run.probe.get("counters", {}).items():
            if name == "capspec.eig_max_n":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    metrics = {name: totals.get(span, 0.0) for name, span in _SPAN_TIMES.items()}
    metrics.update({name: calls.get(span, 0) for name, span in _SPAN_CALLS.items()})
    metrics.update({name: counters.get(name, 0) for name in _COUNTERS})

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    returned = counters.get("capspec.eig_returned", 0)
    metrics["capspec.eig_distinct_ratio"] = rate(counters.get("capspec.eig_distinct", 0), returned)
    metrics["trapping.rhs_evals_per_s"] = rate(
        metrics["trapping.rhs_evals"], metrics["trapping.ivp_s"]
    )
    metrics["trapping.perturb_setup_s"] = totals.get("trapping.perturb", 0.0) - nested_certify
    metrics["flow.rhs_evals_per_s"] = rate(metrics["flow.rhs_evals"], metrics["flow.integrate_s"])
    metrics["cli.cpu_s"] = _median(sum(run.cpu_s for run in p.runs) for p in plain)
    metrics["cli.checks_failed"] = traced.checks_failed
    metrics.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    setup = sum(run.setup_s or 0.0 for run in traced.runs)
    metrics["process.setup_s"] = setup
    metrics["process.other_s"] = traced.wall_s - setup - sum(self_s.values())
    metrics["trace.spans"] = sum(calls.values())
    plain_wall = _median(p.scaled_wall_s for p in plain)
    metrics["trace.overhead_frac"] = (traced.scaled_wall_s - plain_wall) / plain_wall
    return metrics


def _trace_problems(plain: Pass, traced: Pass) -> None:
    """Attach artifact-identity and runtime_s problems to the traced runs."""
    for reference, run in zip(plain.runs, traced.runs):
        if not (reference.out.is_dir() and run.out.is_dir()):
            continue
        run.problems += compare_outputs(reference.out, run.out)
        if (run.out / "gaps.csv").is_file():
            run.problems += check_runtime_spans(run.out, run.probe.get("spans", []))


def environment(bench: Bench, passes: int, trace: bool) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    root = bench.root
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nhtrap").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {name: bench.env[name] for name in THREAD_VARS},
        "workers": 1,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": bench.seed,
        "passes": passes,
        "traced_passes": int(trace),
        "gauge_reference_s": REFERENCE_S,
        "gauge_median_s": _median(bench.gauge.times),
        "gauge_samples": len(bench.gauge.times),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds through run_command, which kills and reaps its child
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd().resolve()
    if not (root / "src" / "nhtrap" / "cli.py").is_file():
        print(f"perfbench: no nhtrap source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    with HostGauge() as gauge:
        bench = Bench(root, work, args.seed, gauge)
        # untimed: compiles bytecode and warms the file cache for the timed runs
        bench.setup_probe("warmup")
        bench.runs.clear()

        passes: list[Pass] = []
        start = time.monotonic()
        while True:
            passes.append(bench.run_pass(workload, f"p{len(passes)}"))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        if args.trace:
            traced = bench.run_pass(workload, "traced", trace=True)
        else:
            setups = [run for run in bench.runs if run.setup_s is not None]
            while len(setups) < SETUP_SAMPLES_MIN:
                probe = bench.setup_probe(f"s{len(setups)}")
                if probe.setup_s is None:
                    break
                setups.append(probe)
    if args.trace:
        _trace_problems(passes[0], traced)
        metrics, units = per_layer_metrics(traced, passes), PER_LAYER
    else:
        metrics = end_to_end_metrics(passes, setups) if setups else {}
        units = END_TO_END
    failed = [run for run in bench.runs if run.problems]

    env = environment(bench, len(passes), bool(args.trace))
    print(f"perfbench workload={workload.name} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  times in s are scaled to the reference host speed; unscaled pass wall_s = "
          f"{_median(p.wall_s for p in passes):.6g} s, host scale = "
          f"{_median(run.scale for run in bench.runs):.4g}")
    print(f"  failed_frac = {len(failed) / len(bench.runs):.6g} "
          f"({len(failed)} of {len(bench.runs)} CLI runs)")
    print(f"  checks_failed = {passes[0].checks_failed} per pass")
    print(f"  pass wall_s = {', '.join(f'{p.scaled_wall_s:.4g}' for p in passes)}")
    for command in workload.commands:
        seconds = _median(p.command_s(command.name) for p in passes)
        print(f"  {command.slug}_s = {seconds:.6g} s")
    for run in failed:
        print(f"  FAILED {run.command.name} in {run.out.parent}: {'; '.join(run.problems)}")
    print(f"  env = {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": not failed,
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = dict(result, env=env)
    if args.trace:
        record["spans"] = {run.out.parent.name: run.probe.get("spans", []) for run in traced.runs}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
