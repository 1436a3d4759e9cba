"""Self-tests of the benchmark: tracer coverage, span arithmetic, checks.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

``test_coverage`` makes one traced run of each workload (about three
minutes in all); the other tests take seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import check_run, check_runtime_spans, compare_outputs  # noqa: E402
from gauge import REFERENCE_S, HostGauge  # noqa: E402
from run import LAYERS, PER_LAYER, CommandRun, Pass, _span_tables  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

from nhtrap.capspec import SHIFT_COUNT  # noqa: E402

# differences of two timings, not layer work: their sign is not predicted
UNPREDICTED = {"trace.overhead_frac", "process.other_s"}


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_coverage(name):
    proc = _run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    workload = WORKLOADS[name]
    wrong = {
        key: value
        for key, value in metrics.items()
        if key not in UNPREDICTED and (value != 0) != (key in workload.nonzero)
    }
    assert not wrong, f"metrics off their predicted zero/non-zero pattern: {wrong}"
    traced_wall = (
        metrics["process.setup_s"]
        + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        + metrics["process.other_s"]
    )
    dominant = sum(metrics[key] for key in workload.dominant)
    assert dominant > 0.5 * traced_wall, (workload.dominant, dominant, traced_wall)


def _traced_snippet(body: str) -> dict:
    """Run ``body`` in a fresh process with the tracer installed."""
    code = (
        "import json\n"
        "from tracer import Tracer\n"
        "tracer = Tracer(); tracer.install()\n"
        "from nhtrap import capspec\n"
        f"{body}\n"
        "print(json.dumps(tracer.dump()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_arpack_and_resolvent_counters():
    """Paths no workload takes at the seed still reach their counters."""
    dump = _traced_snippet(
        "problem = capspec.build_model('toy_sech2', None, h=0.2)\n"
        "matrix = capspec.discretize_sparse(problem)\n"
        "capspec.eigenvalues(matrix, method='shift_invert', k_per_shift=6)\n"
        "capspec.resolvent_norm(problem, 0.0, max_iter=3)\n"
    )
    counters = dump["counters"]
    assert counters["capspec.eig_arpack_calls"] == SHIFT_COUNT
    assert counters.get("capspec.eig_dense_calls", 0) == 0
    assert counters["capspec.lu_factorizations"] == 1
    assert counters["capspec.lu_solves"] == 6
    assert counters["capspec.resolvent_maxiter_hits"] == 1
    names = [span[0] for span in dump["spans"]]
    assert names.count("capspec.eig") == 1 and names.count("capspec.resolvent") == 1


def test_self_time_and_perturb_setup():
    spans = [
        ["cli.handler", 0.0, 10.0, -1],
        ["trapping.perturb", 1.0, 9.0, 0],
        ["trapping.certify", 2.0, 8.0, 1],
        ["trapping.ivp", 3.0, 7.0, 2],
        ["artifacts.write", 10.0, 10.5, -1],
    ]
    run = CommandRun(command=Command("perturb", ()), out=Path("."), probe={"spans": spans})
    totals, calls, self_s, nested_certify = _span_tables(Pass([run]))
    assert totals["trapping.perturb"] == 8.0 and calls["trapping.ivp"] == 1
    assert self_s["cli"] == 2.0
    assert self_s["trapping"] == 8.0
    assert self_s["artifacts"] == 0.5
    assert nested_certify == 6.0


def test_gauge_scale_takes_interval_median():
    gauge = HostGauge()
    gauge.stamps = [0.0, 1.0, 2.0, 3.0, 4.0]
    gauge.times = [1e-3, 2e-3, 2e-3, 4e-3, 1e-3]
    assert gauge.scale(0.95, 3.05) == pytest.approx(REFERENCE_S / 2e-3)
    # one sample inside: the window widens to three samples
    assert gauge.scale(2.0, 2.0) == pytest.approx(REFERENCE_S / 2e-3)


def test_gauge_samples_until_closed():
    with HostGauge() as gauge:
        time.sleep(0.3)
    count = len(gauge.times)
    assert count >= 3 and len(gauge.stamps) == count
    assert gauge.stamps == sorted(gauge.stamps)
    time.sleep(0.15)
    assert len(gauge.times) == count


def _write_gap_artifacts(out: Path, gap_row: str, eig_row: str, failures=()):
    out.mkdir(parents=True)
    (out / "gaps.csv").write_text("h,gap,nu,norm_axis_z0,runtime_s\n" + gap_row + "\n")
    (out / "eigenvalues.csv").write_text("h,re_z,im_z,residual\n" + eig_row + "\n")
    (out / "failures.json").write_text(json.dumps({"failures": list(failures)}))


def test_gap_checks(tmp_path):
    command = Command("spectrum-resolvent", (("h", "0.05"),))
    good = tmp_path / "good"
    _write_gap_artifacts(good, "0.05,0.00614748160491,0.122949632098,1,2.5",
                         "0.05,0.01,-0.00614748160491,1e-13")
    assert check_run(command, 0, "", good) == ([], 0)
    bad = tmp_path / "bad"
    _write_gap_artifacts(bad, "0.05,0.00614748160491,0.122949632108,1,2.5",
                         "0.05,0.01,0.001,1e-7", failures=[{"check": "x"}])
    problems, checks_failed = check_run(command, 1, "Traceback (most recent call last)", bad)
    assert checks_failed == 1
    assert any("nu" in p for p in problems)
    assert any("Im z" in p for p in problems)
    assert any("residual" in p for p in problems)
    assert any("traceback" in p for p in problems)
    assert check_run(command, 3, "", tmp_path / "missing")[0]


def test_trace_identity_masks_only_runtime(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    _write_gap_artifacts(plain, "0.05,0.1,2,1,2.5", "0.05,0.01,-0.1,1e-13")
    _write_gap_artifacts(traced, "0.05,0.1,2,1,2.6", "0.05,0.01,-0.1,1e-13")
    assert compare_outputs(plain, traced) == []
    assert check_runtime_spans(traced, [["capspec.spectral_gap", 0.0, 2.6001, -1]]) == []
    assert check_runtime_spans(traced, [["capspec.spectral_gap", 0.0, 2.0, -1]])
    (traced / "eigenvalues.csv").write_text("h,re_z,im_z,residual\n0.05,0.01,-0.2,1e-13\n")
    assert compare_outputs(plain, traced) == [
        "eigenvalues.csv differs between traced and untraced runs"
    ]


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_bench("--workload", "quick_survey", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
