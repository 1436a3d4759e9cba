"""Run a fixed list of nhtrap CLI configs against two source trees and diff them.

Usage:

    python tools/compare_runs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository; its ``src`` is the
PYTHONPATH.  Every config runs once per tree, each side in a fresh
temporary directory with the same relative ``output_dir``, with
``OPENBLAS_NUM_THREADS=1``.  The exit code, stdout, stderr and the bytes
of every artifact are compared; the ``runtime_s`` column of gaps.csv, a
wall time, is blanked first.  Every difference is printed, and the exit
status is 1 if any config differs, else 0.  Each config's line also
shows the wall time of its run on either tree, process start-up
included; one run each, so it is a rough guide, not a gate.

The list holds 34 configs: refactor checks across all seven commands
(escape-check and spectrum-gap at a = 0.99, where the scaled Kerr barrier
is most extreme; trap-certify and escape-check at M = 2; perturb at
M = 0.1; flow-integrate on the photon circle at M = 100, and on its
defaults, the photon circle r = 3M at T = 100 in 201 samples; trap-certify
and perturb at spins of 1e-8 and 1e-6, whose twist is small but not
zero; spectrum-gap on Schwarzschild at h = 0.0125 and 0.00625, the only
h below 0.025; spectrum-resolvent on Schwarzschild at h = 0.025, its largest
matrix, whose imaginary part must still read exactly diagonal, and on
Kerr at a = 0.9; the rest at M = 1) and the eight workload commands of
the benchmark at seed 1, whose config texts are read from
``perfbench/workloads.py``.
Four of the checks end in an error exit: the h >= htilde exit 2 of
escape-check, a flow orbit that leaves the chart forward and one that
leaves it backward (exit 3 each) and a certify horizon shorter than one
theta-period (exit 2).  Differing text outputs
are compared by a `difflib` line diff, so an artifact that only loses
lines names just those lines.
"""

from __future__ import annotations

import csv
import difflib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

OUTPUT_DIR = "out"
QUICK_SURVEY_ORBIT = (
    "kerr.spin = 0.5\norbit.r = 8\norbit.theta = 1.2\norbit.phi = 0\n"
    "orbit.xi = -1.047452885827\norbit.alpha = 3.923213879343\norbit.beta = 4\n"
)

# (name, command, config lines after command, workers and output_dir)
_BODIES = (
    ("certify_spins", "trap-certify", "a_list = 0, 0.5, 0.9, 0.99\n"),
    ("certify_lam30", "trap-certify", "lam = 30\n"),
    ("certify_m2", "trap-certify", "kerr.mass = 2\na_list = 0, 1, 1.8\nhorizon = 20\n"),
    ("perturb_s3", "perturb", "kerr.spin = 0.5\nseed = 3\n"),
    ("perturb_a09_s5", "perturb", "kerr.spin = 0.9\nepsilon = 0.03\nseed = 5\n"),
    ("perturb_m01", "perturb", "kerr.mass = 0.1\nkerr.spin = 0.05\n"),
    ("certify_tiny_spin", "trap-certify", "a_list = 0, 1e-8, 1e-6\n"),
    ("perturb_tiny_spin", "perturb", "kerr.spin = 1e-6\n"),
    ("find_a09", "trap-find", "kerr.spin = 0.9\nbeta_list = -2.8, -1, 0, 1, 4, 6\n"),
    ("escape_defaults", "escape-check", ""),
    ("escape_a05_h005", "escape-check", "kerr.spin = 0.5\nh = 0.05\n"),
    ("escape_a09_h001", "escape-check", "kerr.spin = 0.9\nh = 0.01\n"),
    ("escape_m2", "escape-check", "kerr.mass = 2\nkerr.spin = 1.2\nh = 0.2\n"),
    ("escape_h03", "escape-check", "h = 0.3\n"),
    ("escape_a099", "escape-check", "kerr.spin = 0.99\nh = 0.05\n"),
    ("gap_toy", "spectrum-gap", "model = toy_sech2\n"),
    ("gap_kerr_a09", "spectrum-gap",
     "kerr.spin = 0.9\nmodel = kerr_equatorial\nh_list = 0.05, 0.025\n"),
    ("gap_kerr_a099", "spectrum-gap",
     "kerr.spin = 0.99\nmodel = kerr_equatorial\nh_list = 0.05, 0.025\n"),
    # the only config below h = 0.025, where the spectral box search costs most
    ("gap_schw_fine", "spectrum-gap", "model = schw_radial\nh_list = 0.0125, 0.00625\n"),
    ("resolvent_schw", "spectrum-resolvent", "model = schw_radial\nh = 0.025\n"),
    ("resolvent_kerr_a09", "spectrum-resolvent",
     "kerr.spin = 0.9\nmodel = kerr_equatorial\nh = 0.05\n"),
    # the photon circle r = 3M at M = 100
    ("flow_m100", "flow-integrate",
     "kerr.mass = 100\norbit.r = 300\norbit.beta = 519.6152422706632\norbit.time = 0.01\n"),
    ("flow_defaults", "flow-integrate", ""),
    # leaves the chart at t = 1.2757: exit 3
    ("flow_chart_exit", "flow-integrate", QUICK_SURVEY_ORBIT + "orbit.time = 30\n"),
    # leaves the chart at t = -0.0653: exit 3
    ("flow_chart_exit_backward", "flow-integrate", QUICK_SURVEY_ORBIT + "orbit.time = -1\n"),
    # shorter than one theta-period: exit 2
    ("certify_horizon05", "trap-certify", "horizon = 0.5\n"),
)


# report names of the benchmark's workload commands, kept short and stable
# so reports and test ids compare across changes; any other is workload-command
_WORKLOAD_NAMES = {
    ("cap_fine", "spectrum-gap"): "cap_fine_gap",
    ("cap_fine", "spectrum-resolvent"): "cap_fine_resolvent",
    ("shell_certify", "trap-certify"): "shell_certify",
    ("shell_certify", "perturb"): "shell_perturb",
    ("quick_survey", "trap-find"): "survey_find",
    ("quick_survey", "escape-check"): "survey_escape",
    ("quick_survey", "flow-integrate"): "survey_flow",
    ("quick_survey", "spectrum-gap"): "survey_gap",
}


def _workload_configs() -> tuple:
    """The benchmark's workload commands at seed 1, as the benchmark writes them.

    ``perfbench/workloads.py`` is loaded by path and only read.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    spec.loader.exec_module(workloads)
    return tuple(
        (
            _WORKLOAD_NAMES.get((workload.name, command.name), f"{workload.name}-{command.name}"),
            command.name,
            command.config_text(1, OUTPUT_DIR),
        )
        for workload in workloads.WORKLOADS.values()
        for command in workload.commands
    )


# (name, command, config text)
CONFIGS = tuple(
    (name, command, f"command = {command}\nworkers = 1\noutput_dir = {OUTPUT_DIR}\n{body}")
    for name, command, body in _BODIES
) + _workload_configs()


def _blank_runtime(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    column = rows[0].index("runtime_s")
    for row in rows[1:]:
        row[column] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def run(tree: Path, command: str, text: str) -> dict:
    """Exit code, stdout, stderr and {relative path: bytes} of one run."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory() as work:
        config = Path(work, "run.cfg")
        config.write_text(text)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nhtrap.cli", command, "--config", config.name],
            cwd=work, env=env, capture_output=True,
        )
        wall = time.perf_counter() - start
        files = {}
        out = Path(work, OUTPUT_DIR)
        for path in sorted(out.rglob("*")) if out.is_dir() else ():
            if path.is_file():
                data = path.read_bytes()
                files[str(path.relative_to(out))] = (
                    _blank_runtime(data) if path.name == "gaps.csv" else data
                )
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "files": files,
        "wall_s": wall,
    }


def differences(parent: dict, change: dict) -> list[str]:
    found = []
    if parent["exit code"] != change["exit code"]:
        found.append(f"exit code: {parent['exit code']} -> {change['exit code']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            found.extend(_file_diff(stream, parent[stream], change[stream]))
    for name in sorted(set(parent["files"]) | set(change["files"])):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            found.append(f"{name}: only in the {'change' if a is None else 'parent'}")
        elif a != b:
            found.extend(_file_diff(name, a, b))
    return found


def _file_diff(name: str, a: bytes, b: bytes) -> list[str]:
    """The lines of a text output that differ, with their line numbers.

    Lines are matched by `difflib`, so a line only removed or only added is
    named alone, not every later line shifted by it.  A block of changed
    lines that keeps its length is paired line by line (parent -> change);
    any other block is listed as removed parent lines and added change lines.
    """
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    found = []
    if len(lines_a) != len(lines_b):
        found.append(f"{name}: {len(lines_a)} -> {len(lines_b)} lines")
    matcher = difflib.SequenceMatcher(None, lines_a, lines_b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        if i2 - i1 == j2 - j1:
            found.extend(f"{name}:{i + 1}: {lines_a[i].strip()} -> {lines_b[j].strip()}"
                         for i, j in zip(range(i1, i2), range(j1, j2)))
            continue
        found.extend(f"{name}:{i + 1}: removed {lines_a[i].strip()}" for i in range(i1, i2))
        found.extend(f"{name}:{j + 1} (change): added {lines_b[j].strip()}" for j in range(j1, j2))
    return found or [f"{name}: bytes differ"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_runs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent_tree, change_tree = (Path(arg) for arg in argv)
    for tree in (parent_tree, change_tree):
        if not (tree / "src" / "nhtrap").is_dir():
            print(f"{tree} holds no src/nhtrap", file=sys.stderr)
            return 2
    n_differ = 0
    for name, command, text in CONFIGS:
        parent, change = run(parent_tree, command, text), run(change_tree, command, text)
        found = differences(parent, change)
        status = "DIFFERS" if found else "same"
        print(f"{name:24s} {command:18s} exit {parent['exit code']} -> "
              f"{change['exit code']}, {len(change['files'])} artifacts, "
              f"{parent['wall_s']:.2f} -> {change['wall_s']:.2f} s: {status}")
        for line in found:
            print(f"    {line}")
        n_differ += bool(found)
    print(f"{n_differ} of {len(CONFIGS)} configs differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
