"""The fixed config list of tools/compare_runs.py stays runnable.

The tool is not a package module, so it is loaded by path; without this
guard a renamed config key or command would only show when the tool is run.
The benchmark's workload list (perfbench/workloads.py) is loaded the same
way, read only, so the tool's mirror of it cannot drift.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from nhtrap.config import COMMANDS, parse_config

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


compare_runs = _load("compare_runs", ROOT / "tools" / "compare_runs.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
WORKLOAD_COMMANDS = [
    (workload.name, command)
    for workload in workloads.WORKLOADS.values()
    for command in workload.commands
]


@pytest.mark.parametrize(
    "name, command, body", compare_runs.CONFIGS, ids=[c[0] for c in compare_runs.CONFIGS]
)
def test_config_parses(name, command, body):
    # the text the tool writes for the run, parsed as the CLI parses it
    cfg = parse_config(compare_runs.config_text(command, body), command)
    assert cfg.command == command


def test_names_are_unique():
    names = [name for name, _, _ in compare_runs.CONFIGS]
    assert len(set(names)) == len(names)


def test_docstring_counts_the_configs():
    # the count in the tool's docstring cannot go stale
    count = re.search(r"The list holds (\d+) configs", compare_runs.__doc__)
    assert int(count.group(1)) == len(compare_runs.CONFIGS)


@pytest.mark.parametrize(
    "workload, command", WORKLOAD_COMMANDS,
    ids=[f"{name}-{command.name}" for name, command in WORKLOAD_COMMANDS],
)
def test_workload_command_is_mirrored(workload, command):
    # the benchmark's config at its seed 1 parses to one CONFIGS entry's config
    cfg = parse_config(command.config_text(1, compare_runs.OUTPUT_DIR), command.name)
    mirrors = [
        name for name, cmd, body in compare_runs.CONFIGS
        if cmd == command.name and parse_config(compare_runs.config_text(cmd, body), cmd) == cfg
    ]
    assert mirrors, f"{workload}: {command.name} has no mirror in compare_runs.CONFIGS"


def test_commands_are_known():
    assert {command for _, command, _ in compare_runs.CONFIGS} <= set(COMMANDS)


def test_file_diff_names_only_changed_lines():
    # an artifact that only loses a line names that line alone, not every
    # later line shifted by it; a changed digit names its one line
    parent = b'{\n  "a": 1,\n  "angle": 0.0,\n  "b": 2,\n  "c": 3\n}\n'
    change = b'{\n  "a": 1,\n  "b": 2,\n  "c": 4\n}\n'
    assert compare_runs._file_diff("certificate.json", parent, change) == [
        "certificate.json: 6 -> 5 lines",
        'certificate.json:3: removed "angle": 0.0,',
        'certificate.json:5: "c": 3 -> "c": 4',
    ]
    assert compare_runs._file_diff("out", b"x\n", b"x\ny\n") == [
        "out: 1 -> 2 lines", "out:2 (change): added y",
    ]
    assert compare_runs._file_diff("out", b"x", b"x\n") == ["out: bytes differ"]
