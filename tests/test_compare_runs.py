"""The fixed config list of tools/compare_runs.py stays runnable.

The tool is not a package module, so it is loaded by path; without this
guard a renamed config key or command would only show when the tool is run.
The tool reads the benchmark's workload configs from perfbench/workloads.py
itself, so they cannot drift from the benchmark's.
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


@pytest.mark.parametrize(
    "name, command, text", compare_runs.CONFIGS, ids=[c[0] for c in compare_runs.CONFIGS]
)
def test_config_parses(name, command, text):
    # the text the tool writes for the run, parsed as the CLI parses it
    cfg = parse_config(text, command)
    assert cfg.command == command


def test_names_are_unique():
    names = [name for name, _, _ in compare_runs.CONFIGS]
    assert len(set(names)) == len(names)


def test_docstring_counts_the_configs():
    # the count in the tool's docstring cannot go stale
    count = re.search(r"The list holds (\d+) configs", compare_runs.__doc__)
    assert int(count.group(1)) == len(compare_runs.CONFIGS)


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
