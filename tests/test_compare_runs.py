"""The fixed config list of tools/compare_runs.py stays runnable.

The tool is not a package module, so it is loaded by path; without this
guard a renamed config key or command would only show when the tool is run.
"""

import importlib.util
from pathlib import Path

import pytest

from nhtrap.config import COMMANDS, parse_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs = _load_tool()


@pytest.mark.parametrize(
    "name, command, body", compare_runs.CONFIGS, ids=[c[0] for c in compare_runs.CONFIGS]
)
def test_config_parses(name, command, body):
    # the text the tool writes for the run, parsed as the CLI parses it
    cfg = parse_config(compare_runs.config_text(command, body), fallback_command=command)
    assert cfg.command == command


def test_names_are_unique():
    names = [name for name, _, _ in compare_runs.CONFIGS]
    assert len(set(names)) == len(names)


def test_commands_are_known():
    assert {command for _, command, _ in compare_runs.CONFIGS} <= set(COMMANDS)
