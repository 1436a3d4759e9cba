"""Config text parsing and validation tests."""

import math
from pathlib import Path

import pytest

from nhtrap.config import (
    COMMANDS,
    DEFAULT_TOLERANCES,
    FLOW_TOL_RANGE,
    KNOWN_KEYS,
    RunConfig,
    parse_config,
)
from nhtrap.errors import ParseError, ValidationError
from nhtrap.kerr import KerrParams

MINIMAL = "kerr.mass = 1.0\nkerr.spin = 0.0\ncommand = trap-find\n"


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "trap-find"
        assert cfg.kerr_mass == 1.0 and cfg.kerr_spin == 0.0
        assert cfg.kerr == KerrParams(mass=1.0, spin=0.0)
        assert cfg.seed == 0
        assert cfg.workers is None
        assert cfg.output_dir == Path("out")
        assert cfg.tolerances == DEFAULT_TOLERANCES
        assert cfg.h_list is None and cfg.beta_list is None

    def test_defaults_come_from_run_config(self):
        assert parse_config("command = trap-find") == RunConfig(command="trap-find")

    @pytest.mark.parametrize("mass", [1e-50, 0.1, 1.0, 1e50])
    def test_unset_defaults_scale_with_mass(self, mass):
        # the default orbit is the photon circle r = 3M, beta = sqrt(27) M,
        # and the default horizon 50/M, since theta-periods scale like 1/M;
        # at M = 1 they are the values RunConfig holds, bit for bit
        cfg = parse_config(f"command = trap-certify\nkerr.mass = {mass!r}\n")
        assert cfg.orbit["r"] == 3.0 * mass
        assert cfg.orbit["beta"] == math.sqrt(27.0) * mass
        assert cfg.orbit["theta"] == math.pi / 2.0
        assert cfg.horizon == 50.0 / mass
        # a key that is set keeps its value
        cfg = parse_config(
            f"command = trap-certify\nkerr.mass = {mass!r}\norbit.r = 7\nhorizon = 3\n"
        )
        assert cfg.orbit["r"] == 7.0 and cfg.horizon == 3.0
        assert cfg.orbit["beta"] == math.sqrt(27.0) * mass

    def test_comments_and_blank_lines(self):
        text = (
            "# full line comment\n"
            "\n"
            "command = spectrum-gap  # trailing comment\n"
            "h_list = 0.1, 0.05   # descending\n"
        )
        cfg = parse_config(text)
        assert cfg.command == "spectrum-gap"
        assert cfg.h_list == (0.1, 0.05)

    def test_dotted_keys_nest(self):
        cfg = parse_config(
            "command = flow-integrate\n"
            "orbit.r = 3.5\n"
            "tol.flow = 1e-11\n"
            "kerr.spin = 0.2\n"
        )
        assert cfg.orbit["r"] == 3.5
        assert cfg.orbit["theta"] == math.pi / 2.0
        assert cfg.tolerances["flow"] == 1e-11
        assert cfg.tolerances["drift"] == DEFAULT_TOLERANCES["drift"]
        assert cfg.kerr_spin == 0.2

    def test_every_known_key_round_trips(self):
        sample = {
            "command": "spectrum-gap",
            "kerr.mass": "1.0",
            "kerr.spin": "0.1",
            "model": "schw_radial",
            "h": "0.1",
            "h_list": "0.1, 0.05",
            "beta_list": "0.0, 1.0",
            "a_list": "0.0, 0.1",
            "window": "0.3",
            "lam": "0.0",
            "horizon": "10",
            "r_max": "4",
            "epsilon": "0.01",
            "orbit.r": "3.0",
            "orbit.theta": "1.5707",
            "orbit.phi": "0.0",
            "orbit.xi": "0.0",
            "orbit.alpha": "0.0",
            "orbit.beta": "5.196",
            "orbit.time": "10",
            "orbit.samples": "11",
            "tol.flow": "1e-10",
            "tol.drift": "1e-9",
            "tol.consistency": "0.15",
            "seed": "7",
            "workers": "2",
            "output_dir": "artifacts",
        }
        assert set(sample) == set(KNOWN_KEYS)
        text = "\n".join(f"{k} = {v}" for k, v in sample.items())
        cfg = parse_config(text)
        assert cfg.seed == 7 and cfg.workers == 2
        assert cfg.output_dir == Path("artifacts")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_config("command = trap-find\nnot a pair\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_config("command = trap-find\nseed =\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_config("Command = trap-find\n")
        assert err.value.line == 1
        with pytest.raises(ParseError) as err:
            parse_config("seed = 1\nseed = 2\n")
        assert err.value.line == 2

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "bogus_key = 1\n")
        assert err.value.key == "bogus_key"

    def test_typed_value_errors_name_the_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nseed = 1.5\n")
        assert err.value.key == "seed"
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nh = fast\n")
        assert err.value.key == "h"
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nh_list = 0.1,,0.05\n")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nwindow = inf\n")
        assert err.value.key == "window"


class TestValidation:
    def test_subextremal_spin_enforced(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nkerr.spin = 1.5\n")
        assert err.value.key == "kerr.spin"
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nkerr.spin = -0.1\n")
        assert err.value.key == "kerr.spin"
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-find\nkerr.mass = 0\n")
        assert err.value.key == "kerr.mass"

    def test_h_list_ordering_rule(self):
        cfg = parse_config("command = spectrum-gap\nh_list = 0.1, 0.05, 0.025\n")
        assert cfg.h_list == (0.1, 0.05, 0.025)
        with pytest.raises(ValidationError) as err:
            parse_config("command = spectrum-gap\nh_list = 0.05, 0.1\n")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("command = spectrum-gap\nh_list = 0.1, 0.1\n")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("command = spectrum-gap\nh_list = 0.1, -0.05\n")
        assert err.value.key == "h_list"
        with pytest.raises(ParseError):
            parse_config("command = spectrum-gap\nh_list =\n")

    def test_every_tolerance_positive(self):
        for name in DEFAULT_TOLERANCES:
            with pytest.raises(ValidationError) as err:
                parse_config(f"command = trap-find\ntol.{name} = 0\n")
            assert err.value.key == f"tol.{name}"

    def test_flow_tolerance_range(self):
        lo, hi = FLOW_TOL_RANGE
        for value in (lo, hi):
            cfg = parse_config(f"command = perturb\ntol.flow = {value!r}\n")
            assert cfg.tolerances["flow"] == value
        for value in (1e-4, 1e-15):
            with pytest.raises(ValidationError) as err:
                parse_config(f"command = perturb\ntol.flow = {value!r}\n")
            assert err.value.key == "tol.flow"

    def test_a_list_subextremal(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command = trap-certify\na_list = 0.0, 1.0\n")
        assert err.value.key == "a_list"

    def test_command_required_and_valid(self):
        with pytest.raises(ValidationError) as err:
            parse_config("kerr.mass = 1.0\n")
        assert err.value.key == "command"
        with pytest.raises(ValidationError) as err:
            parse_config("command = make-coffee\n")
        assert err.value.key == "command"

    def test_fallback_command(self):
        cfg = parse_config("kerr.mass = 1.0\n", fallback_command="trap-find")
        assert cfg.command == "trap-find"
        cfg = parse_config(MINIMAL, fallback_command="trap-find")
        assert cfg.command == "trap-find"
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL, fallback_command="perturb")
        assert err.value.key == "command"

    def test_misc_bounds(self):
        for text, key in (
            ("seed = -1", "seed"),
            ("workers = 0", "workers"),
            ("orbit.samples = 1", "orbit.samples"),
            ("orbit.time = 0", "orbit.time"),
            ("epsilon = 0", "epsilon"),
            ("horizon = -5", "horizon"),
            ("r_max = 0", "r_max"),
            ("window = -0.3", "window"),
            ("h = 0", "h"),
            ("model = cubic_well", "model"),
        ):
            with pytest.raises(ValidationError) as err:
                parse_config(f"command = trap-find\n{text}\n")
            assert err.value.key == key

    def test_all_commands_accepted(self):
        for command in COMMANDS:
            cfg = parse_config(f"command = {command}\n")
            assert cfg.command == command

    def test_config_is_frozen(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(AttributeError):
            cfg.seed = 5
        assert isinstance(cfg, RunConfig)
