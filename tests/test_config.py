"""Config text parsing and validation tests."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhtrap.config import (
    COMMANDS,
    KNOWN_KEYS,
    MODEL_KINDS,
    RunConfig,
    parse_config,
)
from nhtrap.errors import ConfigError, ParseError, ValidationError
from nhtrap.kerr import KerrParams

MINIMAL = "kerr.mass = 1.0\nkerr.spin = 0.0\ncommand = trap-find\n"


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL, "trap-find")
        assert cfg.command == "trap-find"
        assert cfg.kerr_mass == 1.0 and cfg.kerr_spin == 0.0
        assert cfg.kerr == KerrParams(mass=1.0, spin=0.0)
        assert cfg.seed == 0
        assert cfg.workers == 1
        assert cfg.output_dir == Path("out")
        assert cfg.h_list == (0.1, 0.05, 0.025, 0.0125) and cfg.beta_list == (0.0,)
        assert cfg.a_list == (0.0,)

    def test_defaults_come_from_run_config(self):
        assert parse_config("", "trap-find") == RunConfig(command="trap-find")
        assert parse_config("command = trap-find", "trap-find") == RunConfig(command="trap-find")

    @pytest.mark.parametrize("mass", [1e-50, 0.1, 1.0, 1e50])
    def test_unset_defaults_scale_with_mass(self, mass):
        # the default orbit is the photon circle r = 3M, beta = sqrt(27) M,
        # and the default horizon 50/M, since theta-periods scale like 1/M;
        # at M = 1 they are the values RunConfig holds, bit for bit
        cfg = parse_config(f"kerr.mass = {mass!r}\nkerr.spin = {0.5 * mass!r}\n", "trap-certify")
        assert cfg.orbit_r == 3.0 * mass
        assert cfg.orbit_beta == math.sqrt(27.0) * mass
        assert cfg.orbit_theta == math.pi / 2.0
        assert cfg.horizon == 50.0 / mass
        # an unset a_list is the run's spin
        assert cfg.a_list == (0.5 * mass,)
        # a key that is set keeps its value
        cfg = parse_config(
            f"kerr.mass = {mass!r}\norbit.r = 7\nhorizon = 3\na_list = 0\n", "trap-certify"
        )
        assert cfg.orbit_r == 7.0 and cfg.horizon == 3.0 and cfg.a_list == (0.0,)
        assert cfg.orbit_beta == math.sqrt(27.0) * mass

    def test_comments_and_blank_lines(self):
        text = (
            "# full line comment\n"
            "\n"
            "command = spectrum-gap  # trailing comment\n"
            "h_list = 0.1, 0.05   # descending\n"
        )
        cfg = parse_config(text, "spectrum-gap")
        assert cfg.command == "spectrum-gap"
        assert cfg.h_list == (0.1, 0.05)

    def test_dotted_keys_nest(self):
        # a dotted key sets the field of its name, dots read as underscores
        cfg = parse_config(
            "orbit.r = 3.5\n"
            "kerr.spin = 0.2\n",
            "flow-integrate",
        )
        assert cfg.orbit_r == 3.5
        assert cfg.orbit_theta == math.pi / 2.0
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
            "epsilon": "0.01",
            "orbit.r": "3.0",
            "orbit.theta": "1.5707",
            "orbit.phi": "0.0",
            "orbit.xi": "0.0",
            "orbit.alpha": "0.0",
            "orbit.beta": "5.196",
            "orbit.time": "10",
            "seed": "7",
            "workers": "2",
            "output_dir": "artifacts",
        }
        assert set(sample) == set(KNOWN_KEYS)
        text = "\n".join(f"{k} = {v}" for k, v in sample.items())
        cfg = parse_config(text, "spectrum-gap")
        assert cfg.seed == 7 and cfg.workers == 2
        assert cfg.output_dir == Path("artifacts")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_config("command = trap-find\nnot a pair\n", "trap-find")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_config("command = trap-find\nseed =\n", "trap-find")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_config("Command = trap-find\n", "trap-find")
        assert err.value.line == 1
        with pytest.raises(ParseError) as err:
            parse_config("seed = 1\nseed = 2\n", "trap-find")
        assert err.value.line == 2

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "bogus_key = 1\n", "trap-find")
        assert err.value.key == "bogus_key"

    def test_typed_value_errors_name_the_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("seed = 1.5\n", "trap-find")
        assert err.value.key == "seed"
        with pytest.raises(ValidationError) as err:
            parse_config("h = fast\n", "trap-find")
        assert err.value.key == "h"
        with pytest.raises(ValidationError) as err:
            parse_config("h_list = 0.1,,0.05\n", "trap-find")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("window = inf\n", "trap-find")
        assert err.value.key == "window"


class TestValidation:
    def test_subextremal_spin_enforced(self):
        with pytest.raises(ValidationError) as err:
            parse_config("kerr.spin = 1.5\n", "trap-find")
        assert err.value.key == "kerr.spin"
        with pytest.raises(ValidationError) as err:
            parse_config("kerr.spin = -0.1\n", "trap-find")
        assert err.value.key == "kerr.spin"
        with pytest.raises(ValidationError) as err:
            parse_config("kerr.mass = 0\n", "trap-find")
        assert err.value.key == "kerr.mass"

    def test_h_list_ordering_rule(self):
        cfg = parse_config("h_list = 0.1, 0.05, 0.025\n", "spectrum-gap")
        assert cfg.h_list == (0.1, 0.05, 0.025)
        with pytest.raises(ValidationError) as err:
            parse_config("h_list = 0.05, 0.1\n", "spectrum-gap")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("h_list = 0.1, 0.1\n", "spectrum-gap")
        assert err.value.key == "h_list"
        with pytest.raises(ValidationError) as err:
            parse_config("h_list = 0.1, -0.05\n", "spectrum-gap")
        assert err.value.key == "h_list"
        with pytest.raises(ParseError):
            parse_config("h_list =\n", "spectrum-gap")

    def test_a_list_subextremal(self):
        with pytest.raises(ValidationError) as err:
            parse_config("a_list = 0.0, 1.0\n", "trap-certify")
        assert err.value.key == "a_list"

    def test_command_required_and_valid(self):
        with pytest.raises(TypeError):
            parse_config("kerr.mass = 1.0\n")
        for text, command in (
            ("kerr.mass = 1.0\n", "make-coffee"),
            ("command = make-coffee\n", "make-coffee"),
            ("command = make-coffee\n", "trap-find"),
        ):
            with pytest.raises(ValidationError) as err:
                parse_config(text, command)
            assert err.value.key == "command"

    def test_command_argument(self):
        # the text may leave the command out, or name the same one
        cfg = parse_config("kerr.mass = 1.0\n", "trap-find")
        assert cfg.command == "trap-find"
        cfg = parse_config(MINIMAL, "trap-find")
        assert cfg.command == "trap-find"
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL, "perturb")
        assert err.value.key == "command"

    def test_misc_bounds(self):
        for text, key in (
            ("seed = -1", "seed"),
            ("workers = 0", "workers"),
            ("orbit.time = 0", "orbit.time"),
            ("epsilon = 0", "epsilon"),
            ("horizon = -5", "horizon"),
            ("window = -0.3", "window"),
            ("h = 0", "h"),
            ("model = cubic_well", "model"),
        ):
            with pytest.raises(ValidationError) as err:
                parse_config(f"{text}\n", "trap-find")
            assert err.value.key == key

    def test_all_commands_accepted(self):
        for command in COMMANDS:
            cfg = parse_config(f"command = {command}\n", command)
            assert cfg.command == command

    def test_config_is_frozen(self):
        cfg = parse_config(MINIMAL, "trap-find")
        with pytest.raises(AttributeError):
            cfg.seed = 5
        assert isinstance(cfg, RunConfig)


def test_fields_are_the_keys_with_dots_as_underscores():
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert fields == {key.replace(".", "_") for key in KNOWN_KEYS}


def _number(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


def _numbers(lo: float, hi: float, descending: bool = False):
    items = st.lists(st.floats(lo, hi), min_size=1, max_size=4, unique=True)
    if descending:
        items = items.map(lambda values: sorted(values, reverse=True))
    return items.map(lambda values: ", ".join(map(repr, values)))


# under each key, the text of values that pass validation; the spins stay
# below the smallest mass drawn
VALID_VALUES = {
    "command": st.just("spectrum-gap"),
    "kerr.mass": _number(0.5, 2.0),
    "kerr.spin": _number(0.0, 0.49),
    "model": st.sampled_from(MODEL_KINDS),
    "h": _number(1e-3, 1.0),
    "h_list": _numbers(1e-3, 1.0, descending=True),
    "beta_list": _numbers(-10.0, 10.0),
    "a_list": _numbers(0.0, 0.49),
    "window": _number(1e-3, 10.0),
    "lam": _number(-10.0, 10.0),
    "horizon": _number(1e-3, 1e3),
    "epsilon": _number(1e-6, 1.0),
    "orbit.r": _number(-10.0, 10.0),
    "orbit.theta": _number(-10.0, 10.0),
    "orbit.phi": _number(-10.0, 10.0),
    "orbit.xi": _number(-10.0, 10.0),
    "orbit.alpha": _number(-10.0, 10.0),
    "orbit.beta": _number(-10.0, 10.0),
    "orbit.time": _number(1e-3, 1e3) | _number(-1e3, -1e-3),
    "seed": st.integers(0, 2**63).map(str),
    "workers": st.integers(1, 64).map(str),
    "output_dir": st.text("abz09_-./", min_size=1),
}
FUZZ = settings(max_examples=100, deadline=None, database=None)


@FUZZ
@given(
    st.text()
    | st.lists(
        st.tuples(st.sampled_from([*KNOWN_KEYS, "bogus", "tol.bogus"]), st.text()),
        max_size=6,
    ).map(lambda pairs: "\n".join(f"{key} = {value}" for key, value in pairs))
)
def test_any_text_parses_or_is_a_config_error(text):
    try:
        cfg = parse_config(text, "spectrum-gap")
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@FUZZ
@given(st.fixed_dictionaries({}, optional=VALID_VALUES))
def test_each_key_sets_its_field(values):
    cfg = parse_config("".join(f"{key} = {text}\n" for key, text in values.items()),
                       "spectrum-gap")
    for key, text in values.items():
        assert getattr(cfg, key.replace(".", "_")) == KNOWN_KEYS[key](key, text)
