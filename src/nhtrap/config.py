"""Line-oriented run configuration: parsing, typed keys, validation."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ParseError, ValidationError

COMMANDS = (
    "trap-find",
    "trap-certify",
    "escape-check",
    "spectrum-gap",
    "spectrum-resolvent",
    "flow-integrate",
    "perturb",
)

# CAP operator kinds that capspec.build_model accepts
MODEL_KINDS = ("toy_sech2", "schw_radial", "kerr_equatorial")

DEFAULT_TOLERANCES = {
    "flow": 1e-10,
    "drift": 1e-9,
    "consistency": 0.15,
}

# accepted range of tol.flow, the end-to-end tolerance of flow-integrate's
# integration; no other command reads it
FLOW_TOL_RANGE = (1e-13, 1e-6)
# accepted range of kerr.mass; past it the shell and escape arithmetic leaves the float range
MASS_RANGE = (1e-50, 1e50)

# equatorial photon circle of the static hole at M = 1: r = 3, carter = 27;
# an unset orbit.r or orbit.beta scales with kerr.mass (see parse_config)
DEFAULT_ORBIT = {
    "r": 3.0,
    "theta": math.pi / 2.0,
    "phi": 0.0,
    "xi": 0.0,
    "alpha": 0.0,
    "beta": math.sqrt(27.0),
}

# the longest theta-period trap-certify and perturb accept at M = 1 (a longer
# one is an InvalidHorizon, exit 2; no certified number depends on it);
# theta-periods scale like 1/M, and so does an unset horizon (see parse_config)
DEFAULT_HORIZON = 50.0

_KEY_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*")


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"expected a real number, got {text!r}", key=key)
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite real, got {text!r}", key=key)
    return value


def _to_int(key: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValidationError(f"expected an integer, got {text!r}", key=key)


def _to_float_list(key: str, text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise ValidationError(f"empty entry in list {text!r}", key=key)
    return tuple(_to_float(key, piece) for piece in items)


def _to_choice(options: tuple[str, ...]):
    def convert(key: str, text: str) -> str:
        if text not in options:
            allowed = ", ".join(options)
            raise ValidationError(
                f"unknown value {text!r}; expected one of: {allowed}", key=key
            )
        return text

    return convert


def _to_path(key: str, text: str) -> Path:
    return Path(text)


# key -> converter; the registry is the single source of accepted keys
KNOWN_KEYS = {
    "command": _to_choice(COMMANDS),
    "kerr.mass": _to_float,
    "kerr.spin": _to_float,
    "model": _to_choice(MODEL_KINDS),
    "h": _to_float,
    "h_list": _to_float_list,
    "beta_list": _to_float_list,
    "a_list": _to_float_list,
    "window": _to_float,
    "lam": _to_float,
    "horizon": _to_float,
    "r_max": _to_int,
    "epsilon": _to_float,
    "orbit.r": _to_float,
    "orbit.theta": _to_float,
    "orbit.phi": _to_float,
    "orbit.xi": _to_float,
    "orbit.alpha": _to_float,
    "orbit.beta": _to_float,
    "orbit.time": _to_float,
    "orbit.samples": _to_int,
    "tol.flow": _to_float,
    "tol.drift": _to_float,
    "tol.consistency": _to_float,
    "seed": _to_int,
    "workers": _to_int,
    "output_dir": _to_path,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one orchestrated run."""

    command: str
    kerr_mass: float = 1.0
    kerr_spin: float = 0.0
    model: str = "toy_sech2"
    h: float = 0.05
    h_list: tuple[float, ...] | None = None
    beta_list: tuple[float, ...] | None = None
    a_list: tuple[float, ...] | None = None
    window: float = 0.3
    lam: float = 0.0
    horizon: float = DEFAULT_HORIZON
    r_max: int = 4
    epsilon: float = 0.01
    orbit: dict = field(default_factory=lambda: dict(DEFAULT_ORBIT))
    orbit_time: float = 100.0
    orbit_samples: int = 201
    tolerances: dict = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES)
    )
    seed: int = 0
    workers: int | None = None
    output_dir: Path = Path("out")

    @property
    def kerr(self):
        from .kerr import KerrParams

        return KerrParams(mass=self.kerr_mass, spin=self.kerr_spin)


def _split_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(
                f"expected 'key = value', got {line!r}", line=number
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not _KEY_RE.fullmatch(key):
            raise ParseError(f"malformed key {key!r}", line=number)
        if not value:
            raise ParseError(f"empty value for key {key!r}", line=number)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=number)
        values[key] = value
    return values


def _require_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValidationError(f"must be positive, got {value!r}", key=name)


def _validate(cfg: RunConfig) -> None:
    lo, hi = MASS_RANGE
    if not lo <= cfg.kerr_mass <= hi:
        raise ValidationError(
            f"mass must lie in [{lo:g}, {hi:g}], got {cfg.kerr_mass!r}", key="kerr.mass"
        )
    if not 0.0 <= cfg.kerr_spin < cfg.kerr_mass:
        raise ValidationError(
            f"spin must satisfy 0 <= spin < mass, got {cfg.kerr_spin!r}",
            key="kerr.spin",
        )
    for name, value in cfg.tolerances.items():
        _require_positive(f"tol.{name}", value)
    lo, hi = FLOW_TOL_RANGE
    if not lo <= cfg.tolerances["flow"] <= hi:
        raise ValidationError(
            f"must lie in [{lo:g}, {hi:g}], got {cfg.tolerances['flow']!r}",
            key="tol.flow",
        )
    _require_positive("h", cfg.h)
    _require_positive("window", cfg.window)
    _require_positive("horizon", cfg.horizon)
    _require_positive("epsilon", cfg.epsilon)
    if cfg.r_max < 1:
        raise ValidationError(
            f"must be a positive integer, got {cfg.r_max!r}", key="r_max"
        )
    if cfg.h_list is not None:
        if not cfg.h_list:
            raise ValidationError("must be nonempty", key="h_list")
        for value in cfg.h_list:
            _require_positive("h_list", value)
        if any(
            later >= earlier
            for earlier, later in zip(cfg.h_list, cfg.h_list[1:])
        ):
            raise ValidationError(
                f"must be strictly descending, got {list(cfg.h_list)!r}",
                key="h_list",
            )
    if cfg.a_list is not None:
        for value in cfg.a_list:
            if not 0.0 <= value < cfg.kerr_mass:
                raise ValidationError(
                    f"every spin must satisfy 0 <= a < mass, got {value!r}",
                    key="a_list",
                )
    if cfg.orbit_time == 0.0:
        raise ValidationError("must be nonzero", key="orbit.time")
    if cfg.orbit_samples < 2:
        raise ValidationError(
            f"need at least 2 samples, got {cfg.orbit_samples!r}",
            key="orbit.samples",
        )
    if cfg.seed < 0:
        raise ValidationError(
            f"must be nonnegative, got {cfg.seed!r}", key="seed"
        )
    if cfg.workers is not None and cfg.workers < 1:
        raise ValidationError(
            f"must be at least 1, got {cfg.workers!r}", key="workers"
        )


def parse_config(
    text: str, fallback_command: str | None = None
) -> RunConfig:
    """Parse 'key = value' lines into a validated RunConfig.

    Unknown keys are hard errors; '#' starts a comment; dotted keys
    address nested fields (kerr.mass, tol.flow, orbit.r).  When the
    text omits ``command``, ``fallback_command`` fills it in; when both
    are present they must agree.
    """
    raw = _split_lines(text)
    typed: dict[str, object] = {}
    for key, text_value in raw.items():
        converter = KNOWN_KEYS.get(key)
        if converter is None:
            raise ValidationError("unknown key", key=key)
        typed[key] = converter(key, text_value)

    if "command" not in typed:
        if fallback_command is None:
            raise ValidationError("missing required key", key="command")
        typed["command"] = _to_choice(COMMANDS)("command", fallback_command)
    elif (
        fallback_command is not None
        and typed["command"] != fallback_command
    ):
        raise ValidationError(
            f"config says {typed['command']!r} but the command line says "
            f"{fallback_command!r}",
            key="command",
        )

    # tol.<name> and orbit.<coordinate> fill the two dicts; every other
    # key sets the RunConfig field of its name, dots read as underscores
    tolerances, orbit = dict(DEFAULT_TOLERANCES), dict(DEFAULT_ORBIT)
    fields: dict[str, object] = {}
    for key, value in typed.items():
        group, _, name = key.partition(".")
        if group == "tol":
            tolerances[name] = value
        elif group == "orbit" and name in DEFAULT_ORBIT:
            orbit[name] = value
        else:
            fields[key.replace(".", "_")] = value
    cfg = RunConfig(**fields, orbit=orbit, tolerances=tolerances)
    _validate(cfg)
    return _scale_defaults(cfg, typed)


def _scale_defaults(cfg: RunConfig, typed: dict) -> RunConfig:
    """The M = 1 defaults of the keys `typed` leaves unset, at the run's mass.

    Under (M, a, r, alpha, beta) -> s (M, a, r, alpha, beta), xi fixed, the
    symbol scales by s^2 and its flow's times by 1/s.  So the default
    orbit's r and beta scale like M, and the default horizon like 1/M.  The
    mass is validated first, so the quotient is finite and positive.
    """
    mass = cfg.kerr_mass
    orbit = dict(cfg.orbit)
    for name in ("r", "beta"):
        if f"orbit.{name}" not in typed:
            orbit[name] = DEFAULT_ORBIT[name] * mass
    horizon = cfg.horizon if "horizon" in typed else DEFAULT_HORIZON / mass
    return replace(cfg, orbit=orbit, horizon=horizon)
