"""Line-oriented run configuration: parsing, typed keys, validation."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
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

# accepted range of kerr.mass; past it the shell and escape arithmetic leaves the float range
MASS_RANGE = (1e-50, 1e50)

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
    "epsilon": _to_float,
    "orbit.r": _to_float,
    "orbit.theta": _to_float,
    "orbit.phi": _to_float,
    "orbit.xi": _to_float,
    "orbit.alpha": _to_float,
    "orbit.beta": _to_float,
    "orbit.time": _to_float,
    "seed": _to_int,
    "workers": _to_int,
    "output_dir": _to_path,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one orchestrated run.

    Each config key sets the field of its name, dots read as underscores
    (``kerr.mass`` sets ``kerr_mass``, ``orbit.r`` sets ``orbit_r``), and
    each field's default is the one below.  The defaults are the M = 1
    values; ``parse_config`` scales the mass-dependent ones the text leaves
    unset (see ``_scale_defaults``).
    """

    command: str
    kerr_mass: float = 1.0
    kerr_spin: float = 0.0
    model: str = "toy_sech2"
    h: float = 0.05
    h_list: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    beta_list: tuple[float, ...] = (0.0,)
    # the spins trap-certify certifies; unset, kerr.spin alone
    a_list: tuple[float, ...] = (0.0,)
    window: float = 0.3
    lam: float = 0.0
    # the longest theta-period trap-certify and perturb accept (a longer one
    # is an InvalidHorizon, exit 2; no certified number depends on it)
    horizon: float = 50.0
    epsilon: float = 0.01
    # flow-integrate's start: the equatorial photon circle r = 3, carter = 27
    orbit_r: float = 3.0
    orbit_theta: float = math.pi / 2.0
    orbit_phi: float = 0.0
    orbit_xi: float = 0.0
    orbit_alpha: float = 0.0
    orbit_beta: float = math.sqrt(27.0)
    orbit_time: float = 100.0
    seed: int = 0
    # read by no handler: every command runs its problems in order; the
    # benchmark launcher records the value each handler is given
    workers: int = 1
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
    _require_positive("h", cfg.h)
    _require_positive("window", cfg.window)
    _require_positive("horizon", cfg.horizon)
    _require_positive("epsilon", cfg.epsilon)
    for value in cfg.h_list:
        _require_positive("h_list", value)
    if any(later >= earlier for earlier, later in zip(cfg.h_list, cfg.h_list[1:])):
        raise ValidationError(
            f"must be strictly descending, got {list(cfg.h_list)!r}", key="h_list"
        )
    for value in cfg.a_list:
        if not 0.0 <= value < cfg.kerr_mass:
            raise ValidationError(
                f"every spin must satisfy 0 <= a < mass, got {value!r}", key="a_list"
            )
    if cfg.orbit_time == 0.0:
        raise ValidationError("must be nonzero", key="orbit.time")
    if cfg.seed < 0:
        raise ValidationError(
            f"must be nonnegative, got {cfg.seed!r}", key="seed"
        )
    if cfg.workers < 1:
        raise ValidationError(
            f"must be at least 1, got {cfg.workers!r}", key="workers"
        )


def parse_config(text: str, command: str) -> RunConfig:
    """Parse the 'key = value' lines of a run of ``command`` into a RunConfig.

    Each key sets the RunConfig field of its name, dots read as underscores;
    a field the text leaves unset keeps its default.  Unknown keys are hard
    errors and '#' starts a comment.  The text may name the command too, and
    then it must be ``command``.
    """
    fields: dict[str, object] = {}
    for key, value in _split_lines(text).items():
        converter = KNOWN_KEYS.get(key)
        if converter is None:
            raise ValidationError("unknown key", key=key)
        fields[key.replace(".", "_")] = converter(key, value)
    if fields.setdefault("command", _to_choice(COMMANDS)("command", command)) != command:
        raise ValidationError(
            f"config says {fields['command']!r} but the command line says {command!r}",
            key="command",
        )
    cfg = RunConfig(**fields)
    _validate(cfg)
    return _scale_defaults(cfg, fields)


def _scale_defaults(cfg: RunConfig, fields: dict) -> RunConfig:
    """The M = 1 defaults of the fields the text leaves unset, at the run's mass.

    Under (M, a, r, alpha, beta) -> s (M, a, r, alpha, beta), xi fixed, the
    symbol scales by s^2 and its flow's times by 1/s.  So the default
    orbit's r and beta scale like M, and the default horizon like 1/M.  The
    mass is validated first, so the quotient is finite and positive.  An
    unset a_list is the run's own spin.
    """
    mass = cfg.kerr_mass
    scaled = {
        "orbit_r": cfg.orbit_r * mass,
        "orbit_beta": cfg.orbit_beta * mass,
        "horizon": cfg.horizon / mass,
        "a_list": (cfg.kerr_spin,),
    }
    return replace(cfg, **{name: value for name, value in scaled.items() if name not in fields})
