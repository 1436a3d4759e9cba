"""Correctness gate for one nhtrap CLI run, read from its artifacts.

``check_run`` returns the list of problems it found; an empty list means
the run gave a valid result.  A run with problems counts as failed in the
benchmark's ``failed`` count.  A check the CLI itself reports as failed
(exit 1, entries in ``failures.json``) is a valid result: those entries
are counted separately as ``checks_failed``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RESIDUAL_MAX = 1e-8
DRIFT_MAX = 1e-9
NU_TOL = 1e-12
# rate_plus, rate_minus, normal_exponent at a = 0 against 6*sqrt(3)/M
RATE_RTOL = {"rate_plus": 1e-6, "rate_minus": 1e-6, "normal_exponent": 1e-10}
# every artifact float carries 12 significant digits
ARTIFACT_DIGITS = 12


def _last_digit(value: float) -> float:
    """One unit in the last printed digit of ``value``."""
    if value == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - (ARTIFACT_DIGITS - 1))


def _floats(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",")]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = csv.DictReader(handle)
        return [{key: float(value) for key, value in row.items()} for row in rows]


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_gaps(out: Path, h_values: list[float], problems: list[str]) -> None:
    rows = read_csv(out / "gaps.csv")
    if [row["h"] for row in rows] != h_values:
        problems.append(f"gaps.csv h column {[row['h'] for row in rows]} != {h_values}")
    for row in rows:
        h, gap, nu = row["h"], row["gap"], row["nu"]
        if not gap > 0.0:
            problems.append(f"gap {gap} at h={h} is not positive")
        # nu and gap are each rounded to the artifact's 12 digits
        tol = NU_TOL + 0.5 * _last_digit(nu) + 0.5 * _last_digit(gap) / h
        if not abs(nu - gap / h) <= tol:
            problems.append(f"nu {nu} != gap/h {gap / h} at h={h}")
    for row in read_csv(out / "eigenvalues.csv"):
        if not row["residual"] < RESIDUAL_MAX:
            problems.append(f"residual {row['residual']} at h={row['h']} >= {RESIDUAL_MAX}")
        if not row["im_z"] <= 0.0:
            problems.append(f"Im z = {row['im_z']} > 0 at h={row['h']}")


def _check_passed(cert: dict, label: str, problems: list[str]) -> None:
    if cert["passed"] is not True:
        problems.append(f"{label} verdict is FAIL: {cert['reasons']}")


def _check_static_rates(cert: dict, mass: float, problems: list[str]) -> None:
    expected = 6.0 * math.sqrt(3.0) / mass
    for sample in cert["beta_samples"]:
        for key, rtol in RATE_RTOL.items():
            if not abs(sample[key] - expected) <= rtol * expected:
                problems.append(
                    f"a=0 beta={sample['beta']}: {key} {sample[key]} != 6*sqrt(3)/M {expected}"
                )


def _check_artifacts(command, out: Path, problems: list[str]) -> None:
    mass = float(command.key("kerr.mass", "1"))
    name = command.name
    if name in ("spectrum-gap", "spectrum-resolvent"):
        h_values = _floats(command.key("h_list") or command.key("h", "0.05"))
        _check_gaps(out, h_values, problems)
    elif name == "trap-certify":
        doc = read_json(out / "certificate.json")
        spins = _floats(command.key("a_list", "0"))
        certs = doc["certificates"]
        if [c["spin"] for c in certs] != spins:
            problems.append(f"certificate spins {[c['spin'] for c in certs]} != {spins}")
        for cert in certs:
            _check_passed(cert, f"trap-certify a={cert['spin']}", problems)
            if cert["spin"] == 0.0:
                _check_static_rates(cert, mass, problems)
    elif name == "perturb":
        cert = read_json(out / "certificate.json")["certificate"]
        _check_passed(cert, "perturb recertify", problems)
    elif name == "flow-integrate":
        rows = read_csv(out / "orbit.csv")
        if len(rows) < 2:
            problems.append(f"orbit.csv has {len(rows)} rows")
        for column in ("p", "carter"):
            drift = max(abs(row[column] - rows[0][column]) for row in rows)
            if not drift <= DRIFT_MAX:
                problems.append(f"drift in {column} {drift} > {DRIFT_MAX}")
    elif name == "trap-find":
        entries = read_json(out / "certificate.json")["entries"]
        betas = _floats(command.key("beta_list", "0"))
        if [e["beta"] for e in entries] != betas:
            problems.append(f"trap-find betas {[e['beta'] for e in entries]} != {betas}")
    elif name == "escape-check":
        models = read_json(out / "escape_report.json")["models"]
        if sorted(models) != ["reduced_kerr", "toy"]:
            problems.append(f"escape_report models {sorted(models)}")


def check_run(command, rc, stderr: str, out: Path, setup_only: bool = False):
    """Return (problems, checks_failed) for one finished CLI process."""
    problems: list[str] = []
    if rc not in (0, 1):
        problems.append(f"exit code {rc}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        failures = read_json(out / "failures.json")["failures"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"failures.json unreadable: {exc!r}")
        return problems, 0
    if rc in (0, 1) and (rc == 1) != bool(failures):
        problems.append(f"exit code {rc} with {len(failures)} failures")
    if not setup_only and rc in (0, 1):
        try:
            _check_artifacts(command, out, problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"artifact unreadable: {exc!r}")
    return problems, len(failures)


def _masked_runtime(path: Path) -> bytes:
    """gaps.csv with its runtime_s column blanked; other files verbatim."""
    data = path.read_bytes()
    if path.name != "gaps.csv":
        return data
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    column = header.index("runtime_s")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[column] = ""
        masked.append(",".join(cells))
    return "\n".join(masked).encode("utf-8")


def compare_outputs(plain: Path, traced: Path) -> list[str]:
    """Problems if the two output directories differ beyond runtime_s."""
    names = sorted(p.name for p in plain.iterdir())
    other = sorted(p.name for p in traced.iterdir())
    if names != other:
        return [f"traced artifacts {other} != untraced {names}"]
    return [
        f"{name} differs between traced and untraced runs"
        for name in names
        if _masked_runtime(plain / name) != _masked_runtime(traced / name)
    ]


def check_runtime_spans(out: Path, spans: list) -> list[str]:
    """Cross-check gaps.csv runtime_s against the capspec.spectral_gap spans.

    ``runtime_s`` is measured inside ``spectral_gap``, so each span must
    cover it and exceed it by no more than the wrapper's own cost.
    """
    runtimes = [row["runtime_s"] for row in read_csv(out / "gaps.csv")]
    durations = [end - start for name, start, end, _ in spans if name == "capspec.spectral_gap"]
    if len(durations) != len(runtimes):
        return [f"{len(durations)} spectral_gap spans for {len(runtimes)} gaps.csv rows"]
    return [
        f"runtime_s {runtime} outside spectral_gap span {span}"
        for runtime, span in zip(runtimes, durations)
        if not (runtime - _last_digit(runtime) <= span <= runtime + 0.005 + 0.01 * runtime)
    ]
