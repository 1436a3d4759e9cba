"""Command-line orchestrator: one handler per command, checks, artifact emission.

``nhtrap COMMAND --config FILE`` is the whole command line: every
problem input, the seed and the output directory included, is set in the
config file and nowhere else.  Gates, tolerances, sample counts and the
spectrum window are not config keys but module constants, here, in
``trapping`` (``R_MAX``) and in ``capspec`` (``DEFAULT_WINDOW``).  Each
handler runs its problems one after another, in the order the config
lists them.  The two spectrum commands share one body, ``_spectrum``:
spectrum-gap runs it over ``h_list`` and spectrum-resolvent at its one
``h``, then proves the upper-half-plane resolvent bound on that
problem's matrix, so both write the same rows and apply the same
checks.  The ``workers`` key is still
accepted (at least 1) and each handler still takes ``(cfg, workers)``,
although no handler reads ``workers``: the benchmark launcher wraps the
handlers with that signature and records the ``workers`` each one was
given.  A thread pool over the problems gained nothing on 2 vCPUs, since
the shell-orbit RHS holds the GIL and the spectrum sweeps ran no faster
on two threads than on one.

Every command runs in its own process, so the imports at the top of this
module are paid by every run.  They stay light: numpy and the modules
that pull in no scipy (``config``, ``errors``, ``artifacts``).  Each
handler imports the numerical layer it runs as its first statement:
``capspec`` for the spectrum commands, ``escape``, ``kerr`` and
``models`` for escape-check (it certifies the barrier symbols of
``kerr.barrier`` that spectrum-gap measures), ``trapping`` for
trap-find, trap-certify and perturb, and ``flow``, ``kerr`` (the Carter
column) and ``models`` for flow-integrate.
Handlers call the layer through its module attributes.  Only the spectrum
commands load scipy (through ``capspec``): the other layers integrate and
find roots with ``ode``.  The one seeded number, perturb's bump, comes
from the stdlib ``random.Random(seed)``, which every process loads
anyway, so numpy.random is loaded by the spectrum commands alone,
through scipy.

``main`` registers ``gc.freeze`` to run at interpreter exit, once per
process.  CPython's final collections sweep the heap that numpy and
scipy leave, 30-76 ms per process on a 2-vCPU host; a frozen heap is
not traversed at all.  No output depends on that sweep: every artifact
is written, fsynced, closed and renamed before ``main`` returns, and no
command leaves a file open that only a collection would close.  The
freeze runs at exit only, so a caller of ``main`` in the same process
keeps an unfrozen, enabled collector.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import artifacts
from .config import COMMANDS, RunConfig, parse_config
from .errors import (
    ChartExit,
    ConfigError,
    DomainError,
    InvalidHorizon,
    NhtrapError,
    ValidationError,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

# errors below are caused by inputs, not by the numerics
_CONFIG_FAULTS = (ConfigError, DomainError, InvalidHorizon)

# perturb's gates: each certified saddle moves by at most
# PERTURB_DISPLACEMENT_MAX * epsilon and its normal exponent by at most
# PERTURB_EXPONENT_SHIFT_MAX, relative
PERTURB_DISPLACEMENT_MAX = 5.0
PERTURB_EXPONENT_SHIFT_MAX = 0.05
# spectrum-gap's gate on the relative change of nu over its last two h
NU_CONSISTENCY_MAX = 0.15
# flow-integrate's gate on the drift of p and of the Carter constant
DRIFT_MAX = 1e-9
# flow-integrate's sample times over [0, orbit.time], and the tol of its
# segments (see flow.step_tolerance)
ORBIT_SAMPLES = 201
FLOW_TOL = 1e-10


@dataclass
class Outcome:
    """Everything a command produces, before the single writer runs."""

    summaries: list = field(default_factory=list)
    csvs: dict = field(default_factory=dict)
    jsons: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _check_writable(directory: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=directory, prefix=".probe."):
            pass
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(
            f"not writable: {exc}", key="output_dir"
        ) from exc


def _cmd_trap_find(cfg: RunConfig, workers: int) -> Outcome:
    from . import trapping

    kerr = cfg.kerr
    charts = [trapping.linearization(beta, kerr) for beta in cfg.beta_list]
    out = Outcome()
    for chart in charts:
        out.summaries.append(
            f"r(beta)={chart.trapped_radius:.12g}, "
            f"exponent={chart.normal_exponent:.12g}"
        )
    out.jsons["certificate.json"] = {
        "command": "trap-find",
        "kerr": {"mass": kerr.mass, "spin": kerr.spin},
        "entries": [
            {
                "beta": chart.beta,
                "trapped_radius": chart.trapped_radius,
                "normal_exponent": chart.normal_exponent,
                "potential_curvature": chart.potential_curvature,
                "lin_matrix": chart.lin_matrix,
            }
            for chart in charts
        ],
    }
    return out


def _cmd_trap_certify(cfg: RunConfig, workers: int) -> Outcome:
    from . import trapping
    from .kerr import KerrParams

    out = Outcome()
    entries = []
    for spin in cfg.a_list:
        family = trapping.ReducedFamily(KerrParams(mass=cfg.kerr_mass, spin=spin))
        cert = trapping.certify(cfg.lam, family, horizon=cfg.horizon)
        out.summaries.append(
            f"trap-certify a={spin:g}: theta_rate={cert.theta_rate:.6g}, "
            f"tangential_degree={cert.tangential_degree}"
        )
        entry = trapping.certificate_to_dict(cert)
        entry["spin"] = spin
        entries.append(entry)
    out.jsons["certificate.json"] = {
        "command": "trap-certify",
        "mass": cfg.kerr_mass,
        "lambda": cfg.lam,
        "certificates": entries,
    }
    return out


def _cmd_escape_check(cfg: RunConfig, workers: int) -> Outcome:
    from . import escape, kerr, models

    out = Outcome()
    reports = {}
    # spectrum-gap's symbols, under the model names the benchmark checks
    for name, kind in (("toy", "toy_sech2"), ("reduced_kerr", "kerr_equatorial")):
        barrier = kerr.barrier(kind, cfg.kerr)
        model = models.barrier_model(barrier.terms, None)
        pair = escape.build_defining_pair(model, saddle_guess=(barrier.top, 0.0))
        spec = escape.make_escape_spec(pair, h=cfg.h)
        report = reports[name] = escape.escape_report(spec)
        out.summaries.append(
            f"escape-check {name}: c1={report['c1']:.6g}, "
            f"C={report['C']:.6g}, N={report['N']}, "
            f"violations={len(report['violations'])}, "
            f"bracket_min={report['bracket_min']:.6g}"
        )
        for check, bad in (
            ("c1_positive", not report["c1"] > 0.0),
            ("sign_violations", bool(report["violations"])),
            ("order_exponent", report["N"] > 4),
            ("bracket_positive", not report["bracket_min"] > 0.0),
            ("g1_monotone", not spec.G1.report["passed"]),
        ):
            if bad:
                out.failures.append(
                    {"check": check, "model": name, "report": report}
                )
    out.jsons["escape_report.json"] = {
        "command": "escape-check",
        "h": cfg.h,
        "models": reports,
    }
    return out


def _spectrum(cfg: RunConfig, h_values: tuple) -> tuple:
    """Both spectrum commands' body: per h, the problem, its spectrum
    report, its gaps.csv and eigenvalues.csv rows, a summary line and the
    ``gap_positive`` check; then ``nu_consistency`` over the last two h,
    when there are two.  Returns (outcome, the last h's problem, reports);
    each earlier problem, and its matrix, is freed once its report is in."""
    from . import capspec

    out = Outcome()
    reports, gap_rows, eig_rows = [], [], []
    for h in h_values:
        problem = capspec.build_model(cfg.model, cfg.kerr, h=h)
        report = capspec.spectral_gap(problem)
        reports.append(report)
        gap_rows.append(
            (report.h, report.gap, report.nu, report.norm_axis_z0, report.runtime_s,
             report.nu_ratio)
        )
        zs = report.eigenvalues
        eig_rows += [
            (report.h, *row)
            for row in zip(zs.real, zs.imag, report.residuals, report.conditions)
        ]
        out.summaries.append(
            f"{cfg.command} {cfg.model} h={report.h:g}: "
            f"gap={report.gap:.6g}, nu={report.nu:.6g}, "
            f"n={report.n_points}"
        )
        if not report.gap > 0.0:
            out.failures.append(
                {"check": "gap_positive", "h": report.h, "gap": report.gap}
            )
    if len(reports) >= 2:
        nu_prev, nu_last = reports[-2].nu, reports[-1].nu
        consistency = abs(nu_last - nu_prev) / abs(nu_prev)
        verdict = "PASS" if consistency <= NU_CONSISTENCY_MAX else "FAIL"
        out.summaries.append(
            f"{cfg.command} {cfg.model}: nu_floor="
            f"{min(r.nu for r in reports):.6g}, "
            f"consistency={consistency:.4g} ({verdict})"
        )
        if consistency > NU_CONSISTENCY_MAX:
            out.failures.append(
                {
                    "check": "nu_consistency",
                    "value": consistency,
                    "tolerance": NU_CONSISTENCY_MAX,
                }
            )
    out.csvs["gaps.csv"] = (artifacts.GAPS_HEADER, gap_rows)
    out.csvs["eigenvalues.csv"] = (artifacts.EIGENVALUES_HEADER, eig_rows)
    return out, problem, reports


def _cmd_spectrum_gap(cfg: RunConfig, workers: int) -> Outcome:
    return _spectrum(cfg, cfg.h_list)[0]


def _cmd_spectrum_resolvent(cfg: RunConfig, workers: int) -> Outcome:
    from . import capspec

    out, problem, (report,) = _spectrum(cfg, (cfg.h,))
    # a dissipative A has ||(A - z)^{-1}|| <= 1/Im z wherever Im z > 0
    off_diagonal, gain = capspec.dissipativity(problem.matrix)
    holds = off_diagonal == 0.0 and gain <= 0.0
    if not holds:
        out.failures.append(
            {"check": "upper_half_plane_bound", "off_diagonal": off_diagonal, "gain": gain}
        )
    out.summaries.append(
        f"spectrum-resolvent {cfg.model} h={cfg.h:g}: "
        f"norm_axis_z0={report.norm_axis_z0:.6g}, "
        f"uhp_bound={'holds' if holds else 'FAIL'}"
    )
    return out


def _cmd_flow_integrate(cfg: RunConfig, workers: int) -> Outcome:
    from . import flow, kerr, models

    params = cfg.kerr
    model = models.full_kerr_model(params)
    start = np.array(
        [cfg.orbit_r, cfg.orbit_theta, cfg.orbit_phi, cfg.orbit_xi, cfg.orbit_alpha, cfg.orbit_beta]
    )
    times = np.linspace(0.0, cfg.orbit_time, ORBIT_SAMPLES)

    def row_at(state, t: float):
        carter = kerr.carter(params, state[1], state[4], state[5])
        return (t, *state, model.evaluate(state), float(carter))

    # integrate_flow checks the chart before any row evaluates p
    states = [start]
    for t_prev, t_next in zip(times, times[1:]):
        try:
            states.append(
                flow.integrate_flow(model, states[-1], t_next - t_prev, tol=FLOW_TOL)
            )
        except ChartExit as exc:  # its exit time counts from t_prev
            t_exit = float(t_prev) + exc.exit_time
            raise ChartExit(f"orbit left the chart at t={t_exit}", t_exit)
    rows = [row_at(state, float(t)) for state, t in zip(states, times)]
    out = Outcome()
    drift = {
        name: max(abs(row[col] - rows[0][col]) for row in rows)
        for name, col in (("p", 7), ("carter", 8))
    }
    out.summaries.append(
        f"flow-integrate T={cfg.orbit_time:g}: "
        f"drift_p={drift['p']:.3e}, drift_carter={drift['carter']:.3e}"
    )
    for name, value in drift.items():
        if value > DRIFT_MAX:
            out.failures.append(
                {
                    "check": "conserved_drift",
                    "quantity": name,
                    "drift": value,
                    "tolerance": DRIFT_MAX,
                }
            )
    out.csvs["orbit.csv"] = (artifacts.ORBIT_HEADER, rows)
    return out


def _cmd_perturb(cfg: RunConfig, workers: int) -> Outcome:
    from . import trapping

    report = trapping.perturb_and_recertify(
        cfg.kerr, cfg.lam, cfg.epsilon, cfg.seed, horizon=cfg.horizon
    )
    out = Outcome()
    out.summaries.append(
        f"perturb eps={cfg.epsilon:g} seed={cfg.seed}: "
        f"displacement={report.displacement:.4g} "
        f"({report.displacement_factor:.3g} eps), "
        f"exponent_shift={report.exponent_shift:.4g}"
    )
    if report.displacement_factor > PERTURB_DISPLACEMENT_MAX:
        out.failures.append(
            {
                "check": "saddle_displacement",
                "factor": report.displacement_factor,
                "limit": PERTURB_DISPLACEMENT_MAX,
            }
        )
    if report.exponent_shift > PERTURB_EXPONENT_SHIFT_MAX:
        out.failures.append(
            {
                "check": "exponent_shift",
                "shift": report.exponent_shift,
                "limit": PERTURB_EXPONENT_SHIFT_MAX,
            }
        )
    out.jsons["certificate.json"] = {
        "command": "perturb",
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
        "displacement": report.displacement,
        "displacement_factor": report.displacement_factor,
        "exponent_shift": report.exponent_shift,
        "certificate": trapping.certificate_to_dict(report.certificate),
    }
    return out


_HANDLERS = {
    "trap-find": _cmd_trap_find,
    "trap-certify": _cmd_trap_certify,
    "escape-check": _cmd_escape_check,
    "spectrum-gap": _cmd_spectrum_gap,
    "spectrum-resolvent": _cmd_spectrum_resolvent,
    "flow-integrate": _cmd_flow_integrate,
    "perturb": _cmd_perturb,
}


def _write_outcome(directory: Path, outcome: Outcome) -> None:
    """Single writer: every artifact lands atomically from one place."""
    for name, (header, rows) in outcome.csvs.items():
        artifacts.write_csv(directory / name, header, rows)
    for name, payload in outcome.jsons.items():
        artifacts.write_json(directory / name, payload)
    artifacts.write_failures(directory, outcome.failures)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhtrap",
        description=(
            "Trapped-set certification and barrier spectrum workflows"
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--config", required=True, type=Path, help="run configuration file"
    )
    return parser


@cache
def _freeze_heap_at_exit() -> None:
    """Skip the final heap sweep at exit; cached, so registered once per process."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        cfg = parse_config(text, args.command)
        _check_writable(cfg.output_dir)
    except _CONFIG_FAULTS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        outcome = _HANDLERS[cfg.command](cfg, cfg.workers)
    except Exception as exc:  # exit 2 or 3 with a failures.json entry, no traceback
        failure = {"check": "run", "error": str(exc), "type": type(exc).__name__}
        code = EXIT_NUMERICAL_FAILURE
        if isinstance(exc, NhtrapError):  # its own fields: exit_time, shift, ...
            failure.update(vars(exc))
        if isinstance(exc, _CONFIG_FAULTS):
            print(f"config error: {exc}", file=sys.stderr)
            failure["check"], code = "config", EXIT_CONFIG_ERROR
        elif isinstance(exc, NhtrapError):
            print(f"numerical failure: {exc}", file=sys.stderr)
        else:
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            failure["traceback"] = traceback.format_exc()
        artifacts.write_failures(cfg.output_dir, [failure])
        return code

    _write_outcome(cfg.output_dir, outcome)
    for line in outcome.summaries:
        print(line)
    return EXIT_PASS if not outcome.failures else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
