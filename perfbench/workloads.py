"""The benchmark's workloads: fixed nhtrap CLI command lists.

Each workload is a closed loop: one pass runs its commands in order, each
waiting for the previous one to end.  Every config sets ``workers = 1``.
The workload seed is written only into the configs marked ``seeded``
(``spectrum-resolvent``, ``escape-check`` and ``perturb``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    name: str
    keys: tuple[tuple[str, str], ...]
    seeded: bool = False

    @property
    def slug(self) -> str:
        return self.name.replace("-", "_")

    def config_text(self, seed: int, output_dir: str) -> str:
        lines = [f"command = {self.name}", "workers = 1", f"output_dir = {output_dir}"]
        lines += [f"{key} = {value}" for key, value in self.keys]
        if self.seeded:
            lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def key(self, name: str, default: str | None = None) -> str | None:
        return dict(self.keys).get(name, default)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # per-layer metrics predicted non-zero in a traced pass; every other
    # per-layer metric is predicted zero (checked by tests/test_perfbench.py)
    nonzero: frozenset = field(default_factory=frozenset)
    # per-layer metric names whose sum must exceed half the traced pass wall
    dominant: tuple[str, ...] = ()


_CAPSPEC = frozenset(
    f"capspec.{name}"
    for name in (
        "eig_s", "eig_dense_calls", "eig_max_n", "eig_dense_bytes", "eig_returned",
        "eig_distinct_ratio", "resolvent_s", "resolvent_calls", "lu_factorizations",
        "lu_solves", "build_s", "build_calls", "assemble_s", "assemble_calls",
        "spectral_gap_s", "self_s",
    )
)
_TRAPPING = frozenset(
    f"trapping.{name}"
    for name in (
        "certify_s", "certify_calls", "ivp_s", "ivp_calls", "rhs_evals",
        "rhs_evals_per_s", "linearization_s", "beta_range_s", "perturb_setup_s",
        "self_s",
    )
)
_FLOW = frozenset(
    f"flow.{name}"
    for name in ("integrate_s", "integrate_calls", "rhs_evals", "rhs_evals_per_s", "self_s")
)
_ESCAPE = frozenset(
    f"escape.{name}"
    for name in (
        "pair_s", "spec_s", "verify_s", "commutator_s", "order_s", "grid_points", "self_s"
    )
)
_ALWAYS = frozenset(
    (
        "cli.handler_s", "cli.cpu_s", "cli.self_s", "artifacts.write_s", "artifacts.bytes",
        "artifacts.self_s", "process.setup_s", "trace.spans",
    )
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="cap_fine",
            why=(
                "large-n CAP spectra and resolvent norms: dense eig and LU power "
                "iteration dominate (capspec eigensolve and resolvent layers)"
            ),
            commands=(
                Command("spectrum-gap", (("model", "schw_radial"), ("h_list", "0.05, 0.025"))),
                Command(
                    "spectrum-resolvent", (("model", "toy_sech2"), ("h", "0.05")), seeded=True
                ),
            ),
            nonzero=_CAPSPEC | {"capspec.resolvent_maxiter_hits", "cli.checks_failed"} | _ALWAYS,
            dominant=("capspec.eig_s", "capspec.resolvent_s"),
        ),
        Workload(
            name="shell_certify",
            why=(
                "photon-shell propagation in scalar solve_ivp calls (trapping layer); "
                "never touches capspec"
            ),
            commands=(
                Command(
                    "trap-certify", (("a_list", "0, 0.9"), ("horizon", "20"))
                ),
                Command(
                    "perturb",
                    (("kerr.spin", "0.5"), ("horizon", "20"), ("epsilon", "0.01")),
                    seeded=True,
                ),
            ),
            nonzero=(
                _TRAPPING
                | {"models.radial_derivs_calls", "kerr.symbol_calls"}
                | _ALWAYS
            ),
            dominant=("trapping.ivp_s",),
        ),
        Workload(
            name="quick_survey",
            why=(
                "many small problems at spin 0.5: process set-up, escape, flow, "
                "kerr/models and small dense eigensolves"
            ),
            commands=(
                Command(
                    "trap-find", (("kerr.spin", "0.5"), ("beta_list", "-4, -2, -1, 1, 2, 4"))
                ),
                Command("escape-check", (("kerr.spin", "0.5"), ("h", "0.05")), seeded=True),
                Command(
                    "flow-integrate",
                    (
                        ("kerr.spin", "0.5"),
                        ("orbit.r", "8"),
                        ("orbit.theta", "1.2"),
                        ("orbit.phi", "0"),
                        ("orbit.xi", "-1.047452885827"),
                        ("orbit.alpha", "3.923213879343"),
                        ("orbit.beta", "4"),
                        ("orbit.time", "1.0"),
                    ),
                ),
                Command(
                    "spectrum-gap",
                    (
                        ("kerr.spin", "0.5"),
                        ("model", "kerr_equatorial"),
                        ("h_list", "0.1, 0.09, 0.08, 0.07, 0.06"),
                    ),
                ),
            ),
            nonzero=(
                _CAPSPEC
                | _FLOW
                | _ESCAPE
                | {
                    "trapping.linearization_s",
                    "trapping.self_s",
                    "models.hamilton_rhs_calls",
                    "models.radial_derivs_calls",
                    "kerr.symbol_calls",
                    "cli.checks_failed",
                }
                | _ALWAYS
            ),
            dominant=("process.setup_s", "escape.self_s", "flow.self_s", "capspec.self_s"),
        ),
    )
}
