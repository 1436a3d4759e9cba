"""Spans and counters around the public functions of each nhtrap module.

The tracer is installed from the benchmark's own launcher (``child.py``)
inside one CLI process, before ``nhtrap.cli.main`` runs.  It replaces
module attributes with thin wrappers and changes no result: a traced and
an untraced run write byte-identical artifacts (``run.py`` checks this).

Spans are kept in memory as ``[name, start, end, parent]`` rows, where
``parent`` is the index of the enclosing span or -1; counters are plain
numbers keyed by metric name.  Both are written out once the command
ends.  Scalar hot paths (the Kerr symbol, model right-hand sides) get
counters only, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Functions whose calls are summed into ``kerr.symbol_calls``: every scalar
# evaluation of the Kerr symbol or of its derivatives.
KERR_SYMBOL_FUNCTIONS = ("grad_hess_raw", "hessian_p", "symbol_p", "conserved", "_grad_p")


def _distinct(values) -> int:
    """Eigenvalues that differ by more than the capspec duplicate tolerance."""
    ordered = sorted((complex(z) for z in values), key=lambda z: (z.real, z.imag))
    count = 0
    previous = None
    for z in ordered:
        if previous is None or abs(z - previous) >= 1e-9 * max(1.0, abs(z)):
            count += 1
        previous = z
    return count


class _ModuleProxy:
    """A module seen through a few replaced attributes.

    Installing the proxy as, for example, ``capspec.sla`` counts only the
    calls that capspec makes, and leaves scipy itself untouched.
    """

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _CountingLU:
    """Proxy around a ``splu`` factorization that counts triangular solves."""

    def __init__(self, lu, counters):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["capspec.lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counters for one CLI process."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, func, on_result=None):
        """Wrap ``func`` so each call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def count(self, name: str, func):
        """Wrap ``func`` so each call adds one to counter ``name``."""
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every instrumented attribute of the nhtrap modules."""
        from nhtrap import artifacts, capspec, cli, escape, flow, kerr, models, trapping

        self._install_capspec(capspec)
        self._install_trapping(trapping)
        self._install_flow(flow, cli)
        self._install_models(models, trapping)
        for name in KERR_SYMBOL_FUNCTIONS:
            setattr(kerr, name, self.count("kerr.symbol_calls", getattr(kerr, name)))
        self._install_escape(escape)

        def add_bytes(result, args, kwargs):
            self.counters["artifacts.bytes"] += len(args[1].encode("utf-8"))

        artifacts.write_atomic = self.span(
            "artifacts.write", artifacts.write_atomic, add_bytes
        )

    def _install_capspec(self, capspec) -> None:
        counters = self.counters

        def sized(name):
            def note(matrix):
                n = int(matrix.shape[0])
                counters[name] += 1
                counters["capspec.eig_max_n"] = max(counters["capspec.eig_max_n"], n)
                return n

            return note

        note_dense = sized("capspec.eig_dense_calls")
        note_arpack = sized("capspec.eig_arpack_calls")
        real_eig, real_eigs, real_splu = capspec.sla.eig, capspec.spla.eigs, capspec.spla.splu

        def eig(matrix, *args, **kwargs):
            n = note_dense(matrix)
            counters["capspec.eig_dense_bytes"] += 16 * n * n
            return real_eig(matrix, *args, **kwargs)

        def eigs(matrix, *args, **kwargs):
            note_arpack(matrix)
            return real_eigs(matrix, *args, **kwargs)

        def splu(*args, **kwargs):
            counters["capspec.lu_factorizations"] += 1
            return _CountingLU(real_splu(*args, **kwargs), counters)

        capspec.sla = _ModuleProxy(capspec.sla, eig=eig)
        capspec.spla = _ModuleProxy(capspec.spla, eigs=eigs, splu=splu)

        def returned(result, args, kwargs):
            zs = result[0]
            counters["capspec.eig_returned"] += len(zs)
            counters["capspec.eig_distinct"] += _distinct(zs)

        capspec.eigenvalues = self.span("capspec.eig", capspec.eigenvalues, returned)
        capspec.build_model = self.span("capspec.build", capspec.build_model)
        capspec._assemble = self.span("capspec.assemble", capspec._assemble)
        capspec.spectral_gap = self.span("capspec.spectral_gap", capspec.spectral_gap)

        resolvent = capspec.resolvent_norm
        default_max_iter = inspect.signature(resolvent).parameters["max_iter"].default
        timed_resolvent = self.span("capspec.resolvent", resolvent)

        @functools.wraps(resolvent)
        def resolvent_norm(*args, **kwargs):
            before = counters["capspec.lu_solves"]
            try:
                return timed_resolvent(*args, **kwargs)
            finally:
                iterations = (counters["capspec.lu_solves"] - before) / 2
                if iterations >= kwargs.get("max_iter", default_max_iter):
                    counters["capspec.resolvent_maxiter_hits"] += 1

        capspec.resolvent_norm = resolvent_norm

    def _install_trapping(self, trapping) -> None:
        counters = self.counters

        def add_nfev(result, args, kwargs):
            counters["trapping.rhs_evals"] += int(result.nfev)

        trapping.solve_ivp = self.span("trapping.ivp", trapping.solve_ivp, add_nfev)
        trapping.certify = self.span("trapping.certify", trapping.certify)
        trapping.linearization = self.span("trapping.linearization", trapping.linearization)
        trapping.equatorial_beta_range = self.span(
            "trapping.beta_range", trapping.equatorial_beta_range
        )
        trapping.perturb_and_recertify = self.span(
            "trapping.perturb", trapping.perturb_and_recertify
        )

    def _install_flow(self, flow, cli) -> None:
        counters = self.counters
        real_solve_ivp = flow.solve_ivp

        def solve_ivp(*args, **kwargs):
            result = real_solve_ivp(*args, **kwargs)
            counters["flow.rhs_evals"] += int(result.nfev)
            return result

        flow.solve_ivp = solve_ivp
        flow.integrate_flow = self.span("flow.integrate", flow.integrate_flow)
        # the CLI binds integrate_flow by name at import time
        cli.integrate_flow = flow.integrate_flow

    def _install_models(self, models, trapping) -> None:
        model_cls = models.HamiltonianModel
        model_cls.hamilton_rhs = self.count("models.hamilton_rhs_calls", model_cls.hamilton_rhs)
        model_cls.variational_matrix = self.count(
            "models.variational_calls", model_cls.variational_matrix
        )
        derivs = self.count("models.radial_derivs_calls", models.radial_potential_derivs)
        models.radial_potential_derivs = derivs
        # trapping imports radial_potential_derivs by name
        trapping.radial_potential_derivs = derivs

    def _install_escape(self, escape) -> None:
        counters = self.counters

        def add_points(result, args, kwargs):
            counters["escape.grid_points"] += len(result)

        escape.saddle_grid = self.span("escape.grid", escape.saddle_grid, add_points)
        for attr, name in (
            ("build_defining_pair", "escape.pair"),
            ("make_escape_spec", "escape.spec"),
            ("verify_defG_relations", "escape.verify"),
            ("commutator_lower_bound", "escape.commutator"),
            ("order_function_check", "escape.order"),
            ("escape_report", "escape.report"),
        ):
            setattr(escape, attr, self.span(name, getattr(escape, attr)))

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}
