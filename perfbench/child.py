"""Launcher for one nhtrap CLI process, started by ``run.py``.

Usage::

    python3 perfbench/child.py PROBE_JSON [--trace] [--setup-only] -- NHTRAP_ARGS...

It runs ``nhtrap.cli.main(NHTRAP_ARGS)`` unchanged, except that each
command handler is wrapped to note when it starts and with how many
workers.  With
``--trace`` the spans and counters of ``tracer.py`` are installed first;
with ``--setup-only`` the handler returns an empty outcome at once, so the
process measures interpreter start, ``import nhtrap.cli`` and config
parsing alone.  The notes go to PROBE_JSON when ``main`` returns, and the
process exits with ``main``'s exit code.  An exception escaping ``main``
still writes the probe, then propagates as a traceback.
"""

from __future__ import annotations

import json
import sys
import time


def _run(probe_path: str, trace: bool, setup_only: bool, argv: list[str]) -> int:
    from nhtrap import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {"module": cli.__file__}

    def timed(handler):
        if setup_only:
            handler = lambda cfg, workers: cli.Outcome()  # noqa: E731
        if tracer is not None:
            handler = tracer.span("cli.handler", handler)

        def run(cfg, workers):
            marks["handler_start"] = time.monotonic()
            marks["workers"] = workers
            return handler(cfg, workers)

        return run

    for name, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[name] = timed(handler)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            marks.update(tracer.dump())
        with open(probe_path, "w", encoding="utf-8") as handle:
            json.dump(marks, handle)


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    return _run(options[0], "--trace" in options, "--setup-only" in options, argv)


if __name__ == "__main__":
    sys.exit(main())
