"""End-to-end command-line tests: exit codes, artifacts, determinism."""

import atexit
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from nhtrap import capspec, cli

TRAP_FIND_LINE = "r(beta)=3.000000000000, exponent=10.392304845413"


def run_cli(tmp_path: Path, command: str, text: str, name: str = "run"):
    """Run ``command`` in process on ``text``, writing to tmp_path/name."""
    cfg = tmp_path / f"{name}.cfg"
    out = tmp_path / name
    cfg.write_text(f"{text}\noutput_dir = {out}\n")
    code = cli.main([command, "--config", str(cfg)])
    return code, out


def read_failures(out: Path):
    return json.loads((out / "failures.json").read_text())["failures"]


def last_digit(value: float) -> float:
    """One unit in the 12th significant digit, the precision of artifact floats."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def masked_gaps(out: Path):
    """gaps.csv lines with the wall-clock runtime column removed."""
    lines = (out / "gaps.csv").read_text().splitlines()
    return [
        ",".join(c for i, c in enumerate(line.split(",")) if i != 4)
        for line in lines
    ]


QUICK_ORBIT = (
    "kerr.spin = 0.5\norbit.r = 8\norbit.theta = 1.2\n"
    "orbit.xi = -1.047452885827\norbit.alpha = 3.923213879343\norbit.beta = 4\n"
)
# a photon orbit at r = 3 off the equator, over the default T = 100: r
# stays 3 in every row, but p and the Carter constant drift 3.161e-7
TILTED_PHOTON_ORBIT = "orbit.theta = 1.2\norbit.beta = 3\norbit.alpha = 4.079173202743033\n"
# a config of each command that runs in well under a second
CHEAP_RUNS = {
    "escape-check": "seed = 1\n",
    "spectrum-gap": "model = toy_sech2\nh_list = 0.1\n",
    "spectrum-resolvent": "model = toy_sech2\nh = 0.1\nseed = 3\n",
    "trap-find": "beta_list = 1\n",
    "trap-certify": "a_list = 0.5\nhorizon = 20\n",
    "perturb": "epsilon = 0.01\nhorizon = 20\n",
    "flow-integrate": QUICK_ORBIT + "orbit.time = 1.0\n",
}


class TestTrapFind:
    def test_static_hole_stdout_contract(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "trap-find", "kerr.mass = 1.0\nkerr.spin = 0.0\n"
        )
        assert code == 0
        assert capsys.readouterr().out == TRAP_FIND_LINE + "\n"
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["command"] == "trap-find"
        entry = payload["entries"][0]
        assert entry["trapped_radius"] == pytest.approx(3.0, abs=1e-10)
        assert read_failures(out) == []

    def test_beta_independence(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path, "trap-find", "beta_list = 0.0, 1.0, -2.0\n"
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [TRAP_FIND_LINE] * 3

    def test_far_counterrotating_sphere(self, tmp_path, capsys):
        # the maximum of v_beta lies beyond 8 M at this beta
        code, _ = run_cli(tmp_path, "trap-find", "kerr.spin = 0.9\nbeta_list = -100\n")
        assert code == 0
        assert capsys.readouterr().out == "r(beta)=9.444045743218, exponent=37.776182972873\n"

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "tf.cfg"
        cfg.write_text(f"command = trap-find\noutput_dir = {tmp_path / 'out'}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nhtrap.cli", "trap-find", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == TRAP_FIND_LINE + "\n"


# run in a fresh interpreter: import the CLI, run one command if given,
# and print the exit code and the loaded module names as the last line
_FOOTPRINT_PROBE = """
import json, sys
from nhtrap import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(sys.modules)]))
"""
# seeded draws come from the stdlib generator and one worker runs its jobs
# in line, so only the spectrum commands load these, through scipy
_SPECTRUM_ONLY = ("numpy.random", "concurrent.futures")
# the barrier symbols live in kerr, so the spectrum commands load neither
# the 2-D models nor the escape layer
_NOT_SPECTRUM = ("nhtrap.models", "nhtrap.escape")


@pytest.mark.parametrize(
    "command, text, absent, present",
    [
        (None, "", ("scipy", *_SPECTRUM_ONLY), ("nhtrap.cli",)),
        (
            "escape-check",
            CHEAP_RUNS["escape-check"],
            ("scipy", "nhtrap.ode", *_SPECTRUM_ONLY),
            ("nhtrap.escape",),
        ),
        (
            "spectrum-gap",
            CHEAP_RUNS["spectrum-gap"],
            ("scipy.optimize", "scipy.integrate", *_NOT_SPECTRUM),
            ("scipy.sparse.linalg",),
        ),
        (
            "spectrum-resolvent",
            CHEAP_RUNS["spectrum-resolvent"],
            ("scipy.optimize", "scipy.integrate", *_NOT_SPECTRUM),
            ("scipy.sparse.linalg",),
        ),
        (
            "trap-find",
            CHEAP_RUNS["trap-find"],
            ("scipy", *_SPECTRUM_ONLY),
            ("nhtrap.trapping", "nhtrap.ode"),
        ),
        (
            "trap-certify",
            CHEAP_RUNS["trap-certify"],
            ("scipy", *_SPECTRUM_ONLY),
            ("nhtrap.trapping", "nhtrap.ode"),
        ),
        (
            "perturb",
            CHEAP_RUNS["perturb"],
            ("scipy", *_SPECTRUM_ONLY),
            ("nhtrap.trapping", "nhtrap.ode"),
        ),
        (
            "flow-integrate",
            CHEAP_RUNS["flow-integrate"],
            ("scipy", *_SPECTRUM_ONLY),
            ("nhtrap.flow", "nhtrap.ode"),
        ),
    ],
    ids=[
        "import", "escape-check", "spectrum-gap", "spectrum-resolvent",
        "trap-find", "trap-certify", "perturb", "flow-integrate",
    ],
)
def test_import_footprint(tmp_path, command, text, absent, present):
    """Each command loads only the layer it runs; only the spectrum commands
    load scipy, and with it numpy.random and concurrent.futures."""
    argv = []
    if command is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{text}output_dir = {tmp_path / 'out'}\n")
        argv = [command, "--config", str(cfg)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    loaded = set(modules)
    assert set(present) <= loaded
    leaked = sorted(
        name
        for name in loaded
        for prefix in absent
        if name == prefix or name.startswith(prefix + ".")
    )
    assert leaked == []


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin.cfg"
        not_utf8.write_bytes(b"command = trap-find\n\xff\xfe\n")
        for cfg in (tmp_path / "absent.cfg", not_utf8):
            code = cli.main(["trap-find", "--config", str(cfg)])
            assert code == 2
            assert "config error" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        code, _ = run_cli(tmp_path, "trap-find", "warp_factor = 9\n")
        assert code == 2

    def test_command_mismatch(self, tmp_path):
        code, _ = run_cli(tmp_path, "perturb", "command = trap-find\n")
        assert code == 2

    def test_usage_error_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify", "--config", "x"])
        assert err.value.code == 2

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory\n")
        cfg = tmp_path / "c.cfg"
        for out in (blocker / "sub", tmp_path / "nul\x00byte"):
            cfg.write_text(f"command = trap-find\noutput_dir = {out}\n")
            code = cli.main(["trap-find", "--config", str(cfg)])
            assert code == 2
            assert "config error" in capsys.readouterr().err

    def test_handler_crash_exits_three(self, tmp_path, monkeypatch, capsys):
        def crash(cfg, workers):
            raise ValueError("boom")

        monkeypatch.setitem(cli._HANDLERS, "trap-find", crash)
        code, out = run_cli(tmp_path, "trap-find", "kerr.spin = 0.0\n")
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        failures = read_failures(out)
        assert len(failures) == 1
        assert failures[0]["type"] == "ValueError"
        assert failures[0]["error"] == "boom"
        assert "in crash" in failures[0]["traceback"]

    def test_package_error_fields_are_written(self, tmp_path, monkeypatch):
        # a package error's own fields join its failure entry; a complex
        # shift is written as its parts
        from nhtrap.errors import ConvergenceFailure

        def stuck(cfg, workers):
            raise ConvergenceFailure("stuck", shift=0.5 - 0.25j)

        monkeypatch.setitem(cli._HANDLERS, "trap-find", stuck)
        code, out = run_cli(tmp_path, "trap-find", "")
        assert code == 3
        assert read_failures(out) == [
            {"check": "run", "error": "stuck", "type": "ConvergenceFailure",
             "shift": {"re": 0.5, "im": -0.25}}
        ]

    @pytest.mark.parametrize("mass", ["1e100", "1e150", "1e-150"])
    def test_mass_outside_float_range_is_config_error(self, tmp_path, capsys, mass):
        # at these masses the shell and escape arithmetic overflows or
        # divides by an underflowed zero, so no command may start
        for command in cli._HANDLERS:
            code, out = run_cli(tmp_path, command, f"kerr.mass = {mass}\n", name=command)
            assert code == 2
            assert "kerr.mass" in capsys.readouterr().err
            assert not out.exists()


class TestWorkers:
    def test_default_is_one(self, tmp_path, monkeypatch):
        # the handler is given the config's workers, one unless the text sets it
        seen = []
        handler = cli._HANDLERS["trap-find"]

        def recording(cfg, workers):
            seen.append(workers)
            return handler(cfg, workers)

        monkeypatch.setitem(cli._HANDLERS, "trap-find", recording)
        for name, text in (("default", ""), ("two", "workers = 2\n")):
            code, _ = run_cli(tmp_path, "trap-find", text, name=name)
            assert code == 0
        assert seen == [1, 2]


# a cheap run of each command, and under each config key two values that
# give it different outputs; workers is the one documented no-op
KEY_BASES = {
    "trap-find": "beta_list = 0, 1\n",
    "trap-certify": "horizon = 20\n",
    "perturb": "horizon = 20\n",
    "escape-check": "",
    "spectrum-gap": "h_list = 0.1, 0.09\n",
    "spectrum-resolvent": "h = 0.1\n",
    "flow-integrate": QUICK_ORBIT + "orbit.time = 1.0\n",
}
KEY_VALUES = [
    ("command", "trap-find", "trap-find", "perturb"),  # exit 2: they disagree
    ("kerr.mass", "trap-find", "1", "2"),
    ("kerr.spin", "trap-find", "0", "0.5"),
    ("model", "spectrum-gap", "toy_sech2", "schw_radial"),
    ("h", "spectrum-resolvent", "0.1", "0.09"),
    ("h_list", "spectrum-gap", "0.1, 0.09", "0.1"),
    ("beta_list", "trap-find", "0, 1", "1"),
    ("a_list", "trap-certify", "0", "0.5"),
    ("window", "spectrum-gap", "0.3", "0.5"),
    ("lam", "trap-certify", "0", "30"),
    ("horizon", "trap-certify", "20", "0.5"),  # exit 2: shorter than a period
    ("epsilon", "perturb", "0.01", "0.02"),
    ("orbit.r", "flow-integrate", "8", "8.5"),
    ("orbit.theta", "flow-integrate", "1.2", "1.1"),
    ("orbit.phi", "flow-integrate", "0", "1"),
    ("orbit.xi", "flow-integrate", "-1.047452885827", "-1"),
    ("orbit.alpha", "flow-integrate", "3.923213879343", "3.8"),
    ("orbit.beta", "flow-integrate", "4", "3.9"),
    ("orbit.time", "flow-integrate", "1", "0.5"),
    ("seed", "perturb", "0", "1"),
    ("workers", "trap-find", "1", "2"),
    ("output_dir", "trap-find", "out", "elsewhere"),
]


def run_outcome(directory: Path, command: str, text: str, capsys, monkeypatch) -> tuple:
    """Exit code, stdout, stderr and every file a run from ``directory``
    writes there, gaps.csv without its wall-clock column."""
    directory.mkdir()
    cfg = directory.parent / f"{directory.name}.cfg"
    cfg.write_text(text)
    monkeypatch.chdir(directory)  # a relative output_dir lands here
    capsys.readouterr()
    code = cli.main([command, "--config", str(cfg)])
    files = {
        str(path.relative_to(directory)): (
            masked_gaps(path.parent) if path.name == "gaps.csv" else path.read_bytes()
        )
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }
    return code, *capsys.readouterr(), files


class TestEveryKeyActs:
    def test_table_covers_every_key(self):
        from nhtrap.config import KNOWN_KEYS

        keys = [key for key, *_ in KEY_VALUES]
        assert sorted(keys) == sorted(KNOWN_KEYS)

    @pytest.mark.parametrize(
        "key, command, first, second", KEY_VALUES, ids=[row[0] for row in KEY_VALUES]
    )
    def test_key_changes_the_outcome(self, tmp_path, monkeypatch, capsys, key, command,
                                     first, second):
        base = "".join(
            line for line in KEY_BASES[command].splitlines(keepends=True)
            if line.partition("=")[0].strip() != key
        )
        outcomes = [
            run_outcome(tmp_path / name, command, f"{base}{key} = {value}\n", capsys, monkeypatch)
            for name, value in (("first", first), ("second", second))
        ]
        assert outcomes[0][0] == 0, outcomes[0][2]
        if key == "workers":
            assert outcomes[0] == outcomes[1]
        else:
            assert outcomes[0] != outcomes[1]


class TestFlowIntegrate:
    def test_orbit_csv_schema_and_conservation(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "flow-integrate",
            "orbit.time = 10\n",
        )
        assert code == 0
        lines = (out / "orbit.csv").read_text().splitlines()
        assert lines[0] == "t,r,theta,phi,xi,alpha,beta,p,carter"
        assert len(lines) == 1 + cli.ORBIT_SAMPLES
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == pytest.approx(3.0, abs=1e-12)
        assert float(last[1]) == pytest.approx(3.0, abs=1e-9)
        assert float(last[8]) == pytest.approx(27.0, abs=1e-9)
        assert read_failures(out) == []

    @pytest.mark.parametrize("time", ["1", "-0.05"])
    def test_beta_column_is_bit_constant(self, tmp_path, capsys, time):
        # beta' = -p_phi and the Kerr gradient's phi slot is 0.0, so every
        # step adds +-0.0 to beta: a drift in it could never fail, and the
        # summary reads only the conserved quantities that can drift
        code, out = run_cli(tmp_path, "flow-integrate", QUICK_ORBIT + f"orbit.time = {time}\n")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((out / "orbit.csv").read_text())))
        assert len(rows) == 201
        assert {row["beta"] for row in rows} == {"4"}
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"flow-integrate T={time}: drift_p=")
        assert "drift_beta" not in line and ", drift_carter=" in line

    def test_identical_runs_are_byte_identical(self, tmp_path):
        text = "orbit.time = 5\n"
        _, out1 = run_cli(tmp_path, "flow-integrate", text, name="a")
        _, out2 = run_cli(tmp_path, "flow-integrate", text, name="b")
        assert (out1 / "orbit.csv").read_bytes() == (
            out2 / "orbit.csv"
        ).read_bytes()

    def test_chart_exit_is_numerical_failure(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "flow-integrate",
            "orbit.r = 3.2\norbit.xi = 0.3\norbit.time = 2\n",
        )
        assert code == 3
        failures = read_failures(out)
        assert failures and failures[0]["type"] == "ChartExit"
        assert not (out / "orbit.csv").exists()

    def test_chart_scales_with_mass(self, tmp_path, capsys):
        # the photon circle r = 3M, beta = sqrt(27) M lies inside the chart
        # at M = 100 too, where r passes the M = 1 chart's outer radius
        code, out = run_cli(
            tmp_path,
            "flow-integrate",
            f"kerr.mass = 100\norbit.r = 300\norbit.beta = {100.0 * math.sqrt(27.0)!r}\n"
            "orbit.time = 0.01\n",
        )
        assert code == 0
        rows = (out / "orbit.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"300"}
        assert read_failures(out) == []

    def test_chart_exit_time_counts_from_the_orbit_start(self, tmp_path, capsys):
        # the orbit leaves the chart in the 12th sampling interval; its exit
        # time is the one a single run of the whole orbit gives
        from nhtrap import flow, models
        from nhtrap.errors import ChartExit
        from nhtrap.kerr import KerrParams

        code, out = run_cli(
            tmp_path,
            "flow-integrate",
            "kerr.spin = 0.7\norbit.r = 6\norbit.theta = 1.0\norbit.xi = 0.3\n"
            "orbit.alpha = 2\norbit.beta = 3\norbit.time = -3\n",
        )
        assert code == 3
        failures = read_failures(out)
        assert failures[0]["type"] == "ChartExit"
        prefix = "orbit left the chart at t="
        assert failures[0]["error"].startswith(prefix)
        reported = float(failures[0]["error"][len(prefix):])
        assert failures[0]["exit_time"] == float(f"{reported:.12g}")
        assert f"at t={reported!r}" in capsys.readouterr().err
        model = models.full_kerr_model(KerrParams(1.0, 0.7))
        start = [6.0, 1.0, 0.0, 0.3, 2.0, 3.0]
        with pytest.raises(ChartExit) as one_run:
            flow.integrate_flow(model, start, -3.0, tol=1e-10)
        assert -0.17 < one_run.value.exit_time < -0.165
        assert reported == pytest.approx(one_run.value.exit_time, abs=1e-6)

    def test_overflowing_field_is_numerical_failure(self, tmp_path):
        # the field overflows at the start, so the first step size is NaN;
        # a fresh interpreter with a timeout fails the test instead of hanging
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"orbit.beta = 1e300\noutput_dir = {tmp_path / 'out'}\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "nhtrap.cli", "flow-integrate", "--config", str(cfg)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 3
        assert "StepFailure" in (tmp_path / "out" / "failures.json").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", ["orbit.theta = 0", "orbit.r = 2.0000001"])
    def test_start_outside_chart_is_config_error(self, tmp_path, key):
        code, out = run_cli(
            tmp_path, "flow-integrate", f"{key}\norbit.time = 2\n"
        )
        assert code == 2
        assert not (out / "orbit.csv").exists()
        # a fault raised inside the handler leaves a structured failure
        (failure,) = read_failures(out)
        assert failure["check"] == "config"
        assert failure["type"] == "DomainError"
        assert "outside the chart" in failure["error"]


class TestSpectrumGap:
    def test_sweep_artifacts_and_exit(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "spectrum-gap",
            "model = toy_sech2\nh_list = 0.1, 0.05\n",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "nu_floor=" in stdout and "(PASS)" in stdout
        gaps = (out / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "h,gap,nu,norm_axis_z0,runtime_s,nu_ratio"
        assert len(gaps) == 3
        for line in gaps[1:]:
            h, gap, nu, norm_z0, _, nu_ratio = (float(c) for c in line.split(","))
            assert gap > 0.0 and norm_z0 > 0.0
            assert nu > 0.9  # the toy's barrier-top string has nu -> 1
            # nu and gap are each rounded to 12 significant digits
            tol = 0.5 * last_digit(nu) + 0.5 * last_digit(gap) / h
            assert abs(nu - gap / h) <= tol + 1e-15 * nu
            half_mu = 0.5 * capspec.build_model("toy_sech2", h=h).exponent
            tol = 0.5 * last_digit(nu_ratio) + 0.5 * last_digit(nu) / half_mu
            assert abs(nu_ratio - nu / half_mu) <= tol + 1e-15 * nu_ratio
            if h == 0.05:
                assert abs(nu_ratio - 1.0) < 0.15
        eigs = (out / "eigenvalues.csv").read_text().splitlines()
        assert eigs[0] == "h,re_z,im_z,residual,condition"
        assert all(float(line.split(",")[3]) < 1e-8 for line in eigs[1:])
        assert all(float(line.split(",")[4]) >= 1.0 for line in eigs[1:])
        assert read_failures(out) == []
        assert not list(out.glob("*.tmp"))

    def test_empty_window_is_numerical_failure(self, tmp_path, capsys):
        # no toy eigenvalue has |Re z| < 0.001: the search deepens to the
        # bottom of the numerical range and gives up
        code, out = run_cli(
            tmp_path, "spectrum-gap", "model = toy_sech2\nh_list = 0.1\nwindow = 0.001\n"
        )
        assert code == 3
        assert read_failures(out) == [
            {"check": "run", "error": "no window eigenvalue below the axis",
             "type": "ConvergenceFailure", "shift": None}
        ]

    def test_consistency_gate_drives_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "NU_CONSISTENCY_MAX", 1e-6)
        code, out = run_cli(
            tmp_path, "spectrum-gap", "model = toy_sech2\nh_list = 0.1, 0.05\n"
        )
        assert code == 1
        failures = read_failures(out)
        assert failures[0]["check"] == "nu_consistency"

    def test_window_sets_grid(self, tmp_path, capsys):
        # the wavelength rule resolves the searched window out to its edge
        points = []
        for name, extra in (("narrow", ""), ("wide", "window = 1\n")):
            code, _ = run_cli(
                tmp_path, "spectrum-gap", "h_list = 0.1\n" + extra, name=name
            )
            assert code == 0
            points.append(int(capsys.readouterr().out.split("n=")[1].split()[0]))
        assert points[1] > points[0]

    def test_extremal_spin_is_config_error(self, tmp_path, capsys):
        # at the last double below M = 1, Delta(r*) rounds to exactly 0;
        # escape-check reads the same prograde barrier from kerr.barrier
        for command, text, artifact in (
            ("spectrum-gap", "model = kerr_equatorial\n", "gaps.csv"),
            ("escape-check", "", "escape_report.json"),
        ):
            code, out = run_cli(
                tmp_path, command, text + "kerr.spin = 0.9999999999999999\n",
                name=command,
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "Delta vanishes" in err and "internal error" not in err
            assert not (out / artifact).exists()
            (failure,) = read_failures(out)
            assert failure["check"] == "config"
            assert failure["type"] == "DomainError"
            assert "traceback" not in failure


@pytest.mark.parametrize(
    "command, text, problems",
    [
        ("spectrum-resolvent", "model = toy_sech2\nh = 0.1\nseed = 3\n", 1),
        ("spectrum-gap", "model = toy_sech2\nh_list = 0.1, 0.05\n", 2),
    ],
    ids=["spectrum-resolvent", "spectrum-gap"],
)
def test_one_assembly_per_problem(tmp_path, monkeypatch, command, text, problems):
    calls = []
    assemble = capspec._assemble

    def counting(problem):
        calls.append(problem.h)
        return assemble(problem)

    monkeypatch.setattr(capspec, "_assemble", counting)
    code, _ = run_cli(tmp_path, command, text)
    assert code == 0
    assert len(calls) == problems


class TestSpectrumResolvent:
    def test_upper_half_plane_bound_holds(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "spectrum-resolvent",
            "model = toy_sech2\nh = 0.1\nseed = 3\n",
        )
        assert code == 0
        assert "uhp_bound=holds" in capsys.readouterr().out
        gaps = (out / "gaps.csv").read_text().splitlines()
        assert len(gaps) == 2
        assert read_failures(out) == []

    def test_flipped_absorber_fails_the_bound(self, tmp_path, monkeypatch, capsys):
        # conj(A) = S + iW is not dissipative.  Its eigenvalues sit above the
        # axis, where the box search refuses them, so the gap report comes
        # from the dissipative problem and only the bound check sees conj(A)
        report = capspec.spectral_gap(capspec.build_model("toy_sech2", h=0.1))
        assemble = capspec._assemble
        monkeypatch.setattr(capspec, "_assemble", lambda p: assemble(p).conj().tocsc())
        monkeypatch.setattr(capspec, "spectral_gap", lambda p: report)
        code, out = run_cli(tmp_path, "spectrum-resolvent", "model = toy_sech2\nh = 0.1\n")
        assert code == 1
        assert "uhp_bound=FAIL" in capsys.readouterr().out
        assert read_failures(out) == [
            {"check": "upper_half_plane_bound", "off_diagonal": 0.0, "gain": 1.0}
        ]

    def test_seed_is_not_read(self, tmp_path, monkeypatch, capsys):
        outcomes = [
            run_outcome(
                tmp_path / f"seed{seed}", "spectrum-resolvent",
                f"model = toy_sech2\nh = 0.1\nseed = {seed}\n", capsys, monkeypatch,
            )
            for seed in (1, 2)
        ]
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]


class TestEscapeCheck:
    def test_both_models_reported(self, tmp_path):
        code, out = run_cli(tmp_path, "escape-check", "seed = 1\n")
        assert code == 0
        payload = json.loads((out / "escape_report.json").read_text())
        models = payload["models"]
        assert set(models) == {"toy", "reduced_kerr"}
        assert models["toy"]["c1"] == pytest.approx(4.0, abs=1e-10)
        assert models["toy"]["violations"] == []
        assert models["reduced_kerr"]["c1"] > 0.0
        assert models["reduced_kerr"]["N"] <= 4
        assert read_failures(out) == []

    def test_tiny_h_keeps_c1_finite(self, tmp_path):
        # at the saddle w = sqrt(h / htilde), whose cube underflows below
        # h = 1e-250; c1 must stay finite, since strict JSON holds no NaN
        c1 = []
        for h in ("1e-150", "1e-300"):
            code, out = run_cli(tmp_path, "escape-check", f"h = {h}\n", name=h)
            assert code == 0
            text = (out / "escape_report.json").read_text()
            assert "NaN" not in text
            c1.append({name: m["c1"] for name, m in json.loads(text)["models"].items()})
        assert c1[0] == c1[1]
        assert c1[1]["toy"] == pytest.approx(4.0, abs=1e-10)

    def test_failing_g1_verdict_is_a_check_failure(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from nhtrap import escape

        code, passing = run_cli(tmp_path, "escape-check", "seed = 1\n", name="passing")
        assert code == 0
        build_G1 = escape.build_G1

        def failing(pair):
            g1 = build_G1(pair)
            return replace(g1, report={**g1.report, "passed": False})

        monkeypatch.setattr(escape, "build_G1", failing)
        code, out = run_cli(tmp_path, "escape-check", "seed = 1\n", name="failing")
        assert code == 1
        failures = read_failures(out)
        assert [(f["check"], f["model"]) for f in failures] == [
            ("g1_monotone", "toy"),
            ("g1_monotone", "reduced_kerr"),
        ]
        # the verdict is checked, not reported: the report is unchanged
        assert (out / "escape_report.json").read_bytes() == (
            passing / "escape_report.json"
        ).read_bytes()


class TestCertifyAndPerturb:
    def test_trap_certify_short_horizon(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "trap-certify", "horizon = 5\na_list = 0.0\n"
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("trap-certify a=0: theta_rate=10.3923, ")
        payload = json.loads((out / "certificate.json").read_text())
        cert = payload["certificates"][0]
        assert cert["passed"] is True
        assert cert["spin"] == 0.0
        rates = [s["normal_exponent"] for s in cert["beta_samples"]]
        assert min(rates) > 0.0

    def test_trap_certify_default_horizon(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "trap-certify", "kerr.spin = 0.5\n")
        assert code == 0
        assert capsys.readouterr().out == (
            "trap-certify a=0.5: theta_rate=8.32788, tangential_degree=1\n"
        )
        cert = json.loads((out / "certificate.json").read_text())["certificates"][0]
        assert cert["passed"] is True
        assert cert["tangential_degree"] == 1
        assert cert["theta0"] == pytest.approx(0.9 * cert["theta_rate"], rel=1e-11)
        assert [row["r"] for row in cert["ratio_checks"]] == [1, 2, 3, 4]

    def test_trap_certify_large_lambda(self, tmp_path, capsys):
        # at a = 0 the equatorial beta range is +-sqrt(27 + lambda) = +-sqrt(57),
        # and the outermost samples sit 5% of its width inside it
        code, out = run_cli(tmp_path, "trap-certify", "lam = 30\n")
        assert code == 0
        assert capsys.readouterr().out.startswith("trap-certify a=0: theta_rate=")
        samples = json.loads((out / "certificate.json").read_text())["certificates"][0][
            "beta_samples"
        ]
        edge = 0.9 * math.sqrt(57.0)
        assert samples[0]["beta"] == pytest.approx(-edge, abs=last_digit(edge))
        assert samples[-1]["beta"] == pytest.approx(edge, abs=last_digit(edge))

    def test_too_short_horizon_is_config_error(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, "trap-certify", "horizon = 0.1\na_list = 0.0\n"
        )
        assert code == 2
        assert "too short" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_overflowing_ratio_bound_is_config_error(self, tmp_path, capsys, monkeypatch):
        from nhtrap import trapping

        monkeypatch.setattr(trapping, "R_MAX", 90)
        code, out = run_cli(tmp_path, "trap-certify", "kerr.spin = 0.9\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "r = 85" in err
        assert "internal error" not in err
        assert not (out / "certificate.json").exists()
        (failure,) = read_failures(out)
        assert failure["check"] == "config"
        assert failure["type"] == "DomainError"
        assert "r = 85" in failure["error"]

    def test_perturb_short_horizon(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            "perturb",
            "horizon = 5\nepsilon = 0.01\nseed = 2\n",
        )
        assert code == 0
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["epsilon"] == 0.01
        assert payload["displacement_factor"] <= 5.0
        assert payload["exponent_shift"] <= 0.05
        assert payload["certificate"]["passed"] is True

    def test_small_mass_runs(self, tmp_path, capsys):
        # the degree test reads a dimensionless shear and the perturbing bump
        # scales with M, so small holes certify and perturb as M = 1 does
        # (same perturb line)
        code, _ = run_cli(
            tmp_path, "trap-certify",
            "kerr.mass = 1e-8\nkerr.spin = 5e-9\nhorizon = 1e10\n", name="certify",
        )
        assert code == 0
        code, _ = run_cli(tmp_path, "perturb", "kerr.mass = 0.1\nkerr.spin = 0.05\n",
                          name="perturb")
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "trap-certify a=5e-09: theta_rate=8.32788e-08, tangential_degree=1",
            "perturb eps=0.01 seed=0: displacement=0.004937 (0.494 eps), exponent_shift=0.02607",
        ]

    @pytest.mark.parametrize("mass", ["1e50", "1e-50"])
    def test_mass_alone_runs(self, tmp_path, capsys, mass):
        # with only kerr.mass set, the default orbit lies in the chart and the
        # default horizon holds a theta-period at both ends of the mass range;
        # a = 0 has no twist, so both certificates read degree 0 (M = 1e50
        # once read 1 from a frame that weighed p_theta at fl(pi/2))
        for command in ("trap-certify", "perturb"):
            code, out = run_cli(tmp_path, command, f"kerr.mass = {mass}\n", name=command)
            assert code in (0, 1), capsys.readouterr().err
            payload = json.loads((out / "certificate.json").read_text())
            (cert,) = payload.get("certificates", [payload.get("certificate")])
            assert cert["passed"] is True
            assert cert["tangential_degree"] == 0
            assert [s["tangential_degree"] for s in cert["beta_samples"]] == [0] * 6
        code, out = run_cli(tmp_path, "flow-integrate", f"kerr.mass = {mass}\n", name="flow")
        err = capsys.readouterr().err
        assert "outside the chart" not in err
        if mass == "1e-50":
            assert code == 0
            assert read_failures(out) == []
        else:
            # the rounded start lies off the unstable photon circle, and
            # orbit.time = 100 is 1e52 in units of M, so the orbit leaves the
            # chart near M t = 3.55; at M = 1 the start is exact in floats
            # and the orbit stays
            assert code == 3
            (failure,) = read_failures(out)
            assert failure["type"] == "ChartExit"

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_shell_recertifies_across_seeds(self, tmp_path, seed):
        # r-normal hyperbolicity survives each seeded bump of size 0.01: the
        # certificate is made (no exit 2 or 3), and only perturb's own gates
        # may fail (exit 1)
        code, out = run_cli(
            tmp_path, "perturb", f"kerr.spin = 0.5\nepsilon = 0.01\nhorizon = 20\nseed = {seed}\n"
        )
        assert code in (0, 1)
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["seed"] == seed
        assert payload["certificate"]["tangential_degree"] == 1
        checks = {f["check"] for f in read_failures(out)}
        assert checks <= {"saddle_displacement", "exponent_shift"}
        assert (code == 1) == bool(checks)

    @pytest.mark.parametrize(
        "key, command",
        [
            ("tol.flow", "flow-integrate"),
            ("tol.drift", "flow-integrate"),
            ("orbit.samples", "flow-integrate"),
            ("tol.consistency", "spectrum-gap"),
            ("r_max", "trap-certify"),
        ],
    )
    def test_numerics_keys_are_unknown(self, tmp_path, capsys, key, command):
        # gates, tolerances and sample counts are module constants, not
        # keys: a config that sets one is rejected before anything is written
        code, out = run_cli(tmp_path, command, f"{key} = 1\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: {key}: unknown key\n"
        assert not out.exists()

    def test_tiny_spin_reads_its_twist(self, tmp_path, capsys):
        # a = 1e-6 M shears by 2e-7 or more, which a threshold of 3.2e-7
        # once read as degree 0; the shear is now read against rounding
        code, out = run_cli(tmp_path, "trap-certify", "a_list = 0, 1e-6\n")
        assert code == 0
        certs = json.loads((out / "certificate.json").read_text())["certificates"]
        assert [c["tangential_degree"] for c in certs] == [0, 1]
        assert [s["tangential_degree"] for s in certs[1]["beta_samples"]] == [1] * 6
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("tangential_degree=0")
        assert lines[1].endswith("tangential_degree=1")

    @pytest.mark.parametrize(
        "command, text",
        [("trap-certify", "a_list = 0, 0.9\n"), ("perturb", "kerr.spin = 0.9\nepsilon = 0.01\n")],
    )
    def test_shell_certificate_integrates_nothing(self, tmp_path, monkeypatch, command, text):
        # the shell orbits are closed forms: with every solve_ivp binding
        # made to raise, the command still certifies
        from nhtrap import flow, ode, trapping

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        for module in (ode, trapping, flow):
            monkeypatch.setattr(module, "solve_ivp", forbidden)
        code, out = run_cli(tmp_path, command, text)
        assert code == 0
        assert (out / "certificate.json").exists()


def parse_artifacts(out: Path) -> dict:
    """Every file of a run's output directory, parsed: JSON to objects,
    CSV to rows.  A leftover temp file or any other name fails."""
    parsed = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            parsed[path.name] = json.loads(text)
        else:
            assert path.suffix == ".csv", path.name
            rows = list(csv.reader(io.StringIO(text)))
            assert len({len(row) for row in rows}) == 1, path.name
            parsed[path.name] = rows
    return parsed


class TestExitHook:
    """``main`` freezes the heap at interpreter exit and never before."""

    @pytest.mark.parametrize(
        "command, text, code",
        [
            ("trap-find", CHEAP_RUNS["trap-find"], 0),
            ("flow-integrate", TILTED_PHOTON_ORBIT, 1),
            ("trap-find", "warp_factor = 9\n", 2),
            ("flow-integrate", "orbit.theta = 0\norbit.time = 2\n", 2),
            # compare_runs.py's flow_chart_exit: leaves the chart at t = 1.2757
            ("flow-integrate", QUICK_ORBIT + "orbit.time = 30\n", 3),
        ],
        ids=["pass", "check-failure", "config-parse", "config-in-handler", "chart-exit"],
    )
    def test_exit_paths_in_a_fresh_interpreter(self, tmp_path, capsys, command, text, code):
        # the process's outputs are those of the same run made in process,
        # where the hook has not run, and every artifact it leaves parses
        expected_code, expected_out = run_cli(tmp_path, command, text, name="inproc")
        expected = capsys.readouterr()
        assert expected_code == code
        cfg = tmp_path / "proc.cfg"
        out = tmp_path / "proc"
        cfg.write_text(f"{text}\noutput_dir = {out}\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "nhtrap.cli", command, "--config", str(cfg)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, expected.out, expected.err
        )
        if code == 0:
            assert (proc.stdout, proc.stderr) == (TRAP_FIND_LINE + "\n", "")
        elif code == 3:
            assert proc.stderr.startswith("numerical failure: orbit left the chart at t=1.27")
        if not expected_out.exists():  # a config that never parsed writes nothing
            assert code == 2 and not out.exists()
            assert proc.stderr.startswith("config error: ")
            return
        artifacts = parse_artifacts(out)
        assert (artifacts["failures.json"]["failures"] == []) == (code == 0)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in expected_out.iterdir()
        }

    def test_hook_runs_at_exit_of_a_process_that_called_main(self, tmp_path):
        # as in the benchmark's launcher: main returns, the caller goes on,
        # and the heap is frozen only when the interpreter exits
        probe = (
            "import atexit, gc, sys\n"
            "from nhtrap import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('returned', code, gc.get_freeze_count())\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CHEAP_RUNS["trap-find"] + f"output_dir = {tmp_path / 'out'}\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", probe, "trap-find", "--config", str(cfg)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [TRAP_FIND_LINE, "returned 0 0", "frozen True"]

    def test_in_process_callers_keep_their_collector(self, tmp_path, capsys):
        # the freeze is registered once per process: a later main call
        # takes no atexit slot (CPython's _ncallbacks counts slots)
        counts = []
        for name in ("first", "second", "third"):
            code, _ = run_cli(tmp_path, "trap-find", CHEAP_RUNS["trap-find"], name=name)
            assert code == 0
            assert gc.isenabled()
            assert gc.get_freeze_count() == 0
            counts.append(atexit._ncallbacks())
        assert counts[1:] == counts[:1] * 2

    @pytest.mark.parametrize("command", sorted(CHEAP_RUNS))
    def test_no_file_left_open(self, tmp_path, capsys, command):
        # a frozen cycle is never finalized, so a file that only a
        # collection would close must not exist when a command ends
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _ = run_cli(tmp_path, command, CHEAP_RUNS[command])
            gc.collect()
        assert code == 0
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
