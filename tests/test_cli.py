"""Command-line interface: parsing, resolution, formats, determinism."""

import csv
import importlib.metadata
import json
import math
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from catvis import CoverageWarning, OverlapWarning, __version__
from catvis.cli import main
from helpers import child_env

PI_HALF = "1.5707963267948966"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _catvis_installed():
    """True when a ``catvis`` distribution (and so its console script) exists."""
    try:
        importlib.metadata.distribution("catvis")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    comments, data = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else data).append(line)
    rows = list(csv.reader(data))
    return comments, rows[0], rows[1:]


def one_record(text):
    comments, header, rows = parse_csv(text)
    assert len(rows) == 1
    return dict(zip(header, rows[0]))


class TestVisibility:
    def test_zero_reflectivity_row(self, capsys):
        code, out, err = run_cli(
            ["visibility", "--R", "0", "--alpha0", "2", "--phi", "0.785"], capsys
        )
        assert code == 0
        rec = one_record(out)
        assert float(rec["nu_analytic"]) == 1.0
        assert float(rec["nu_oracle"]) == 1.0
        assert rec["nu_brute"] == ""
        assert float(rec["T"]) == 1.0

    def test_weak_tap_on_large_cat(self, capsys):
        code, out, _ = run_cli(
            ["visibility", "--R", "0.1", "--alpha0", "20", "--phi", PI_HALF],
            capsys,
        )
        assert code == 0
        rec = one_record(out)
        assert float(rec["nu_analytic"]) == pytest.approx(math.exp(-8.0), rel=1e-9)
        assert float(rec["nu_oracle"]) == pytest.approx(math.exp(-8.0), rel=1e-9)
        assert float(rec["mean_ratio"]) == pytest.approx(math.sqrt(0.99), rel=1e-9)
        assert float(rec["var_out"]) == pytest.approx(0.25, rel=1e-9)

    def test_brute_force_column_agrees(self, capsys):
        with pytest.warns(OverlapWarning):
            code, out, _ = run_cli(
                [
                    "visibility", "--R", "0.5", "--alpha0", "1",
                    "--phi", PI_HALF, "--brute-force",
                ],
                capsys,
            )
        assert code == 0
        rec = one_record(out)
        nu = float(rec["nu_analytic"])
        assert nu == pytest.approx(math.exp(-0.5), rel=1e-9)
        assert float(rec["nu_brute"]) == pytest.approx(nu, abs=1e-6)
        assert float(rec["nu_oracle"]) == pytest.approx(nu, rel=1e-10)

    def test_comment_block_identifies_the_run(self, capsys):
        _, out, _ = run_cli(["visibility"], capsys)
        comments, header, _ = parse_csv(out)
        assert comments[0] == f"# catvis {__version__}"
        assert comments[1] == "# command: visibility"
        assert comments[2].startswith("# params: ")
        assert "R=0.1" in comments[2]
        assert "cutoff_a=auto" in comments[2]
        assert header[0] == "R"


class TestQFunction:
    @pytest.mark.filterwarnings("ignore::catvis.CoverageWarning")
    def test_vacuum_peak_value(self, capsys):
        code, out, _ = run_cli(
            [
                "qfunction", "--alpha0", "0", "--qmode", "full",
                "--stage", "initial", "--extent", "3.25", "--spacing", "0.5",
            ],
            capsys,
        )
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["re_alpha", "im_alpha", "re_beta", "im_beta", "q"]
        origin = [
            r for r in rows if all(float(r[i]) == 0.0 for i in range(4))
        ]
        assert len(origin) == 1
        assert float(origin[0][4]) == pytest.approx(1.0 / math.pi**2, rel=1e-9)
        norm_line = next(c for c in comments if c.startswith("# normalization:"))
        assert abs(float(norm_line.split(":")[1]) - 1.0) <= 1e-4

    def test_marginal_normalization_within_budget(self, capsys):
        code, out, _ = run_cli(["qfunction", "--alpha0", "2"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["re_alpha", "im_alpha", "q"]
        assert len(rows) == 120 * 120
        norm_line = next(c for c in comments if c.startswith("# normalization:"))
        assert abs(float(norm_line.split(":")[1]) - 1.0) <= 1e-4
        assert min(float(r[2]) for r in rows) >= -1e-12

    def test_marginal_lobes_at_split_components(self, capsys):
        # after the splitter the transmitted cat lobes sit at t alpha0 e^{+-i phi}
        code, out, _ = run_cli(
            ["qfunction", "--alpha0", "2", "--phi", PI_HALF, "--R", "0.1"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        pts = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
        lobe = math.sqrt(0.99) * 2.0
        for sign in (+1.0, -1.0):
            half = pts[sign * pts[:, 1] > 0]
            peak = half[np.argmax(half[:, 2])]
            assert math.hypot(peak[0], peak[1] - sign * lobe) <= 0.1 * math.sqrt(2.0)

    def test_row_cap_guards_full_grids(self, capsys):
        code, out, err = run_cli(
            ["qfunction", "--qmode", "full", "--spacing", "0.1"], capsys
        )
        assert code == 1
        assert out == ""
        assert "catvis: error:" in err and "rows" in err


class TestFringe:
    def test_scan_rows_and_fit_footer(self, capsys):
        code, out, _ = run_cli(["fringe", "--alpha0", "3", "--R", "0.3"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["theta", "rate"]
        assert len(rows) == 16
        foot = next(c for c in comments if c.startswith("# fit: "))
        fields = dict(tok.split("=") for tok in foot[len("# fit: "):].split())
        nu = visibility = float(fields["visibility"])
        assert nu == pytest.approx(math.exp(-2 * 0.09 * 9.0), abs=2e-4)
        assert float(fields["period"]) == pytest.approx(2.0 * math.pi, rel=1e-11)
        assert float(fields["raw_visibility"]) <= visibility + 1e-9

    def test_json_fit_diagnostics(self, capsys):
        code, out, _ = run_cli(
            ["fringe", "--alpha0", "3", "--R", "0.2", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"params", "rows", "diagnostics"}
        assert doc["params"]["command"] == "fringe"
        assert doc["diagnostics"]["version"] == __version__
        assert len(doc["rows"]) == 16
        assert set(doc["rows"][0]) == {"theta", "rate"}
        fit = doc["diagnostics"]["fit"]
        assert fit["visibility"] == pytest.approx(math.exp(-2 * 0.04 * 9.0), abs=2e-4)


class TestSweep:
    def test_default_grid_size(self, capsys):
        code, out, _ = run_cli(["sweep"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 5 * 4 * 3
        assert header[:3] == ["R", "abs_alpha0", "phi"]
        assert header[-1] == "error"
        assert all(r[-1] == "" for r in rows)

    def test_explicit_value_lists(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--R-values", "0.1,0.3", "--alpha0-values", "2",
                "--phi-values", "0.5236,1.5708",
            ],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert [(r[0], r[2]) for r in rows] == [
            ("0.1", "0.5236"), ("0.1", "1.5708"),
            ("0.3", "0.5236"), ("0.3", "1.5708"),
        ]

    def test_csv_floats_round_trip_at_12_digits(self, capsys):
        _, out, _ = run_cli(
            ["sweep", "--R-values", "0.2", "--alpha0-values", "1,3",
             "--phi-values", "0.9"],
            capsys,
        )
        _, _, rows = parse_csv(out)
        for row in rows:
            for cell in row:
                if cell == "":
                    continue
                assert f"{float(cell):.12g}" == cell


def _stock_showwarning(message, category, filename, lineno, file=None, line=None):
    # what Python's own warning writer does: format, then write to stderr
    # (pytest's warning capture stands in for it while a test runs)
    text = warnings.formatwarning(message, category, filename, lineno, line)
    (sys.stderr if file is None else file).write(text)


class TestWarningRendering:
    ARGV = ["qfunction", "--alpha0", "2", "--extent", "1.8", "--spacing", "0.3"]
    LINES = [
        f"catvis: warning: plane {p} grid edge holds more than 1e-06 of the "
        "peak; widen --extent"
        for p in ("A", "B")
    ]

    def test_coverage_warning_is_one_catvis_line(self, capsys):
        with pytest.warns(CoverageWarning):
            _, recorded_out, _ = run_cli(self.ARGV, capsys)
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _stock_showwarning
            code, out, err = run_cli(self.ARGV, capsys)
        assert code == 0
        assert err.splitlines() == self.LINES
        assert out == recorded_out
        assert warnings.formatwarning is formatwarning  # restored on return

    def test_recording_callers_see_every_warning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(self.ARGV, capsys)
        assert code == 0
        assert err == ""
        assert [(w.category, str(w.message)) for w in caught] == [
            (CoverageWarning, line.removeprefix("catvis: warning: "))
            for line in self.LINES
        ]

    def test_interpreter_writes_the_same_lines(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catvis", *self.ARGV],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == self.LINES


class TestResolutionOrder:
    def test_environment_supplies_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("CATVIS_R", "0.5")
        _, out, _ = run_cli(["visibility"], capsys)
        assert float(one_record(out)["R"]) == 0.5

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CATVIS_R", "0.5")
        _, out, _ = run_cli(["visibility", "--R", "0.2"], capsys)
        assert float(one_record(out)["R"]) == 0.2

    def test_bad_environment_value_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("CATVIS_R", "half")
        code, out, err = run_cli(["visibility"], capsys)
        assert code == 1
        assert out == ""
        assert "CATVIS_R" in err

    def test_environment_format_switch(self, capsys, monkeypatch):
        monkeypatch.setenv("CATVIS_FORMAT", "json")
        _, out, _ = run_cli(["visibility"], capsys)
        assert json.loads(out)["params"]["command"] == "visibility"

    def test_degrees_flag_matches_radians(self, capsys):
        _, in_degrees, _ = run_cli(
            ["visibility", "--degrees", "--phi", "90", "--alpha0", "2"], capsys
        )
        _, in_radians, _ = run_cli(
            ["visibility", "--phi", PI_HALF, "--alpha0", "2"], capsys
        )
        assert in_degrees == in_radians

    def test_verbose_echoes_config_to_stderr(self, capsys):
        code, out, err = run_cli(["visibility", "-v"], capsys)
        assert code == 0
        assert "catvis config:" in err
        assert out.startswith("# catvis")


class TestFailureModes:
    def test_invalid_reflectivity(self, capsys):
        code, out, err = run_cli(["visibility", "--R", "1.5"], capsys)
        assert code == 1
        assert out == ""
        assert "catvis: error:" in err

    def test_negative_magnitude(self, capsys):
        code, _, err = run_cli(["visibility", "--alpha0", "-2"], capsys)
        assert code == 1
        assert "magnitude" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["visibility", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert out.strip() == f"catvis {__version__}"


class TestDeterminism:
    CASES = [
        ["visibility", "--R", "0.3", "--alpha0", "2", "--phi", "0.7"],
        ["fringe", "--alpha0", "3", "--R", "0.2"],
        ["sweep", "--R-values", "0.1,0.2", "--alpha0-values", "1",
         "--phi-values", "0.8"],
        ["qfunction", "--alpha0", "0.5", "--extent", "1.8", "--spacing", "0.3"],
    ]

    @pytest.mark.filterwarnings("ignore::catvis.CoverageWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_repeated_runs_are_byte_identical(self, argv, fmt, capsys):
        first = run_cli(argv + ["--format", fmt], capsys)
        second = run_cli(argv + ["--format", fmt], capsys)
        assert first == second
        assert first[0] == 0

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["visibility", "--R", "0.3", "--alpha0", "2"]
        _, stdout_text, _ = run_cli(argv, capsys)
        path = tmp_path / "record.csv"
        code, piped, _ = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 0
        assert piped == ""
        assert path.read_text() == stdout_text


class TestSubprocess:
    def test_module_entry_point_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catvis", "--version"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"catvis {__version__}"

    @pytest.mark.skipif(
        not _catvis_installed(),
        reason="no 'catvis' distribution is installed "
        "(importlib.metadata.PackageNotFoundError), so there is no console script",
    )
    def test_console_script_installed(self):
        exe = shutil.which("catvis")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_console_script_target(self, capsys):
        # What the installed script would call, checked without installing.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["catvis"] == "catvis.cli:main"
        module, _, attr = scripts["catvis"].partition(":")
        target = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exc:
            target(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"catvis {__version__}\n"

    def test_coverage_warning_goes_to_stderr_not_stdout(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "catvis", "qfunction",
                "--alpha0", "2", "--extent", "1.8", "--spacing", "0.3",
            ],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "widen --extent" in proc.stderr
        assert proc.stdout.startswith("# catvis")
        assert all(
            line.startswith("#") or "," in line
            for line in proc.stdout.strip().splitlines()
        )
