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

from catvis import CoverageWarning, OverlapWarning, __version__, cli, phase_space
from catvis.cli import main
from helpers import child_env, stock_showwarning

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

    def test_brute_force_column_agrees_at_large_phi(self, capsys):
        # the readout rotation turns by phi reduced as the labels take it;
        # phi * n rounded it, and this row printed nu_brute 0.718074503025
        with pytest.warns(OverlapWarning):
            code, out, _ = run_cli(
                ["visibility", "--brute-force", "--alpha0", "3", "--R", "0.3",
                 "--phi", "1109599999999999.9"], capsys)
        assert code == 0
        rec = one_record(out)
        assert rec["nu_analytic"] == "0.883091588332"
        assert float(rec["nu_brute"]) == pytest.approx(0.883091588332, abs=1e-6)

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

    @pytest.mark.parametrize("stage", ["initial", "after-bs"])
    def test_default_marginal_grid_follows_the_cat(self, capsys, stage):
        # past |alpha0| 2 the default half-width grows as 1.25 |alpha0| + 3.5,
        # so a run with its own defaults covers the lobes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(["qfunction", "--alpha0", "3", "--stage", stage],
                                   capsys)
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, CoverageWarning)]
        comments, _, rows = parse_csv(out)
        assert "extent=7.25" in comments[2]
        assert len(rows) == 145 * 145

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

    @pytest.mark.parametrize("stage", ["initial", "after-bs"])
    def test_full_grid_default_covers_the_default_cat(self, stage, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["qfunction", "--qmode", "full", "--stage", stage], capsys
            )
        assert (code, err) == (0, "")
        comments, _, rows = parse_csv(out)
        assert len(rows) == 20**4
        assert "extent=5" in comments[2]
        norm_line = next(c for c in comments if c.startswith("# normalization:"))
        assert abs(float(norm_line.split(":")[1]) - 1.0) <= 1e-4

    @pytest.mark.parametrize("qmode", ["marginal-a", "marginal-b", "full"])
    @pytest.mark.filterwarnings("ignore::catvis.CoverageWarning")
    def test_one_pass_over_the_terms(self, qmode, capsys, monkeypatch):
        # the term set is checked once and each term's two plane profiles are
        # built once, the coverage check and a full table included
        calls = []
        for name in ("_require_hermitian_set", "_plane_profile"):
            def counted(*args, _fn=getattr(phase_space, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(phase_space, name, counted)
        code, _, _ = run_cli(["qfunction", "--qmode", qmode, "--extent", "1.8",
                              "--spacing", "0.3"], capsys)
        assert code == 0
        assert sorted(calls) == ["_plane_profile"] * 8 + ["_require_hermitian_set"]

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

    @pytest.mark.parametrize("argv", [["fringe"], ["sweep", "--fringe"]])
    def test_theta_count_past_the_row_cap_is_one_error_line(self, argv, capsys):
        code, out, err = run_cli([*argv, "--n-theta", "1000000000000"], capsys)
        assert (code, out) == (1, "")
        assert err == "catvis: error: n-theta must be at most 500000\n"

    def test_theta_count_at_the_row_cap_is_accepted(self):
        assert cli.RunConfig("fringe", n_theta=cli._MAX_ROWS).n_theta == 500_000
        with pytest.raises(ValueError, match="^n-theta must be at most 500000$"):
            cli.RunConfig("fringe", n_theta=cli._MAX_ROWS + 1)


class TestSweep:
    def test_row_cap_refuses_before_building_the_grid(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the sweep was built")

        monkeypatch.setattr(cli, "_sweep_columns", unreachable)
        many = ",".join(f"{0.0001 * i:.4f}" for i in range(10_000))
        code, out, err = run_cli(["sweep", "--R-values", many, "--alpha0-values",
                                  many, "--phi-values", many], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "catvis: error: grid would emit 1000000000000 rows (cap 500000); "
            "shorten --R-values, --alpha0-values or --phi-values\n")

    def test_row_cap_admits_a_grid_at_the_cap(self, capsys, monkeypatch):
        def reached(*args):
            raise ValueError("reached the sweep")

        monkeypatch.setattr(cli, "_sweep_columns", reached)
        lists = [",".join(["0.1"] * n) for n in (100, 50, 100)]
        code, _, err = run_cli(["sweep", "--R-values", lists[0], "--alpha0-values",
                                lists[1], "--phi-values", lists[2]], capsys)
        assert (code, err) == (1, "catvis: error: reached the sweep\n")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("r,alpha0,phi", [
        ("0.3", "2", "0.7"), ("0.05", "17.5", "0.01"), ("0.9", "0.25", PI_HALF),
    ])
    def test_visibility_and_sweep_print_the_same_closed_form_cells(
            self, r, alpha0, phi, fmt, capsys):
        _, point, _ = run_cli(["visibility", "--R", r, "--alpha0", alpha0,
                               "--phi", phi, "--format", fmt], capsys)
        _, grid, _ = run_cli(["sweep", "--R-values", r, "--alpha0-values", alpha0,
                              "--phi-values", phi, "--format", fmt], capsys)
        if fmt == "json":
            (point,), (grid,) = json.loads(point)["rows"], json.loads(grid)["rows"]
        else:
            point, grid = one_record(point), one_record(grid)
        keys = ("R", "abs_alpha0", "phi", "nu_analytic", "nu_oracle", "T",
                "mean_ratio", "var_out")
        assert [point[k] for k in keys] == [grid[k] for k in keys]

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


def _column_kind(col) -> str:
    """The kind of a column the table writer takes, or ``"other"``."""
    if isinstance(col, cli._Floats):
        floats = col.values.dtype == np.float64 and col.empty.dtype == bool
        return "floats" if floats and col.values.shape == col.empty.shape else "other"
    if isinstance(col, np.ndarray):
        return "array" if col.dtype == np.float64 and col.ndim == 1 else "other"
    if type(col) is list and all(v is None or type(v) is str for v in col):
        return "text"
    return "other"


@pytest.mark.parametrize("argv,kinds", [
    (["visibility"], "aaaaataaa"),
    (["visibility", "--brute-force"], "aaaaaaaaa"),
    (["fringe"], "aa"),
    # R = 1 is invalid, and route 5 refuses |alpha0| 40: those rows carry an
    # error text
    (["sweep", "--R-values", "0.3,1", "--alpha0-values", "1,2"], "fffffffffft"),
    (["sweep", "--brute-force", "--fringe", "--R-values", "0.1,0.4",
      "--alpha0-values", "0.3,40", "--phi-values", "1"], "fffffffffft"),
], ids=["visibility", "visibility-brute", "fringe", "sweep", "sweep-routes"])
def test_commands_pass_the_writer_float_and_text_columns(argv, kinds, capsys,
                                                         monkeypatch):
    # the table writer takes float64 arrays, _Floats of float64 and lists of
    # str or None, and nothing else
    seen = []
    cell_texts = cli._cell_texts

    def recording(columns, as_json):
        seen.append(columns)
        return cell_texts(columns, as_json)

    monkeypatch.setattr(cli, "_cell_texts", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _, _ = run_cli(argv, capsys)
    assert code == 0
    (columns,) = seen
    assert "".join(_column_kind(c)[0] for c in columns) == kinds
    if argv[0] == "sweep":
        assert any(v is not None for v in columns[-1])


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
            warnings.showwarning = stock_showwarning
            code, out, err = run_cli(self.ARGV, capsys)
        assert code == 0
        assert err.splitlines() == self.LINES
        assert out == recorded_out
        assert warnings.formatwarning is formatwarning  # restored on return

    @pytest.mark.parametrize("argv", [
        ["qfunction", "--alpha0", "40", "--extent", "6"],
        ["qfunction", "--alpha0", "40", "--extent", "6", "--qmode", "full",
         "--spacing", "0.5"],
    ], ids=["marginal", "full"])
    def test_a_grid_that_misses_the_state_warns(self, argv, capsys):
        # every sample underflows to 0, so there is no peak to compare the
        # edge with: each plane counts as uncovered, not as clean
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = stock_showwarning
            code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err.splitlines() == [
            f"catvis: warning: plane {p} grid samples all underflow; widen --extent"
            for p in ("A", "B")
        ]
        comments, _, rows = parse_csv(out)
        assert "# normalization: 0" in comments
        assert {row[-1] for row in rows} == {"0"}

    def test_a_grid_exactly_6_spacings_wide_runs(self, capsys):
        # 6 * 0.1 rounds above 0.6, but the grid lays out 12 points an axis
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_cli(["qfunction", "--extent", "0.6", "--spacing",
                                      "0.1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["points_per_axis"] == 12
        assert len(doc["rows"]) == 144

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

    def test_each_call_prints_its_warnings(self, capsys):
        # Python's default filter prints a warning once per source location
        # and process; a second in-process call must still print its own
        argv = ["fringe", "--alpha0", "1", "--R", "0.3"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = stock_showwarning
            errs = [run_cli(argv, capsys)[2] for _ in range(2)]
        assert errs[0].startswith(
            "catvis: warning: cat components overlap at |<+|->| = 1.353e-01; "
        )
        assert errs[1] == errs[0]

    def test_sweep_prints_each_route_s_overlap_line_once(self, capsys):
        # a row whose brute force is accepted prints the overlap line of both
        # routes, a row it refuses past its amplitude cap prints only the
        # fringe route's, as the cap comes before the brute force's warning,
        # and a row repeating an earlier row's text prints nothing
        argv = ["sweep", "--brute-force", "--fringe", "--R-values", "0.3",
                "--alpha0-values", "1,5,200", "--phi-values", "0.3,-0.3,0.001"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = stock_showwarning
            code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert [line.split(";")[0] for line in err.splitlines()] == [
            f"catvis: warning: cat components overlap at |<+|->| = {ov}"
            for ov in ("8.397e-01", "8.397e-01", "1.000e+00", "1.000e+00",
                       "1.269e-02", "1.269e-02", "9.231e-01")
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


# Every flag and its CATVIS_<DEST> variable: (spelling, RunConfig field,
# variable value, what -v shows for it, flag value, what -v shows for that,
# a variable value the flag beats, an invalid value, a fragment of its
# error).  A switch takes no flag value and beats a variable set off.
FLAGS = {
    "alpha0": ("--alpha0", "alpha0", "2.5", "2.5", "0.7", "0.7", "2.5",
               "big", "CATVIS_ALPHA0"),
    "alpha0_phase": ("--alpha0-phase", "alpha0_phase", "0.4", "0.4", "1.1",
                     "1.1", "0.4", "x", "CATVIS_ALPHA0_PHASE"),
    "phi": ("--phi", "phi", "0.9", "0.9", "1.2", "1.2", "0.9", "pi",
            "CATVIS_PHI"),
    "R": ("--R", "r", "0.25", "0.25", "0.15", "0.15", "0.25", "half",
          "CATVIS_R"),
    "format": ("--format", "format", "json", "json", "csv", "csv", "json",
               "xml", "CATVIS_FORMAT"),
    "output": ("--output", "output", "{tmp}/env.out", "{tmp}/env.out",
               "{tmp}/flag.out", "{tmp}/flag.out", "{tmp}/env.out", None,
               None),
    "degrees": ("--degrees", "degrees", "1", "true", None, "true", "0",
                "maybe", "CATVIS_DEGREES"),
    "verbose": ("-v", "verbose", "yes", "true", None, "true", "no", "loud",
                "CATVIS_VERBOSE"),
    "R_values": ("--R-values", "r_values", "0.05,0.3", "0.05,0.3", "0.2",
                 "0.2", "0.05,0.3", "abc", "CATVIS_R_VALUES"),
    "alpha0_values": ("--alpha0-values", "alpha0_values", "2,3", "2,3", "1.5",
                      "1.5", "2,3", ",", "CATVIS_ALPHA0_VALUES"),
    "phi_values": ("--phi-values", "phi_values", "0.5,1", "0.5,1", "0.8",
                   "0.8", "0.5,1", "a,b", "CATVIS_PHI_VALUES"),
    "brute_force": ("--brute-force", "brute_force", "true", "true", None,
                    "true", "0", "2", "CATVIS_BRUTE_FORCE"),
    "fringe": ("--fringe", "include_fringe", "on", "true", None, "true",
               "off", "nah", "CATVIS_FRINGE"),
    "cutoff_a": ("--cutoff-a", "cutoff_a", "40", "40", "30", "30", "40",
                 "4.5", "CATVIS_CUTOFF_A"),
    "cutoff_b": ("--cutoff-b", "cutoff_b", "20", "20", "25", "25", "20",
                 "many", "CATVIS_CUTOFF_B"),
    "qmode": ("--qmode", "qmode", "marginal-b", "marginal-b", "marginal-a",
              "marginal-a", "marginal-b", "full-ish", "CATVIS_QMODE"),
    "stage": ("--stage", "stage", "initial", "initial", "after-bs", "after-bs",
              "initial", "middle", "CATVIS_STAGE"),
    "extent": ("--extent", "extent", "2.1", "2.1", "1.5", "1.5", "2.1", "wide",
               "CATVIS_EXTENT"),
    "spacing": ("--spacing", "spacing", "0.35", "0.35", "0.3", "0.3", "0.35",
                "fine", "CATVIS_SPACING"),
    "n_theta": ("--n-theta", "n_theta", "12", "12", "10", "10", "12", "7.5",
                "CATVIS_N_THETA"),
}
COMMON = ["format", "output", "degrees", "verbose"]
POINT = ["alpha0", "alpha0_phase", "phi", "R"]
SUBCOMMAND_FLAGS = {
    "visibility": POINT + COMMON + ["brute_force", "cutoff_a", "cutoff_b"],
    "qfunction": POINT + COMMON + ["qmode", "stage", "extent", "spacing"],
    "fringe": POINT + COMMON + ["n_theta"],
    "sweep": COMMON + ["R_values", "alpha0_values", "phi_values",
                       "brute_force", "fringe", "n_theta"],
}
# keeps sweep to one row unless the list under test is the variable
SWEEP_BASE = {"R_values": "0.1", "alpha0_values": "1", "phi_values": "0.8"}
PAIRS = [(sub, dest) for sub, dests in SUBCOMMAND_FLAGS.items() for dest in dests]
# a variable no subcommand reads: its flag, --theta, changed no number
RETIRED = {"theta": "abc"}
FOREIGN = [
    (sub, dest) for sub, dests in SUBCOMMAND_FLAGS.items()
    for dest in [*FLAGS, *RETIRED] if dest not in dests
]


def _argv(sub, dest):
    """``sub`` with -v (unless verbose is under test) and its base flags."""
    argv = [sub] if dest == "verbose" else [sub, "-v"]
    for other, value in SWEEP_BASE.items():
        if sub == "sweep" and other != dest:
            argv += [FLAGS[other][0], value]
    return argv


def _config(err):
    """The fields of the ``catvis config:`` line of ``err``."""
    line = next(ln for ln in err.splitlines() if ln.startswith("catvis config:"))
    return dict(tok.split("=", 1) for tok in line.split()[2:])


@pytest.mark.filterwarnings("ignore::catvis.OverlapWarning")
@pytest.mark.filterwarnings("ignore::catvis.CoverageWarning")
class TestFlagVariables:
    @pytest.mark.parametrize("sub,dest", PAIRS)
    def test_variable_supplies_the_value(self, sub, dest, capsys, monkeypatch,
                                         tmp_path):
        _, field, env, shown, *_ = FLAGS[dest]
        monkeypatch.setenv(f"CATVIS_{dest.upper()}", env.format(tmp=tmp_path))
        code, out, err = run_cli(_argv(sub, dest), capsys)
        assert code == 0
        assert _config(err)[field] == shown.format(tmp=tmp_path)
        assert (out == "") == (dest == "output")

    @pytest.mark.parametrize("sub,dest", PAIRS)
    def test_flag_beats_the_variable(self, sub, dest, capsys, monkeypatch,
                                     tmp_path):
        flag, field, _, _, value, shown, beaten, *_ = FLAGS[dest]
        monkeypatch.setenv(f"CATVIS_{dest.upper()}", beaten.format(tmp=tmp_path))
        argv = _argv(sub, dest) + [flag]
        if value is not None:
            argv.append(value.format(tmp=tmp_path))
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert _config(err)[field] == shown.format(tmp=tmp_path)

    @pytest.mark.parametrize(
        "sub,dest", [p for p in PAIRS if FLAGS[p[1]][7] is not None]
    )
    def test_invalid_variable_value_exits_1(self, sub, dest, capsys,
                                            monkeypatch):
        *_, bad, fragment = FLAGS[dest]
        monkeypatch.setenv(f"CATVIS_{dest.upper()}", bad)
        code, out, err = run_cli(_argv(sub, dest), capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("catvis: error:")
        assert fragment in err

    @pytest.mark.parametrize("sub,dest", FOREIGN)
    def test_variable_of_another_subcommand_is_ignored(self, sub, dest, capsys,
                                                       monkeypatch):
        unset = run_cli(_argv(sub, dest), capsys)
        bad = RETIRED[dest] if dest in RETIRED else FLAGS[dest][7]
        monkeypatch.setenv(f"CATVIS_{dest.upper()}", bad)
        assert run_cli(_argv(sub, dest), capsys) == unset
        assert unset[0] == 0

    @pytest.mark.parametrize("sub,echoed", [
        ("visibility", "R=0.1 alpha0=1 alpha0_phase=0 brute_force=false "
         "cutoff_a=auto cutoff_b=auto phi=1.57079632679"),
        # extent and spacing as resolved
        ("qfunction", "R=0.1 alpha0=1 alpha0_phase=0 extent=6 phi=1.57079632679 "
         "qmode=marginal-a spacing=0.1 stage=after-bs"),
        ("fringe", "R=0.1 alpha0=1 alpha0_phase=0 n_theta=16 phi=1.57079632679"),
        ("sweep", "R_values=0.1 alpha0_values=1 brute_force=false fringe=false "
         "n_theta=16 phi_values=0.8"),
    ])
    def test_params_line_echoes_the_subcommands_own_flags(self, sub, echoed,
                                                          capsys):
        code, out, _ = run_cli(_argv(sub, "verbose"), capsys)
        assert code == 0
        assert out.splitlines()[2] == f"# params: {echoed}"

    def test_degrees_convert_phi_values_but_not_r_values(self, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("CATVIS_DEGREES", "1")
        monkeypatch.setenv("CATVIS_PHI_VALUES", "30,90")
        monkeypatch.setenv("CATVIS_R_VALUES", "0.1,0.5")
        code, _, err = run_cli(["sweep", "-v", "--alpha0-values", "1"], capsys)
        assert code == 0
        config = _config(err)
        assert config["phi_values"] == ",".join(
            f"{math.radians(deg):.12g}" for deg in (30, 90)
        )
        assert config["r_values"] == "0.1,0.5"


class TestFailureModes:
    def test_invalid_reflectivity(self, capsys):
        code, out, err = run_cli(["visibility", "--R", "1.5"], capsys)
        assert code == 1
        assert out == ""
        assert "catvis: error:" in err

    @pytest.mark.parametrize("existing", [b"earlier bytes\n", None])
    def test_error_exit_leaves_the_output_file_alone(self, existing, capsys,
                                                     tmp_path):
        path = tmp_path / "record.csv"
        if existing is not None:
            path.write_bytes(existing)
        code, out, _ = run_cli(
            ["visibility", "--R", "1.5", "--output", str(path)], capsys
        )
        assert code == 1
        assert out == ""
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
    def test_unopenable_output_path_is_a_reported_error(self, where, capsys,
                                                        tmp_path):
        path = {"missing-dir": str(tmp_path / "no" / "x.csv"),
                "directory": str(tmp_path), "empty": ""}[where]
        code, out, err = run_cli(["visibility", "--output", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"catvis: error: cannot write output file {path!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["visibility", "qfunction", "fringe"])
    def test_non_finite_phi_is_a_reported_error(self, sub, capsys):
        code, out, err = run_cli([sub, "--phi", "nan"], capsys)
        assert (code, out) == (1, "")
        assert err == "catvis: error: phi must be finite\n"

    @pytest.mark.parametrize("qmode", ["marginal-a", "full"])
    @pytest.mark.parametrize("extent", ["inf", "nan"])
    def test_non_finite_extent_is_a_reported_error(self, extent, qmode, capsys):
        code, out, err = run_cli(
            ["qfunction", "--qmode", qmode, "--extent", extent], capsys)
        assert (code, out, err) == (1, "", "catvis: error: extent must be finite\n")

    @pytest.mark.parametrize("qmode", ["marginal-a", "full"])
    def test_uncountable_grid_is_a_reported_error(self, qmode, capsys):
        # 2e310 points per axis overflow a float; the refusal comes before
        # the row cap would count them
        code, out, err = run_cli(["qfunction", "--qmode", qmode, "--extent", "1e300",
                                  "--spacing", "1e-10"], capsys)
        assert (code, out) == (1, "")
        assert err == ("catvis: error: extent 1e+300 over spacing 1e-10 holds too "
                       "many points to count\n")

    @pytest.mark.parametrize("sub", ["visibility", "qfunction", "fringe"])
    def test_theta_is_a_usage_error(self, sub, capsys):
        # no route reads a readout phase; fringe scans it itself
        with pytest.raises(SystemExit) as exc:
            main([sub, "--theta", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --theta 0" in err

    @pytest.mark.parametrize("flag,bad", [
        ("--R-values", "abc"), ("--alpha0-values", ","), ("--phi-values", "1,x"),
    ])
    def test_bad_list_flag_is_a_usage_error(self, flag, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, bad])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert err.splitlines()[-1] == (
            f"catvis sweep: error: argument {flag}: not a comma-separated "
            f"list of numbers: {bad!r}"
        )

    def test_negative_magnitude(self, capsys):
        code, _, err = run_cli(["visibility", "--alpha0", "-2"], capsys)
        assert code == 1
        assert "magnitude" in err

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_negative_magnitude_in_the_sweep_list(self, source, capsys,
                                                  monkeypatch):
        argv = ["sweep", "--R-values", "0.1"]
        if source == "flag":
            argv.append("--alpha0-values=1,-2")
        else:
            monkeypatch.setenv("CATVIS_ALPHA0_VALUES", "1,-2")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == ("catvis: error: alpha0-values are magnitudes and cannot "
                       "be negative\n")

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


class TestNegativeValues:
    # argparse on its own takes "-1e-3", "-0.5,0.5" and "-inf" for options,
    # since it reads "-" as a sign only before digits with an optional
    # decimal part

    @staticmethod
    def _params(out):
        line = next(c for c in out.splitlines() if c.startswith("# params: "))
        return dict(tok.split("=") for tok in line[len("# params: "):].split())

    @pytest.mark.parametrize("sub", ["visibility", "qfunction", "fringe"])
    @pytest.mark.filterwarnings("ignore::catvis.OverlapWarning")
    def test_negative_value_with_an_exponent(self, sub, capsys):
        code, out, _ = run_cli([sub, "--phi", "-1e-3"], capsys)
        assert code == 0
        assert self._params(out)["phi"] == "-0.001"

    def test_negative_value_with_a_capital_exponent(self, capsys):
        code, out, _ = run_cli(["visibility", "--alpha0-phase", "-2E-1"], capsys)
        assert code == 0
        assert self._params(out)["alpha0_phase"] == "-0.2"

    def test_list_that_starts_with_a_negative_entry(self, capsys):
        code, out, _ = run_cli(["sweep", "--R-values", "0.1", "--alpha0-values",
                                "1", "--phi-values", "-0.5,0.5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert [row[header.index("phi")] for row in rows] == ["-0.5", "0.5"]

    @pytest.mark.parametrize("value", ["-inf", "-Inf", "-INFINITY", "-nan", "-NaN"])
    @pytest.mark.parametrize("sub", ["visibility", "qfunction", "fringe"])
    def test_negative_non_finite_value_reaches_validation(self, sub, value, capsys):
        # read as a value, as "inf" is, not as an option missing its argument
        code, out, err = run_cli([sub, "--phi", value], capsys)
        assert (code, out, err) == (1, "", "catvis: error: phi must be finite\n")

    def test_list_with_a_negative_non_finite_entry(self, capsys):
        code, out, _ = run_cli(["sweep", "--R-values", "0.1", "--alpha0-values",
                                "1", "--phi-values", "-inf,0.5"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert [row[header.index("error")] for row in rows] == [
            "phi must be finite", ""]

    def test_short_switch_is_still_a_switch(self, capsys):
        code, out, err = run_cli(["visibility", "-v", "--phi", "-1e-3"], capsys)
        assert code == 0
        assert err.startswith("catvis config: ") and "phi=-0.001" in err
        assert self._params(out)["phi"] == "-0.001"


class TestAlpha0Bound:
    # the largest |alpha0| ExperimentParams accepts, and the next float up
    LARGEST = "1e8"
    REFUSED = repr(math.nextafter(1e8, math.inf))
    MESSAGE = "|alpha0| must be at most 1e+08"

    @staticmethod
    def _quiet_run(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert caught == []
        return code, out, err

    @pytest.mark.parametrize("phi", ["1e-300", "1e-10", "0.9", PI_HALF, "3"])
    def test_largest_accepted_value_prints_finite_cells(self, phi, capsys):
        code, out, err = self._quiet_run(
            ["visibility", "--alpha0", self.LARGEST, "--R", "0.99",
             "--phi", phi], capsys)
        assert (code, err) == (0, "")
        rec = one_record(out)
        for key in ("nu_analytic", "nu_oracle", "T", "mean_ratio", "var_out"):
            assert math.isfinite(float(rec[key])), key

    def test_smallest_refused_value_is_one_error_line(self, capsys):
        code, out, err = self._quiet_run(
            ["visibility", "--alpha0", self.REFUSED], capsys)
        assert (code, out, err) == (1, "", f"catvis: error: {self.MESSAGE}\n")

    def test_sweep_rows_on_both_sides_of_the_bound(self, capsys):
        code, out, err = self._quiet_run(
            ["sweep", "--R-values", "0,0.5,0.99",
             "--alpha0-values", f"{self.LARGEST},{self.REFUSED}",
             "--phi-values", "1e-300,1e-10,0.9,3"], capsys)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        assert len(rows) == 3 * 2 * 4
        for row in (dict(zip(header, r)) for r in rows):
            cells = [row[k] for k in ("nu_analytic", "nu_oracle", "T",
                                      "mean_ratio", "var_out")]
            if row["error"] == "":
                assert all(math.isfinite(float(c)) for c in cells)
            else:
                assert row["error"] == self.MESSAGE
                assert cells == [""] * 5
        assert sum(row[-1] == "" for row in rows) == 3 * 4

    # default cutoffs at the bound would hold 1e30 amplitudes; the brute
    # force refuses past 2**24 before it allocates
    CAP = "the cap is 16777216 (268 MB)"

    def test_brute_force_at_the_bound_is_one_error_line(self, capsys):
        code, out, err = self._quiet_run(
            ["visibility", "--brute-force", "--alpha0", self.LARGEST], capsys)
        assert (code, out) == (1, "")
        assert err == ("catvis: error: cutoffs (10000000800000010, "
                       f"100000080000010) need 1e+30 amplitudes; {self.CAP}\n")

    def test_brute_force_sweep_row_at_the_bound_carries_the_refusal(self, capsys):
        code, out, err = self._quiet_run(
            ["sweep", "--brute-force", "--R-values", "0.3",
             "--alpha0-values", f"3,{self.LARGEST}", "--phi-values", PI_HALF],
            capsys)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        small, large = (dict(zip(header, r)) for r in rows)
        assert small["error"] == "" and math.isfinite(float(small["nu_brute"]))
        assert large["nu_brute"] == "" and large["error"].endswith(self.CAP)
        assert math.isfinite(float(large["nu_analytic"]))


class TestBruteForceStart:
    # exp(-|alpha0|^2/2) is subnormal past |alpha0| = 37.64 and 0 from about
    # 38.6; the Fock route names that bound instead of a norm it cannot judge
    @pytest.mark.parametrize("alpha0", ["38", "40"])
    def test_large_cat_is_one_error_line(self, alpha0, capsys):
        code, out, err = run_cli(["visibility", "--brute-force", "--alpha0", alpha0,
                                  "--R", "0.1", "--phi", "1"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"catvis: error: |alpha0| = {alpha0} is past 37.64, the largest "
                       "at which the Fock route can start: past it the vacuum "
                       "amplitude exp(-|alpha0|^2/2) is subnormal\n")

    def test_sweep_rows_carry_the_refusal(self, capsys):
        code, out, err = run_cli(["sweep", "--brute-force", "--R-values", "0.1",
                                  "--alpha0-values", "37.64,38", "--phi-values", "1"],
                                 capsys)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        ok, refused = (dict(zip(header, r)) for r in rows)
        assert ok["error"] == "" and math.isfinite(float(ok["nu_brute"]))
        assert refused["nu_brute"] == ""
        assert refused["error"].startswith("|alpha0| = 38 is past 37.64")
        assert float(refused["nu_analytic"]) == pytest.approx(1.31535358735e-09)


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
    def test_brute_force_sweep_prints_each_warning_once(self):
        # both R rows of one |alpha0| raise the same overlap warning; a fresh
        # interpreter prints it once per call site, as Python's default
        # filter does, not once per row
        proc = subprocess.run(
            [sys.executable, "-m", "catvis", "sweep", "--brute-force",
             "--alpha0-values", "0.5,0.6", "--R-values", "0.3,0.5",
             "--phi-values", "0.7"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        rows = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 4  # column header and one row per point
        tail = ("; the interfering branches are not mutually orthogonal, so "
                "visibility readings mix component distinguishability with "
                "environment overlap\n")
        assert proc.stderr == (
            f"catvis: warning: cat components overlap at |<+|->| = 8.126e-01{tail}"
            f"catvis: warning: cat components overlap at |<+|->| = 7.417e-01{tail}"
        )

    def test_reader_closing_stdout_early_ends_quietly(self):
        # about 600 kB of rows, far past what the pipe buffers, so the
        # writer is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "catvis", "qfunction", "--alpha0", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == f"# catvis {__version__}\n".encode()
        assert err == b""
        assert code == 1

    # one process reuses the parser across calls, exits included
    INTERLEAVED = [
        ["sweep", "--R-values", "0.1,0.3", "--alpha0-values", "1",
         "--phi-values", "0.8"],
        ["sweep", "--R-values", "abc"],
        ["visibility", "--brute-force", "--alpha0", "2", "--R", "0.3"],
        ["fringe", "--alpha0", "1", "--R", "0.3"],
        ["--version"],
    ]

    def test_interleaved_calls_match_fresh_interpreters(self, capsys,
                                                        monkeypatch):
        # usage text wraps at the terminal width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "80")
        alone = []
        for argv in self.INTERLEAVED:
            proc = subprocess.run([sys.executable, "-m", "catvis", *argv],
                                  capture_output=True, text=True,
                                  env=child_env())
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = stock_showwarning
            for argv in self.INTERLEAVED * 2:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
        assert [c[0] for c in alone] == [0, 2, 0, 0, 0]
        assert "catvis: warning: cat components overlap" in alone[3][2]
        assert got == alone * 2

    @pytest.mark.skipif(not pathlib.Path("/dev/full").exists(),
                        reason="no /dev/full device to fill")
    @pytest.mark.parametrize("to_file", [True, False])
    def test_full_device_is_one_error_line(self, to_file):
        argv = [sys.executable, "-m", "catvis", "visibility"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                argv + (["--output", "/dev/full"] if to_file else []),
                stdout=subprocess.DEVNULL if to_file else full,
                stderr=subprocess.PIPE, text=True, env=child_env(),
            )
        target = "output file '/dev/full'" if to_file else "to stdout"
        assert proc.stderr == (f"catvis: error: cannot write {target}: "
                               "No space left on device\n")
        assert proc.returncode == 1

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
