import textwrap

import numpy as np
import pytest

from spinstar.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    FIGURE_PRESETS,
    ScenarioConfig,
    _run_method,
    main,
    method_filename,
    parse_config,
)
from spinstar.volterra import NumericsError

BASE = """
# comment lines and blank lines are ignored
N = 4
omega0 = 1.0
A = 0.1          # trailing comments too
t_max = 2.0
dt = 0.5
methods = exact,tcl2
"""


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert (cfg.N, cfg.omega0, cfg.A) == (4, 1.0, 0.1)
        assert cfg.methods == ("exact", "tcl2")
        assert cfg.projection == "m" and cfg.initial_p_plus == 1.0
        np.testing.assert_allclose(cfg.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_alpha_resolves_coupling(self, tmp_path):
        text = BASE.replace("A = 0.1          # trailing comments too", "alpha = 0.5")
        cfg = parse_config(write_config(tmp_path, text))
        np.testing.assert_allclose(cfg.A, 0.5 / 8.0, rtol=1e-15)

    @pytest.mark.parametrize(
        "mangle,fragment",
        [
            (lambda s: s + "alpha = 0.5\n", "'A' and 'alpha'"),
            (lambda s: s.replace("A = 0.1          # trailing comments too", ""),
             "'A' and 'alpha'"),
            (lambda s: s + "flux_capacitor = 1\n", "unknown keys"),
            (lambda s: s.replace("N = 4", ""), "missing required key"),
            (lambda s: s + "N = 5\n", "duplicate"),
            (lambda s: s.replace("dt = 0.5", "dt = -1"), "dt"),
            (lambda s: s.replace("t_max = 2.0", "t_max = 0.1"), "t_max"),
            (lambda s: s.replace("exact,tcl2", "exact,magic"), "unknown methods"),
            (lambda s: s.replace("exact,tcl2", "exact,exact"), "duplicates"),
            (lambda s: s + "projection = q\n", "projection"),
            (lambda s: s + "initial_p_plus = 1.5\n", "initial_p_plus"),
            (lambda s: s + "solver_step = 0\n", "solver_step"),
            (lambda s: s + "couplings = 0.1,0.1,0.1,0.1\n", "oracle"),
            (lambda s: s.replace("N = 4", "N = four"), "integer"),
            (lambda s: s + "just a line without equals\n", "key=value"),
        ],
    )
    def test_rejected_configs(self, tmp_path, mangle, fragment):
        from spinstar.cli import ConfigError

        with pytest.raises(ConfigError, match=fragment):
            parse_config(write_config(tmp_path, mangle(BASE)))

    def test_couplings_accepted_for_oracle(self, tmp_path):
        text = BASE.replace("exact,tcl2", "oracle") + "couplings = 0.1,0.2,0.1,0.2\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.couplings == (0.1, 0.2, 0.1, 0.2)

    def test_couplings_length_checked(self, tmp_path):
        from spinstar.cli import ConfigError

        text = BASE.replace("exact,tcl2", "oracle") + "couplings = 0.1,0.2\n"
        with pytest.raises(ConfigError, match="expected N"):
            parse_config(write_config(tmp_path, text))

    def test_missing_file(self):
        from spinstar.cli import ConfigError

        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.cfg")


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "bogus_key = 1\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_numeric_error(self, tmp_path):
        text = BASE.replace("exact,tcl2", "nz2") + (
            "solver_step = 50\nsolver_tolerance = 1e-30\n"
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC

    def test_numeric_error_carries_solver_state(self, tmp_path):
        # the failure behind test_numeric_error, raised instead of mapped to exit 3
        text = BASE.replace("exact,tcl2", "nz2") + (
            "solver_step = 50\nsolver_tolerance = 1e-30\n"
        )
        with pytest.raises(NumericsError) as info:
            _run_method(parse_config(write_config(tmp_path, text)), "nz2")
        err = info.value
        # the step is clamped to the output interval 0.5, then halved 12 times
        assert (err.route, err.halvings, err.step) == ("rk4", 12, 0.5 / 2**12)
        assert 1e-30 < err.error < 1e-10
        assert str(err) == (
            "step halving did not reach tolerance 1e-30 within 12 halvings (last step 0.00012207)"
        )

    def test_capacity_error(self, tmp_path):
        text = BASE.replace("N = 4", "N = 15").replace("exact,tcl2", "oracle")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == EXIT_CAPACITY

    def test_standard_needs_excited_start(self, tmp_path):
        text = BASE.replace("exact,tcl2", "standard") + "initial_p_plus = 0.5\n"
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "5", "--dt", "0"],
            ["figure", "5", "--t-max", "inf"],
            ["figure", "5", "--t-max", "nan"],
            ["run", "--config", "inf.cfg"],
        ],
        ids=["dt-0", "t-max-inf", "t-max-nan", "config-t-max-inf"],
    )
    def test_bad_time_window(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, BASE.replace("t_max = 2.0", "t_max = inf"), name="inf.cfg")
        assert main(argv + ["--out", "o"]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("projection", ["m", "jm"])
    @pytest.mark.parametrize("method", ["exact", "tcl2", "nz2", "standard"])
    def test_coupling_whose_square_overflows(self, tmp_path, method, projection):
        # A = 1e160 is finite, A^2 is not: every method's output is non-finite
        text = BASE.replace("A = 0.1", "A = 1e160").replace("exact,tcl2", method)
        cfg = write_config(tmp_path, text + f"projection = {projection}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC

    def test_compare_needs_two_methods(self, tmp_path):
        text = BASE.replace("exact,tcl2", "exact")
        cfg = write_config(tmp_path, text)
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_figure_preset(self, tmp_path):
        assert main(["figure", "99", "--out", str(tmp_path / "f")]) == EXIT_CONFIG


class TestRunOutputs:
    CONFIG = """
N = 3
omega0 = 1.0
A = 0.1
t_max = 1.0
dt = 0.25
methods = exact,tcl2,nz2,oracle,standard
projection = jm
initial_p_plus = 1.0
"""

    def test_files_and_header(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        expected = {
            "exact_none.csv", "tcl2_jm.csv", "nz2_jm.csv",
            "oracle_none.csv", "standard_product.csv",
        }
        assert {p.name for p in out.iterdir()} == expected
        for name in expected:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,p_plus,p_minus,coh_re,coh_im,coh_abs"
            assert len(lines) == 6  # header + 5 time points

    def test_first_row_reflects_initial_state(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        row = (out / "exact_none.csv").read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) == 1.0  # initial_p_plus, shortest round-trip repr
        assert float(row[2]) == 0.0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        for p in sorted(out1.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_values_round_trip_to_full_precision(self, tmp_path):
        from spinstar.exact import exact_trajectory
        from spinstar.sectors import SystemParams

        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rows = (out / "exact_none.csv").read_text().splitlines()[1:]
        got = np.array([[float(v) for v in r.split(",")] for r in rows])
        traj = exact_trajectory(
            SystemParams(N=3, A=0.1, omega0=1.0, initial_p_plus=1.0),
            0.25 * np.arange(5),
        )
        np.testing.assert_array_equal(got[:, 1], traj.p_plus)
        np.testing.assert_array_equal(got[:, 2], traj.p_minus)


class TestCompare:
    CONFIG = """
N = 4
omega0 = 1.0
A = 0.05
t_max = 4.0
dt = 0.5
methods = exact,oracle,nz2
projection = jm
initial_p_plus = 0.5
coh_re = 0.5
"""

    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "report.csv").read_text().splitlines()
        resolved = [l for l in lines if l.startswith("# resolved_config:")]
        assert "# resolved_config: N=4" in resolved
        assert any(l.startswith("# resolved_config: A=") for l in resolved)
        header = lines[len(resolved)]
        assert header.startswith("method_ref,method_other,sup_err_pop")
        data = lines[len(resolved) + 1 :]
        assert len(data) == 2  # oracle and nz2, each against exact
        oracle_row = data[0].split(",")
        assert oracle_row[:2] == ["exact_none", "oracle_none"]
        # the oracle and the closed form agree to machine precision
        assert float(oracle_row[2]) <= 1e-12  # sup_err_pop
        assert float(oracle_row[4]) <= 1e-12  # sup_err_coh


class TestFigurePresets:
    def test_presets_cover_published_range(self):
        assert sorted(FIGURE_PRESETS) == [2, 3, 4, 5, 6, 7]

    def test_preset_run_with_overrides(self, tmp_path):
        out = tmp_path / "fig5"
        code = main(["figure", "5", "--t-max", "2", "--dt", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {"exact_none.csv", "tcl2_m.csv", "standard_product.csv"}

    def test_method_filenames(self):
        assert method_filename("exact", "jm") == "exact_none.csv"
        assert method_filename("oracle", "m") == "oracle_none.csv"
        assert method_filename("standard", "m") == "standard_product.csv"
        assert method_filename("tcl2", "jm") == "tcl2_jm.csv"
        assert method_filename("nz2", "m") == "nz2_m.csv"


def test_scenario_times_include_endpoint():
    cfg = ScenarioConfig(
        N=2, omega0=1.0, A=0.1, t_max=1.0, dt=0.1, methods=("exact",)
    )
    t = cfg.times()
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert t.size == 11


_CAPPED_COMPARE = textwrap.dedent(
    """
    import sys
    from spinstar.cli import main

    sys.exit(main(["compare", "--config", {config!r}, "--out", {out!r}]))
    """
)


def test_figure7_compare_fits_a_memory_cap(tmp_path, run_capped):
    # the figure-7 scenario on 6001 times: one (sectors, times) complex array
    # of its 2652 jm sectors is 255 MB, so this passes only if neither TCL2
    # nor report.csv's J_3^tot drift builds one
    preset = FIGURE_PRESETS[7]
    cfg = write_config(tmp_path, f"""
N = 101
omega0 = 1.0
alpha = {preset["alpha"]}
t_max = 3000.0
dt = {preset["dt"]}
methods = {",".join(preset["methods"])}
projection = {preset["projection"]}
initial_p_plus = {preset["p0"]}
coh_re = {preset["coh0"]}
""")
    out = tmp_path / "out"
    proc = run_capped(_CAPPED_COMPARE.format(config=str(cfg), out=str(out)), cap_mib=256)
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    lines = (out / "report.csv").read_text().splitlines()
    header, row = lines[-2].split(","), lines[-1].split(",")
    rep = dict(zip(header, row))
    assert (rep["method_ref"], rep["method_other"]) == ("exact_none", "tcl2_jm")
    assert float(rep["trace_drift"]) == 0.0
    assert 0.0 <= float(rep["j3tot_drift"]) <= 1e-9
    assert 0.0 < float(rep["sup_err_coh"]) <= 0.1
    assert len((out / "tcl2_jm.csv").read_text().splitlines()) == 6002
