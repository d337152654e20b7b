import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spinstar.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    FIGURE_PRESETS,
    ConfigError,
    ScenarioConfig,
    _run_method,
    figure_config,
    main,
    method_filename,
    parse_config,
)
from spinstar.sectors import EXACT_BINOMIAL_MAX_N
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
            (lambda s: s.replace("exact,tcl2", "oracle") + "couplings = 0.1,0.1,inf,0.1\n",
             "couplings must be finite, got inf at position 2"),
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

    def test_standard_needs_an_excited_start(self, tmp_path):
        # rejected on parsing, before exact and tcl2 spend their time on N = 101
        text = textwrap.dedent("""
            N = 101
            omega0 = 1.0
            alpha = 0.5
            t_max = 8000.0
            dt = 0.5
            methods = exact,tcl2,standard
            initial_p_plus = 0.5
        """)
        with pytest.raises(ConfigError, match="initial_p_plus: standard_projection_population"):
            parse_config(write_config(tmp_path, text))
        cfg = parse_config(write_config(tmp_path, text.replace("0.5\n", "1.0\n")))
        assert cfg.methods == ("exact", "tcl2", "standard")

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

    @pytest.mark.parametrize(
        "methods,extra,code",
        [
            # ScenarioConfig rejects standard with p_plus(0) != 1 before any method runs
            ("exact,tcl2,standard", "initial_p_plus = 0.5\n", EXIT_CONFIG),
            ("exact,oracle", "couplings = 0.1,0.1,inf,0.1\n", EXIT_CONFIG),
            ("exact,nz2", "solver_step = 50\nsolver_tolerance = 1e-30\n", EXIT_NUMERIC),
        ],
        ids=["standard-p0", "infinite-coupling", "nz2-no-convergence"],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_failing_run_writes_nothing(self, tmp_path, command, methods, extra, code):
        cfg = write_config(tmp_path, BASE.replace("exact,tcl2", methods) + extra)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize(
        "couplings,fragment",
        [("0.1,0.1,inf,0.1", "couplings must be finite"), ("0.1,0.1", "expected N = 4 values")],
        ids=["non-finite", "length"],
    )
    def test_couplings_messages(self, tmp_path, capsys, couplings, fragment):
        cfg = write_config(tmp_path, BASE.replace("exact,tcl2", "exact,oracle")
                           + f"couplings = {couplings}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert fragment in capsys.readouterr().err

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


@pytest.mark.parametrize("projection", ["m", "jm"])
def test_run_and_compare_write_the_same_nz2_file(tmp_path, projection):
    # on 101 uniform times NZ2's totals come from the exponential-sum kernel
    # in both commands; compare also reads J_3^tot from the sector table
    cfg = write_config(tmp_path, f"""
N = 12
omega0 = 1.0
alpha = 0.5
t_max = 50.0
dt = 0.5
methods = exact,nz2
projection = {projection}
initial_p_plus = 0.8
coh_re = 0.3
coh_im = -0.1
""")
    run, cmp = tmp_path / "run", tmp_path / "cmp"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    assert main(["compare", "--config", str(cfg), "--out", str(cmp)]) == EXIT_OK
    name = f"nz2_{projection}.csv"
    assert len((run / name).read_text().splitlines()) == 102
    assert (run / name).read_bytes() == (cmp / name).read_bytes()


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


@pytest.mark.parametrize("projection, dt, t_max", [("jm", 0.5, 1000.0), ("m", 0.1, 60.0)])
def test_compare_on_a_long_uniform_grid_runs_no_tile(tmp_path, monkeypatch, projection, dt,
                                                     t_max):
    # the grids of the benchmark's closed_form_long (2001 times) and nz2_memory (601):
    # the exact sums and every TCL2 and NZ2 total take the exponential-sum kernel, and
    # J_3^tot, constant by construction, comes from the sector table
    from spinstar import exact, masters

    def no_tiles(*args):
        raise AssertionError("the tiles ran")

    monkeypatch.setattr(masters, "_tiles", no_tiles)
    monkeypatch.setattr(exact, "_sector_pass", no_tiles)
    cfg = write_config(tmp_path, f"""
N = 101
omega0 = 1.0
alpha = 0.1
t_max = {t_max}
dt = {dt}
methods = exact,tcl2,nz2
projection = {projection}
initial_p_plus = 0.7
coh_re = 0.3
coh_im = 0.1
""")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "report.csv").read_text().splitlines()
    header = lines[-3].split(",")
    for line in lines[-2:]:
        rep = dict(zip(header, line.split(",")))
        assert float(rep["j3tot_drift"]) == 0.0 and float(rep["trace_drift"]) == 0.0


@pytest.mark.parametrize("preset", sorted(FIGURE_PRESETS))
def test_every_figure_preset_takes_the_kernel_for_every_part(monkeypatch, preset):
    # the route of each part from the counts that exact._exact and the fills of
    # masters._solve hand trajectory._kernel_pays: they do not depend on the grid
    # length, so three times of the preset's step give them, and no kernel runs
    from spinstar import exact, masters, trajectory

    cfg = figure_config(preset)
    params, t = cfg.params(), cfg.times()
    short = trajectory._uniform_step(t) * np.arange(3)
    pays, seen = trajectory._kernel_pays, []
    monkeypatch.setattr(trajectory, "_kernel_pays", lambda *counts: seen.append(counts[1:]))
    for method in cfg.methods:
        if method == "exact":
            exact._exact(params, short, True, True)
        elif method != "standard":  # the product projection has no kernel part
            masters._solve(params, short, method, cfg.projection)
    n_parts = sum({"exact": 1, "standard": 0}.get(method, 2) for method in cfg.methods)
    assert len(seen) == n_parts  # a part without terms would not be weighed
    for tile_cost, n_terms in seen:
        assert pays(t.size, tile_cost, n_terms)


def test_scenario_times_include_endpoint():
    cfg = ScenarioConfig(
        N=2, omega0=1.0, A=0.1, t_max=1.0, dt=0.1, methods=("exact",)
    )
    t = cfg.times()
    assert t[0] == 0.0 and t[-1] == pytest.approx(1.0)
    assert t.size == 11


_BLAS_SCENARIO = """
N = 8
omega0 = 1.0
A = 0.05
t_max = 100.0
dt = 0.1
"""

_COMPARE_EACH = (
    "import sys\n"
    "from spinstar.cli import main\n"
    "codes = [main(['compare', '--config', c, '--out', o])\n"
    "         for c, o in zip(sys.argv[1::2], sys.argv[2::2])]\n"
    "sys.exit(max(codes))\n"
)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every CSV but the oracle's, and every report.csv row but the oracle's,
    # has the same bytes at 1 and 2 BLAS threads; the oracle's eigh rounds
    # differently at another thread count (a few of its 1001 rows move in the
    # last bits), so its file and row hold only at a fixed count
    jm = write_config(tmp_path, _BLAS_SCENARIO + """
methods = exact,tcl2,nz2,oracle
projection = jm
initial_p_plus = 0.7
coh_re = 0.3
coh_im = 0.1
""", "jm.cfg")
    m = write_config(tmp_path, _BLAS_SCENARIO + """
methods = standard,exact,tcl2,nz2
projection = m
""", "m.cfg")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        args = [str(jm), str(tmp_path / threads / "jm"), str(m), str(tmp_path / threads / "m")]
        proc = subprocess.run([sys.executable, "-c", _COMPARE_EACH, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    for scenario, oracle_files in (("jm", {"oracle_none.csv"}), ("m", set())):
        one, two = tmp_path / "1" / scenario, tmp_path / "2" / scenario
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in sorted(set(names) - oracle_files):
            got, ref = (one / name).read_bytes(), (two / name).read_bytes()
            if name == "report.csv" and oracle_files:
                got, ref = ([l for l in text.splitlines() if b"oracle_none" not in l]
                            for text in (got, ref))
            assert got == ref, f"{scenario}/{name}"


_EXACT_BYTES = textwrap.dedent(
    """
    import sys
    import numpy as np
    from spinstar.exact import exact_trajectory
    from spinstar.masters import tcl2_coherence_m, tcl2_jm
    from spinstar.sectors import SystemParams

    n = int(sys.argv[1])
    p = SystemParams(N=n, A=0.05 / n, omega0=1.0, initial_p_plus=0.7, initial_coh=0.3 + 0.1j)
    t = 0.5 * np.arange(2001)
    traj = exact_trajectory(p, t)
    sys.stdout.buffer.write(traj.p_plus.tobytes() + traj.coh.tobytes())
    sys.stdout.buffer.write(tcl2_jm(p, t).coh.tobytes() + tcl2_coherence_m(p, t).coh.tobytes())
    """
)


@pytest.mark.parametrize("n", [101, 96])
def test_exact_kernel_does_not_depend_on_the_blas_thread_count(n):
    # the test above runs N = 8, whose exponential-sum GEMMs are too small for
    # BLAS to split over threads, and whose TCL2 coherence stays on the tiles;
    # on 2001 uniform times N = 101 makes them (42 x 256) @ (256 x 49) K
    # blocks, where a real dgemm split rounds differently at 1 and 2 threads,
    # for the exact sums and for the TCL2 coherence series (about 9.6 terms per
    # sector under jm, 8 under m), and N = 96 keeps 1849 sectors, a K that is
    # no multiple of 8 unless padded
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _EXACT_BYTES, str(n)], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out.append(proc.stdout)
    assert len(out[0]) == 2001 * 56
    assert out[0] == out[1]


_CAPPED_COMPARE = textwrap.dedent(
    """
    import sys
    from spinstar.cli import main

    sys.exit(main(["compare", "--config", {config!r}, "--out", {out!r}]))
    """
)


def test_figure7_compare_fits_a_memory_cap(tmp_path, run_capped):
    # the figure-7 scenario on 6001 times: one (sectors, times) complex array
    # of its 1892 kept jm sectors is 182 MB, most of the cap, so this pins the
    # CLI's compare path with report.csv's J_3^tot drift; the memory bound
    # itself is pinned where such an array is 5.5 GB, by
    # tests/test_tail_cut.py::test_thousand_spins_on_16001_times_fit_a_memory_cap
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


def test_ten_thousand_spins_end_to_end_under_a_memory_cap(tmp_path, run_capped):
    # N = 10^4 takes the log-space weight path (N > EXACT_BINOMIAL_MAX_N); its
    # whole jm table would be 25M sectors, the cut keeps 218089
    _ten_thousand_spins(tmp_path, run_capped, dt=5.0, n_times=41)


def test_ten_thousand_spins_on_a_uniform_grid_under_a_memory_cap(tmp_path, run_capped):
    # 81 uniform times take exact's exponential-sum kernel (from 28 on at N = 10^4),
    # whose terms go in slices of the sector table
    _ten_thousand_spins(tmp_path, run_capped, dt=2.5, n_times=81)


def test_ten_thousand_spins_on_the_tiles_under_a_memory_cap(tmp_path, run_capped):
    # 21 times are below every kernel threshold at N = 10^4 (exact 28, TCL2
    # coherence 41 and populations 107), so the exact sweep and the TCL2 tiles run
    _ten_thousand_spins(tmp_path, run_capped, dt=10.0, n_times=21)


def _ten_thousand_spins(tmp_path, run_capped, dt, n_times):
    """compare of exact and TCL2 (jm) at N = 10^4 on n_times times, under a 256 MiB cap."""
    N = 10_000
    assert N > EXACT_BINOMIAL_MAX_N
    cfg = write_config(tmp_path, f"""
N = {N}
omega0 = 1.0
alpha = 0.1
t_max = 200.0
dt = {dt}
methods = exact,tcl2
projection = jm
initial_p_plus = 0.7
coh_re = 0.3
coh_im = -0.2
""")
    out = tmp_path / "out"
    proc = run_capped(_CAPPED_COMPARE.format(config=str(cfg), out=str(out)), cap_mib=256)
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    exact = np.loadtxt(out / "exact_none.csv", delimiter=",", skiprows=1)
    assert exact.shape == (n_times, 6)
    assert tuple(exact[0, [0, 1, 3, 4]]) == (0.0, 0.7, 0.3, -0.2)
    lines = (out / "report.csv").read_text().splitlines()
    rep = dict(zip(lines[-2].split(","), lines[-1].split(",")))
    assert (rep["method_ref"], rep["method_other"]) == ("exact_none", "tcl2_jm")
    assert float(rep["trace_drift"]) == 0.0
    assert 0.0 <= float(rep["j3tot_drift"]) <= 1e-9
    assert 0.0 < float(rep["sup_err_coh"]) <= 0.05


def test_out_of_memory_exits_4(tmp_path, run_capped):
    # 1e9 + 1 times are 8 GB of float64: the time grid alone cannot be allocated
    cfg = write_config(tmp_path, BASE.replace("dt = 0.5", "dt = 1e-6").replace(
        "t_max = 2.0", "t_max = 1000"))
    out = tmp_path / "out"
    proc = run_capped(_CAPPED_COMPARE.format(config=str(cfg), out=str(out)), cap_mib=256)
    assert proc.returncode == EXIT_CAPACITY, proc.stderr[-2000:]
    assert "capacity exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


class TestSchema:
    """The keys and the report.csv echo both come from ScenarioConfig's fields."""

    @pytest.mark.parametrize(
        "text",
        [
            BASE.replace("A = 0.1", "alpha = 0.37") + "projection = jm\ninitial_p_plus = 0.3\n"
            "coh_re = 0.1\ncoh_im = -0.2\n",
            BASE.replace("exact,tcl2", "oracle,exact") + "couplings = 0.1,0.25,-0.05,0.3\n",
            BASE.replace("exact,tcl2", "exact,nz2") + "solver_step = 0.01\n"
            "solver_tolerance = 1e-9\noutput_dir = somewhere\n",
        ],
        ids=["alpha", "couplings", "solver-keys"],
    )
    def test_resolved_config_parses_back(self, tmp_path, text):
        path = write_config(tmp_path, text)
        cfg, out = parse_config(path), tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == EXIT_OK
        prefix = "# resolved_config: "
        echoed = [l[len(prefix):] for l in (out / "report.csv").read_text().splitlines()
                  if l.startswith(prefix)]
        assert parse_config(write_config(tmp_path, "\n".join(echoed), name="echo.cfg")) == cfg

    def test_figure_and_config_file_share_the_check(self, tmp_path):
        with pytest.raises(ConfigError) as from_figure:
            figure_config(5, dt=-1.0)
        with pytest.raises(ConfigError) as from_file:
            parse_config(write_config(tmp_path, BASE.replace("dt = 0.5", "dt = -1")))
        assert str(from_figure.value) == str(from_file.value) == "dt must be finite and > 0"

    def test_readme_config_block(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(write_config(tmp_path, block))
        assert (cfg.N, cfg.methods, cfg.output_dir) == (101, ("exact", "tcl2", "nz2"), "out")
        # every key is documented, the commented-out optional ones included
        documented = set(re.findall(r"^#?\s*(\w+)\s*=", block, re.M))
        assert documented == {f.name for f in fields(ScenarioConfig)} | {"alpha"}
