import math
import os
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from spinstar import exact, trajectory
from spinstar.exact import exact_coherence, exact_population_plus, exact_trajectory
from spinstar.oracle import propagate
from spinstar.sectors import SystemParams, sector_family


def two_spin_survival(A, omega0, t):
    """Independent N=2 formula: the only flipping sectors are (j=1, m=0) and (j=1, m=-1).

    F(t) = 1 - w [4A^2 b / mu^2] sin^2(mu t) summed over the two sectors,
    with w = 1/4, b = 2 for both.
    """
    mu1 = math.sqrt(0.25 * (omega0 + 2 * A) ** 2 + 8 * A * A)  # (j=1, m=0)
    mu2 = math.sqrt(0.25 * (omega0 - 2 * A) ** 2 + 8 * A * A)  # (j=1, m=-1)
    return (
        1.0
        - 2 * A * A * np.sin(mu1 * t) ** 2 / mu1**2
        - 2 * A * A * np.sin(mu2 * t) ** 2 / mu2**2
    )


class TestSurvival:
    def test_frozen_two_spin_value(self):
        p = SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=1.0)
        traj = exact_population_plus(p, np.array([0.0, 1.0]))
        assert traj.p_plus[0] == 1.0
        np.testing.assert_allclose(traj.p_plus[1], 0.9643162170024157, rtol=1e-13)

    def test_two_spin_against_independent_formula(self):
        p = SystemParams(N=2, A=0.13, omega0=0.9, initial_p_plus=1.0)
        t = np.linspace(0.0, 30.0, 301)
        traj = exact_population_plus(p, t)
        np.testing.assert_allclose(
            traj.p_plus, two_spin_survival(0.13, 0.9, t), rtol=0, atol=1e-14
        )

    def test_initial_value_is_exact(self):
        for p0 in (0.0, 0.3, 1.0):
            p = SystemParams(N=7, A=0.21, omega0=1.3, initial_p_plus=p0)
            traj = exact_population_plus(p, np.array([0.0, 0.7]))
            assert traj.p_plus[0] == p0  # identity by algebraic form, not rounding

    def test_decoupled_limit_is_constant(self):
        p = SystemParams(N=9, A=0.0, omega0=1.0, initial_p_plus=0.42)
        traj = exact_population_plus(p, np.linspace(0.0, 50.0, 101))
        np.testing.assert_array_equal(traj.p_plus, 0.42)

    def test_population_bounds(self):
        p = SystemParams(N=11, A=0.4, omega0=0.7, initial_p_plus=0.8)
        traj = exact_population_plus(p, np.linspace(0.0, 40.0, 801))
        assert np.all(traj.p_plus >= -1e-12) and np.all(traj.p_plus <= 1.0 + 1e-12)
        np.testing.assert_allclose(traj.p_plus + traj.p_minus, 1.0, atol=1e-15)

    def test_general_p0_by_linearity(self):
        t = np.linspace(0.0, 20.0, 101)
        kw = dict(N=6, A=0.17, omega0=1.1)
        up = exact_population_plus(SystemParams(initial_p_plus=1.0, **kw), t)
        dn = exact_population_plus(SystemParams(initial_p_plus=0.0, **kw), t)
        mix = exact_population_plus(SystemParams(initial_p_plus=0.3, **kw), t)
        np.testing.assert_allclose(
            mix.p_plus, 0.3 * up.p_plus + 0.7 * dn.p_plus, rtol=0, atol=1e-15
        )


class TestCoherence:
    def test_initial_value_is_exact(self):
        c0 = 0.2 - 0.35j
        p = SystemParams(N=5, A=0.19, omega0=1.0, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.array([0.0, 2.0]))
        assert traj.coh[0] == c0

    def test_decoupled_limit_is_constant_in_rotating_frame(self):
        c0 = 0.1 + 0.4j
        p = SystemParams(N=4, A=0.0, omega0=2.0, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.linspace(0.0, 30.0, 61))
        np.testing.assert_allclose(traj.coh, c0, rtol=0, atol=1e-14)

    def test_zero_initial_coherence_stays_zero(self):
        p = SystemParams(N=6, A=0.2, omega0=1.0, initial_p_plus=1.0)
        traj = exact_coherence(p, np.linspace(0.0, 10.0, 21))
        np.testing.assert_array_equal(traj.coh, 0.0)

    def test_magnitude_never_exceeds_initial(self):
        # each sector factor has modulus <= 1 and the weights sum to 1
        c0 = 0.5
        p = SystemParams(N=9, A=0.35, omega0=0.8, initial_p_plus=0.5, initial_coh=c0)
        traj = exact_coherence(p, np.linspace(0.0, 60.0, 1201))
        assert np.max(np.abs(traj.coh)) <= abs(c0) + 1e-12

    def test_proportional_to_initial_coherence(self):
        t = np.linspace(0.0, 15.0, 151)
        kw = dict(N=5, A=0.22, omega0=1.2, initial_p_plus=0.5)
        a = exact_coherence(SystemParams(initial_coh=0.5, **kw), t)
        b = exact_coherence(SystemParams(initial_coh=0.1 - 0.2j, **kw), t)
        np.testing.assert_allclose(
            b.coh, (0.1 - 0.2j) / 0.5 * a.coh, rtol=0, atol=1e-15
        )


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "N, A, omega0, geometric",
        [
            pytest.param(1, 0.13, 0.9, False, id="1"),
            pytest.param(2, 0.13, 0.9, False, id="2"),
            pytest.param(4, 0.13, 0.9, False, id="4"),
            pytest.param(6, 0.13, 0.9, False, id="6"),
            # Omega_+ = 0 exactly, and mu = 0 at (j, m) = (1/2, 1/2)
            pytest.param(3, -0.25, 1.0, False, id="3-resonant"),
            pytest.param(1, 0.13, 0.9, True, id="1-geometric"),
        ],
    )
    def test_full_trajectory(self, N, A, omega0, geometric):
        p = SystemParams(
            N=N, A=A, omega0=omega0, initial_p_plus=0.35, initial_coh=0.2 - 0.3j
        )
        if geometric:
            t = np.concatenate([[0.0], np.geomspace(0.01, 40.0, 100)])
        else:
            t = np.linspace(0.0, 10.0, 101)
        got = exact_trajectory(p, t)
        ref = propagate(p, t)
        np.testing.assert_allclose(got.p_plus, ref.p_plus, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.coh, ref.coh, rtol=0, atol=1e-13)


def test_trajectory_builds_one_sector_table(monkeypatch):
    calls = []

    def counting(params, family):
        calls.append(family)
        return sector_family(params, family)

    p = SystemParams(N=6, A=0.13, omega0=0.9, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.linspace(0.0, 10.0, 101)
    monkeypatch.setattr(exact, "sector_family", counting)
    traj = exact_trajectory(p, t)
    assert calls == ["jm"]
    np.testing.assert_array_equal(traj.p_plus, exact_population_plus(p, t).p_plus)
    np.testing.assert_array_equal(traj.coh, exact_coherence(p, t).coh)


def test_time_chunks_do_not_change_the_result(monkeypatch):
    p = SystemParams(N=7, A=0.21, omega0=1.3, initial_p_plus=0.35, initial_coh=0.2 - 0.3j)
    t = np.linspace(0.0, 20.0, 60)
    whole = exact_trajectory(p, t)
    n_sectors = sector_family(p, "jm").w.size
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", 16 * n_sectors * 7)  # 7 times per chunk
    assert len(list(trajectory._time_chunks(t.size, 16 * n_sectors))) == 9
    chunked = exact_trajectory(p, t)
    np.testing.assert_allclose(chunked.p_plus, whole.p_plus, rtol=0, atol=1e-15)
    np.testing.assert_allclose(chunked.coh, whole.coh, rtol=0, atol=1e-15)


_CAPPED_CHILD = textwrap.dedent(
    """
    import numpy as np
    from spinstar.exact import exact_trajectory
    from spinstar.sectors import SystemParams

    p = SystemParams(N=400, A=0.5 / 800, omega0=1.0, initial_p_plus=0.7, initial_coh=0.25 - 0.1j)
    traj = exact_trajectory(p, 0.5 * np.arange(512))
    assert traj.p_plus[0] == 0.7 and traj.coh[0] == 0.25 - 0.1j
    """
)


def test_large_bath_fits_a_memory_cap():
    # 40401 (j, m) sectors x 512 times: a (sectors, times) complex temporary
    # alone is 331 MB, so this passes only if the sector sums are chunked
    cap = 512 * 2**20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD], env=env, preexec_fn=limit_address_space,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestValidation:
    def test_bad_grids(self):
        p = SystemParams(N=2, A=0.1, omega0=1.0)
        with pytest.raises(ValueError):
            exact_population_plus(p, np.array([]))
        with pytest.raises(ValueError):
            exact_population_plus(p, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            exact_coherence(p, np.array([0.0, np.inf]))
