"""The time chunks of the exact, TCL2 and NZ2 tiles run on ``trajectory._sweep``'s
worker threads; no bit depends on how many there are."""

import hashlib
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from spinstar import exact, masters, trajectory
from spinstar.cli import EXIT_CAPACITY, EXIT_NUMERIC, main
from spinstar.exact import exact_trajectory
from spinstar.masters import _solve, tcl2_population_m
from spinstar.sectors import SystemParams
from spinstar.volterra import NumericsError

PARAMS = SystemParams(N=5, A=0.08, omega0=1.1, initial_p_plus=0.7, initial_coh=0.25 - 0.15j)
GRIDS = {"geometric": np.concatenate([[0.0], np.geomspace(0.05, 80.0, 90)]),
         "uniform": np.linspace(0.0, 25.0, 127)}
#: room for the 2-time chunks of 8 workers on the longest chain of N = 5 (6 sectors)
#: at 48 bytes per point: every worker count below runs in full, on many chunks
BUDGET = 8 * 2 * 48 * 6


def _workers(monkeypatch, n):
    monkeypatch.setattr(trajectory, "_workers", lambda: n)


def _count_thread_starts(monkeypatch):
    """A list that grows by one for every thread started from now on."""
    started, start = [], threading.Thread.start

    def counting(self):
        start(self)
        started.append(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def _record_sweeps(monkeypatch):
    """One dict per ``_sweep`` call: its bytes per time, its workers, the bytes of the
    buffers it allocates, and the (start, stop) of every chunk it runs."""
    calls, sweep = [], trajectory._sweep

    def recording(n_times, bytes_per_time, buffers, group):
        call = {"bytes_per_time": bytes_per_time, "chunks": []}
        calls.append(call)

        def counted(n, width):
            bufs = buffers(n, width)
            call.update(workers=n, buffer_bytes=sum(buf.nbytes for buf in bufs))
            return bufs

        def recorded(chunks, *bufs):
            call["chunks"].extend((sl.start, sl.stop) for sl in chunks)
            group(chunks, *bufs)

        sweep(n_times, bytes_per_time, counted, recorded)

    monkeypatch.setattr(trajectory, "_sweep", recording)
    return calls


def _arrays(method, family, t):
    """Every array of ``_solve`` with sectors, totals from the tiles."""
    traj, bundle = _solve(PARAMS, t, method, family, sectors=True)
    tiles_only = _solve(PARAMS, t, method, family)[0]
    return [traj.p_plus, traj.coh, tiles_only.p_plus, tiles_only.coh, bundle.p_plus,
            bundle.p_minus, bundle.coh]


def _exact_tiles(t):
    """P_+ and coherence of the exact sums, and P_+ alone, on a grid that takes the tiles."""
    traj = exact._exact(PARAMS, t, True, True)
    return [traj.p_plus, traj.coh, exact._exact(PARAMS, t, True, False).p_plus]


ROUTES = {f"{method}-{family}": lambda t, method=method, family=family: _arrays(method, family, t)
          for method in ("tcl2", "nz2") for family in ("m", "jm")}
ROUTES["exact-tiles"] = _exact_tiles


@pytest.mark.parametrize("grid", GRIDS.keys())
@pytest.mark.parametrize("solve", ROUTES.values(), ids=ROUTES.keys())
def test_worker_count_changes_no_bit(monkeypatch, solve, grid):
    t = GRIDS[grid]
    # the totals from the tiles on the uniform grid too, not from trajectory._exp_sum
    monkeypatch.setattr(trajectory, "_uniform_step", lambda t: None)
    whole = solve(t)  # one chunk
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", BUDGET)
    started = _count_thread_starts(monkeypatch)
    calls = _record_sweeps(monkeypatch)
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        del started[:], calls[:]
        got = solve(t)
        assert (len(started) > 0) == (n > 1)
        assert calls and all(call["workers"] == n for call in calls)
        for a, b in zip(got, whole, strict=True):
            np.testing.assert_array_equal(a, b)


def test_more_workers_than_cpus_under_frequent_thread_switches(monkeypatch):
    t = GRIDS["geometric"]
    ref = _arrays("tcl2", "jm", t) + _arrays("nz2", "m", t) + _exact_tiles(t)
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", BUDGET)
    _workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _arrays("tcl2", "jm", t) + _arrays("nz2", "m", t) + _exact_tiles(t)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, ref, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("solve, n_spins, workers", [
    (tcl2_population_m, 10**4, 5), (tcl2_population_m, 10**5, 1), (exact_trajectory, 10**4, 20),
], ids=["N=1e4", "N=1e5", "exact-N=1e4"])
def test_many_workers_keep_to_one_budget(monkeypatch, solve, n_spins, workers):
    # the m family is one chain of N + 1 sectors, a block of its own at 40 bytes per
    # sector-time point: the 2-time chunks of 5 workers fit the budget at N = 10^4, and
    # at N = 10^5 one worker's alone overflow it; 40 times leave no 1-time tail.  The
    # exact sums of N = 10^4 split their 218089 jm sectors into blocks sized for 64
    # workers, and the 20 chunks of 2 times give 20 of them work
    p = SystemParams(N=n_spins, A=0.1 / (2 * n_spins), omega0=1.0, initial_p_plus=0.7,
                     initial_coh=0.3 + 0.1j)
    t = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 39)])
    _workers(monkeypatch, 1)
    ref = solve(p, t)
    _workers(monkeypatch, 64)
    calls = _record_sweeps(monkeypatch)
    got = solve(p, t)
    (call,) = calls
    assert call["workers"] == workers
    assert call["buffer_bytes"] <= max(trajectory._CHUNK_BYTES, 2 * call["bytes_per_time"])
    np.testing.assert_array_equal(got.p_plus, ref.p_plus)
    if ref.coh is not None:
        np.testing.assert_array_equal(got.coh, ref.coh)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_tiles_stay_wide_whatever_the_worker_count(monkeypatch, workers):
    # the TCL2-jm tiles and the exact tiles at N = 101 on 2001 geometric times (on
    # closed_form_long's uniform grid both take the exponential-sum kernel): the
    # workers divide the sector blocks, not the chunk width, so every chunk but the
    # last is _CHUNK_WIDTH wide or wider
    p = SystemParams(N=101, A=0.1 / 202, omega0=1.0, initial_p_plus=0.7, initial_coh=0.3 + 0.1j)
    geometric = np.concatenate([[0.0], np.geomspace(0.05, 1000.0, 2000)])
    _workers(monkeypatch, workers)
    calls = _record_sweeps(monkeypatch)
    masters.tcl2_jm(p, geometric)
    exact_trajectory(p, geometric)
    assert len(calls) == 2
    for call in calls:
        assert call["workers"] == workers
        chunks = sorted(call["chunks"])
        assert chunks[0][0] == 0 and chunks[-1][1] == 2001
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert min(stop - start for start, stop in chunks[:-1]) >= trajectory._CHUNK_WIDTH


def test_the_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert trajectory._workers() == trajectory._MAX_WORKERS == 2
    monkeypatch.setattr(trajectory.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert trajectory._workers() == 1


class _Boom(Exception):
    pass


def _raise_off_the_calling_thread(monkeypatch, exc):
    """TCL2 fills that raise ``exc`` on every thread but the main one, over 2 workers."""
    fill = masters._tcl2_fill

    def failing(*args):
        chunk, *terms = fill(*args)

        def per_chunk(sl, *parts):
            if threading.current_thread() is not threading.main_thread():
                raise exc
            return chunk(sl, *parts)

        return per_chunk, *terms

    monkeypatch.setattr(masters, "_tcl2_fill", failing)
    monkeypatch.setattr(trajectory, "_uniform_step", lambda t: None)  # the tiles on any grid
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", BUDGET)
    _workers(monkeypatch, 2)


def test_an_exception_in_a_worker_reaches_the_caller(monkeypatch):
    before = threading.active_count()
    _raise_off_the_calling_thread(monkeypatch, _Boom("group 1"))
    with pytest.raises(_Boom, match="group 1"):
        _solve(PARAMS, GRIDS["uniform"], "tcl2", "jm")
    assert threading.active_count() == before


@pytest.mark.parametrize("exc, code, message", [
    (MemoryError(), EXIT_CAPACITY, "capacity exceeded: out of memory"),
    (NumericsError("in a worker"), EXIT_NUMERIC, "numeric failure: in a worker"),
], ids=["memory", "numerics"])
def test_a_failing_worker_sets_the_exit_code_and_writes_nothing(monkeypatch, capsys, tmp_path,
                                                                exc, code, message):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("N = 5\nomega0 = 1.1\nA = 0.08\nt_max = 25.0\ndt = 0.2\n"
                   "methods = exact,tcl2\nprojection = jm\n")
    before = threading.active_count()
    _raise_off_the_calling_thread(monkeypatch, exc)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"spinstar: {message}\n"
    assert not out.exists()
    assert threading.active_count() == before


def test_a_thread_that_cannot_start_runs_on_the_caller(monkeypatch):
    t = GRIDS["geometric"]
    ref = _arrays("tcl2", "jm", t) + _exact_tiles(t)
    monkeypatch.setattr(trajectory, "_CHUNK_BYTES", BUDGET)
    _workers(monkeypatch, 3)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    before = threading.active_count()
    got = _arrays("tcl2", "jm", t) + _exact_tiles(t)
    assert threading.active_count() == before
    for a, b in zip(got, ref, strict=True):
        np.testing.assert_array_equal(a, b)


_CAPPED_CHILD = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from spinstar import trajectory
    from spinstar.masters import tcl2_population_m
    from spinstar.sectors import SystemParams

    trajectory._workers = lambda: 8
    p = SystemParams(N=1000, A=0.1 / 2000, omega0=1.0, initial_p_plus=0.7)
    traj = tcl2_population_m(p, np.concatenate([[0.0], np.geomspace(0.05, 8000.0, 16000)]))
    print(hashlib.sha256(traj.p_plus.tobytes()).hexdigest())
    """
)


def test_eight_workers_fit_a_memory_cap(monkeypatch, run_capped):
    # thread stacks count toward the address-space cap: with 8 MiB stacks most of
    # the 7 threads cannot start under 256 MiB, and their groups run on the caller.
    # The grid is geometric, so the populations run the tiles, not trajectory._exp_sum
    proc = run_capped(_CAPPED_CHILD, cap_mib=256)
    assert proc.returncode == 0, proc.stderr[-2000:]
    _workers(monkeypatch, 1)
    p = SystemParams(N=1000, A=0.1 / 2000, omega0=1.0, initial_p_plus=0.7)
    geometric = np.concatenate([[0.0], np.geomspace(0.05, 8000.0, 16000)])
    ref = tcl2_population_m(p, geometric).p_plus
    assert proc.stdout.split()[-1] == hashlib.sha256(ref.tobytes()).hexdigest()


_COMPARE = """N = 101
omega0 = 1.0
alpha = 0.1
t_max = 1000.0
dt = 0.5
methods = exact,tcl2,nz2
projection = jm
initial_p_plus = 0.7
coh_re = 0.3
coh_im = 0.1
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least 2 CPUs")
def test_outputs_do_not_depend_on_the_cpus_a_run_may_use(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_COMPARE)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    allowed = os.sched_getaffinity(0)
    for name, cpus in (("one", {min(allowed)}), ("all", allowed)):
        proc = subprocess.run(
            [sys.executable, "-m", "spinstar.cli", "compare", "--config", str(cfg),
             "--out", str(tmp_path / name)],
            env=env, preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    one, every = tmp_path / "one", tmp_path / "all"
    names = sorted(p.name for p in one.iterdir())
    assert names == ["exact_none.csv", "nz2_jm.csv", "report.csv", "tcl2_jm.csv"]
    assert names == sorted(p.name for p in every.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (every / name).read_bytes(), name
