import os
import resource
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture
def run_capped():
    """Run Python source in a child process whose address space is capped at ``cap_mib`` MiB.

    The cap (RLIMIT_AS) is set in the child only, and BLAS runs on one thread
    so its buffers do not scale with the core count.  The sector sweeps still
    run up to two threads, one per allowed CPU: their tile buffers share one
    budget, but each thread's stack counts toward the cap, and a thread that
    cannot start leaves its share of the sweep to the calling thread.
    """

    def run(source: str, cap_mib: int) -> subprocess.CompletedProcess:
        cap = cap_mib * 2**20

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-c", source], env=env, preexec_fn=limit_address_space,
            capture_output=True, text=True, timeout=300,
        )

    return run


@pytest.fixture
def on_the_tiles(monkeypatch):
    """Every sector sum on the tiles, as on a non-uniform grid, whatever the grid.

    Returns the list of (populations, coherence) of every ``trajectory._tiles`` call
    from then on, so a test can check that the tiles it steers to did run.
    """
    from spinstar import trajectory

    calls, tiles = [], trajectory._tiles

    def spy(params, fam, t, populations, coherence, *rest):
        calls.append((populations, coherence))
        return tiles(params, fam, t, populations, coherence, *rest)

    monkeypatch.setattr(trajectory, "_uniform_step", lambda t: None)
    monkeypatch.setattr(trajectory, "_tiles", spy)
    return calls
