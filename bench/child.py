"""One repetition of one workload, in a fresh process.

Usage: ``python child.py JOB.json`` runs the job and writes its result to the
job's ``result`` path; ``python child.py --probe`` imports spinstar and
prints the interpreter, numpy, scipy and BLAS versions as JSON.

``setup_s`` runs from ``t_spawn``, ``run.py``'s ``time.monotonic()`` just
before it started this process, until spinstar is imported and the inputs
are built; ``wall_s`` from the first solve to the last output written.  The
correctness checks and the output digest run after ``wall_s`` is taken.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def probe() -> dict:
    import platform

    import numpy
    import scipy

    import spinstar.cli  # noqa: F401  (fails here if the package is missing)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, elementwise and LAPACK work.

    It uses no spinstar code, so only the speed of the host moves it.  Its
    elementwise part allocates 8 MB temporaries like the workloads' large
    sector arrays do, which makes it follow the host's memory speed as well;
    it raises the process's peak RSS by about 20 MB.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(150_000):
        total += i % 7
    x = np.linspace(0.0, 1.0, 1 << 19)
    for k in range(4):
        total += float(np.exp(1j * (k + 1) * x).real.sum())
    m = np.cos(np.add.outer(np.arange(160.0), np.arange(160.0)))
    for _ in range(3):
        total += float(np.linalg.eigvalsh(m)[0])
    return time.perf_counter() - start


def run_job(job: dict) -> dict:
    import workloads

    cls = workloads.KINDS[job["kind"]]
    wl = cls(job["inputs"], job["state"], Path(job["config"]))
    wl.setup()
    setup_s = time.monotonic() - job["t_spawn"]

    # a traced repetition calibrates only after its run, so that the
    # calibration's peak RSS does not hide the layers' own rises
    calib_s = [] if job["trace"] else [calibrate()]
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = Path(job["out_dir"])
    start = time.perf_counter()
    out = wl.run(out_dir)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    calib_s.append(calibrate())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "checks": [[name, float(err), float(tol)] for name, err, tol in wl.check(out)],
        "digest": wl.digest(out),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    return result


def main(argv) -> int:
    if argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    job = json.loads(Path(argv[1]).read_text())
    result = run_job(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
