"""One set-up, and at most one pass of a workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <setup|pass|traced> <workdir>

run.py starts one of these for every pass and every extra set-up, so each
pass runs on inputs built for it alone, in a process where no module has been
imported before: nothing one pass leaves behind (caches, interned objects,
garbage) reaches the next, and the first import is a cold one.

Set-up is ``import mackeykit`` (numpy and everything else it imports
included) plus building the job list from the seed.  ``setup`` stops there,
``pass`` then runs every job once and checks it, and ``traced`` does the same
under the tracer.  Times are taken twice: as CPU time of this process
(``time.process_time``) and as wall-clock time.  The last line of standard
output is one JSON object.
"""

import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_job(job, tracer=None):
    """Run one job: [cpu seconds, wall seconds, failure or None]."""
    c0, w0 = process_time(), perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            tracer.active = True
            try:
                with tracer.job():
                    result = job.run()
            finally:
                tracer.active = False
        error = None
    except Exception as exc:             # a raising job is a failed job
        error = exc
    cpu, wall = process_time() - c0, perf_counter() - w0
    if error is not None:
        failure = ("wrong", f"raised {type(error).__name__}: {error}")
    else:
        try:
            failure = job.check(result)
        except Exception as exc:
            failure = ("wrong", f"oracle raised {type(exc).__name__}: {exc}")
    return [cpu, wall, failure]


def main(argv) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, str(SRC))
    import workloads                     # imports nothing from numpy or mackeykit
    build = workloads.WORKLOADS[workload]

    c0, w0 = process_time(), perf_counter()
    import mackeykit
    import mackeykit.cli
    jobs = build(mackeykit, seed, workdir)
    out = {"setup_cpu_s": process_time() - c0, "setup_wall_s": perf_counter() - w0}
    if Path(mackeykit.__file__).resolve().parent != (SRC / "mackeykit").resolve():
        raise ImportError(f"mackeykit came from {mackeykit.__file__}, not from {SRC}")

    out["labels"] = [job.label for job in jobs]
    out["kinds"] = [job.kind for job in jobs]
    if mode == "pass":
        out["jobs"] = [run_job(job) for job in jobs]
    elif mode == "traced":
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        try:
            out["jobs"] = [run_job(job, tr) for job in jobs]
        finally:
            tr.uninstall()
        out["layers"] = tr.metrics()
        tr.write_spans(HERE / "out" / f"spans-{workload}-seed{seed}.tsv")
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")

    import numpy
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
