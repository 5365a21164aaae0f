"""Closed-loop benchmark of mackeykit: one client, one process, one thread.

    python3 perfbench/run.py --workload field-decide --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
The workload is a fixed job list generated from the seed.  Each pass over the
list runs in a fresh worker process (worker.py) that imports ``mackeykit``,
builds the inputs and sends the jobs one after another, each as soon as the
previous one finished.  Passes are started one after another for as long as
the next one is expected to end within ``--seconds`` (always at least one);
then set-up-only workers are started until there are at least five set-ups.
Every output is checked against an oracle outside the timed region.

Job and set-up times are CPU time of the worker process.  The benchmark is
single-threaded computation, so that is the time the work itself costs; wall
clock on a shared machine adds whatever other tenants take, in bursts of
seconds to minutes.  Wall-clock figures are printed and stored beside them.
Every job run is one latency sample; ``setup_s`` is the median set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced, and prints the per-layer metrics (see tracer.py).
The last line of standard output is one JSON object; the lines before it are
a readable summary prefixed with ``#``.  Result files, and the spans of a
traced run, go to ``perfbench/out/``.
"""

import os

# one thread for numpy and any BLAS / OpenMP pool; the workers inherit these
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
# the same seed gives the same inputs, set iteration order included
os.environ["PYTHONHASHSEED"] = "0"

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
CPU, WALL = 0, 1            # positions of the two clocks in a job's record


def _worker(workload, seed, mode):
    """Run worker.py in a fresh process and return its JSON result."""
    workdir = tempfile.mkdtemp(prefix=f"docs-{workload}-", dir=OUT)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


class Passes:
    """The job results of independent passes over one job list."""

    def __init__(self, results):
        self.labels = results[0]["labels"]
        for res in results:
            if res["labels"] != self.labels:
                raise RuntimeError("the same seed built two different job lists")
        self.results = results
        self.failures = [(self.labels[i], *failure)
                         for res in results
                         for i, (_, _, failure) in enumerate(res["jobs"]) if failure]

    @property
    def attempted(self):
        return sum(len(res["jobs"]) for res in self.results)

    def busy(self, clock):
        return sum(job[clock] for res in self.results for job in res["jobs"])

    def timings(self, clock):
        """Jobs that succeeded per second of job time, and the percentiles
        of the time of every job run in every pass."""
        times = sorted(job[clock] for res in self.results for job in res["jobs"])
        return {"jobs_per_s": (self.attempted - len(self.failures)) / sum(times),
                "job_ms_p50": 1000 * statistics.median(times),
                "job_ms_p90": 1000 * _percentile(times, 0.90)}


def _revision():
    """Git revision when the checkout has .git, and a digest of src/ always."""
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        rev = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def _run_info(args, versions):
    rev, src_digest = _revision()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), **versions,
            "git_revision": rev, "src_sha256": src_digest,
            "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                       "OPENBLAS_NUM_THREADS",
                                                       "MKL_NUM_THREADS")}}


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mackeykit" / "__init__.py").is_file():
        print(f"error: no mackeykit sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def worker(mode):
        return _worker(args.workload, args.seed, mode)

    extra = {}
    if args.trace:
        plain, traced = worker("pass"), worker("traced")
        passes = Passes([plain, traced])
        values = traced["layers"]
        values["trace.overhead.ratio"] = (sum(j[WALL] for j in traced["jobs"])
                                          / sum(j[WALL] for j in plain["jobs"]))
        wanted = spec["per_layer"]
    else:
        results, start = [], perf_counter()
        while True:
            results.append(worker("pass"))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(results) > args.seconds:
                break
        setups = results + [worker("setup")
                            for _ in range(SETUP_REPEATS - len(results))]
        passes = Passes(results)
        values = passes.timings(CPU)
        values["setup_s"] = statistics.median(s["setup_cpu_s"] for s in setups)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
        extra["wall"] = passes.timings(WALL)
        extra["wall"]["setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)
        extra["setup_cpu_s"] = [s["setup_cpu_s"] for s in setups]
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = passes.failures
    wrong = [f for f in failures if f[1] == "wrong"]
    attempted, failed = passes.attempted, len(failures)
    info = _run_info(args, passes.results[0]["versions"])
    runs = [(job[CPU], job[WALL], passes.labels[i])
            for res in passes.results for i, job in enumerate(res["jobs"])]
    busy_by_kind = {}
    for res in passes.results:
        for kind, job in zip(res["kinds"], res["jobs"]):
            busy_by_kind[kind] = busy_by_kind.get(kind, 0.0) + job[CPU]
    info.update(passes=len(passes.results), jobs_per_pass=len(passes.labels),
                samples=attempted, failed_ratio=failed / attempted,
                cpu_over_wall=passes.busy(CPU) / passes.busy(WALL),
                busy_cpu_s_by_kind=busy_by_kind, **extra,
                failures=failures,
                slowest_jobs_ms=[(label, 1000 * cpu, 1000 * wall)
                                 for cpu, wall, label in sorted(runs, reverse=True)[:10]],
                job_cpu_ms=[[label, [1000 * res["jobs"][i][CPU] for res in passes.results]]
                            for i, label in enumerate(passes.labels)])

    hidden = ("failures", "slowest_jobs_ms", "job_cpu_ms")
    print("# run: " + json.dumps({k: v for k, v in info.items() if k not in hidden}))
    for label, cpu_ms, wall_ms in info["slowest_jobs_ms"]:
        print(f"# slow job {cpu_ms:10.1f} ms cpu {wall_ms:10.1f} ms wall  {label}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(f"# samples = {attempted} job runs ({len(passes.results)} passes of "
          f"{len(passes.labels)}), {attempted - math.ceil(0.9 * attempted)} beyond p90")
    print(f"# failed_ratio = {failed / attempted} ({failed} of {attempted})")
    for label, category, detail in failures:
        print(f"# failed [{category}] {label}: {detail}")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
