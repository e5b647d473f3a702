"""fedspectra benchmark: run one workload for a fixed time and report metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --write-reference

Run it from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. The loop is closed: this process runs one job at
a time, each job in a fresh child process (``child.py``) that calls
``fedspectra.cli.main`` once with a config generated from the seed. Jobs
start until the next one would end past ``--seconds``.

With ``--trace 0`` every job is untraced and the result holds the end-to-end
metrics:

- ``wall_s``: median over jobs of the time from ``cli.main`` to every
  artifact being on disk, in a fresh process after imports;
- ``setup_s``: median time of ``cli.build_experiment`` (data, preprocessing,
  partition, init and the ``lambda_min`` spectrum);
- ``rounds_per_s``: rounds completed per second spent in ``run_fedavg``;
- ``peak_rss_mb``: median peak resident memory of a job's process.

``failed_frac`` (jobs that failed a check over jobs attempted) is printed
but is not a metric of the result line, because it is 0 whenever the
benchmark is correct; ``attempted`` and ``failed`` carry it.

With ``--trace 1`` traced and untraced jobs alternate; the result holds the
per-layer metrics of the traced jobs (``<module>.<function>.calls``,
``.self_s`` and ``.total_s`` per job, ``cli.artifact_bytes``,
``trace.self_coverage``), and ``trace.overhead_s``, the traced minus the
untraced median wall time.

Every job's outputs are checked (see ``workloads.check_outputs``); the
primary artifact must also repeat byte for byte across the run's jobs. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the benchmark
could not run at all (for instance, no ``src/fedspectra`` in the checkout).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# A run must end within 180 s; a job still running this long after the run
# started is killed and counted as failed.
HARD_LIMIT_S = 165.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# BLAS runs single-threaded in this process and in every job. On a shared
# 2-core machine, two BLAS threads made the run-to-run spread of relu-train
# about twice as wide (9% against 4% of the median wall time), because one
# delayed thread stalls every parallel BLAS call. The setting is made in this
# process's environment and passed to the children, nowhere else.
BLAS_THREADS = 1


def blas_env():
    threads = str(min(BLAS_THREADS, nproc()))
    return {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}


def git_commit():
    """Commit of the checkout, read from .git without running git, which
    would search the directories above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy, runtime_threads):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": runtime_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples above it,
    as (percentile, value), or None when there are too few samples."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = int(p / 100.0 * n)  # samples at or below the percentile
        if n - rank >= 10 and rank >= 1:
            return p, ordered[rank - 1]
    return None


def describe(name, unit, values):
    if not values:
        return f"{name:>14} [{unit}]: no samples"
    line = f"{name:>14} [{unit}]: median {statistics.median(values):.6g}  n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return line + "  (no tail percentile: fewer than 11 samples)"
    return line + f"  p{tail[0]:g} {tail[1]:.6g}"


class Run:
    """One benchmark run: the jobs of one workload and seed."""

    def __init__(self, workload, seed, seconds, trace, workloads):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.wl = workloads
        self.started = time.monotonic()
        self.dir = WORK / f"run-{os.getpid()}"
        self.env = dict(os.environ, **blas_env())
        self.jobs = []  # one dict per job: traced, seconds, result, problems
        self.first_digest = None

    def prepare(self, with_reference=True):
        self.command, self.config, self.expect = self.wl.prepare(
            self.workload, self.seed, self.dir / "input"
        )
        self.reference = None
        if with_reference and self.seed == self.wl.REFERENCE_SEED:
            self.reference = json.loads(REFERENCE.read_text())[self.workload]

    def run_job(self, traced):
        index = len(self.jobs)
        out = self.dir / f"job-{index}"
        job = {
            "argv": [self.command, "--config", str(self.config), "--out", str(out)],
            "config": str(self.config),
            "out": str(out),
            "trace": int(traced),
            "run_id": index,
            "spans": str(WORK / f"spans-{self.workload}.csv"),
            "result": str(self.dir / f"job-{index}.json"),
        }
        job_path = self.dir / f"job-{index}.in.json"
        job_path.write_text(json.dumps(job))
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        start = time.monotonic()
        result, problems, summary = None, [], None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            problems.append(f"job {index} killed after {budget:.0f} s")
        else:
            if proc.returncode != 0:
                problems.append(f"job {index}: child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                result = json.loads(Path(job["result"]).read_text())
                problems.extend(self.check(result, out))
                if not problems:
                    summary = self.wl.summarize_outputs(self.command, out)
        self.jobs.append(
            {
                "traced": traced,
                "seconds": time.monotonic() - start,
                "result": result,
                "problems": problems,
                "summary": summary,
            }
        )
        shutil.rmtree(out, ignore_errors=True)

    def check(self, result, out):
        if result["exit_code"] != 0:
            return [f"fedspectra exited {result['exit_code']}"]
        problems = self.wl.check_outputs(
            self.workload, self.command, out, self.expect, self.reference
        )
        artifact = out / self.wl.primary_artifact(self.command)
        if not artifact.is_file():
            return problems
        digest = self.wl.digest(artifact)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"{self.wl.primary_artifact(self.command)} differs from the first job's")
        return problems

    def loop(self):
        """Alternate the job modes until the next job would overrun the run
        time; every mode runs at least once."""
        modes = (False, True) if self.trace else (False,)
        deadline = self.started + self.seconds
        while True:
            traced = modes[len(self.jobs) % len(modes)]
            self.run_job(traced)
            if self.jobs[-1]["result"] is None:
                break
            if len(self.jobs) < len(modes):
                continue
            upcoming = modes[len(self.jobs) % len(modes)]
            expected = statistics.median(j["seconds"] for j in self.jobs if j["traced"] == upcoming)
            if time.monotonic() + expected > deadline:
                break

    def samples(self, traced, key):
        return [j["result"][key] for j in self.jobs if j["traced"] == traced and j["result"]]

    def end_to_end(self):
        walls = self.samples(False, "wall_s")
        setups = [s for samples in self.samples(False, "setup_samples") for s in samples]
        rss = self.samples(False, "peak_rss_mb")
        return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}

    def rounds_per_s(self):
        """Rounds completed per second spent inside run_fedavg, pooled over
        the untraced jobs: a verify job spends under a second there, so one
        job's rate is too short a sample to take a median of."""
        seconds = sum(self.samples(False, "fedavg_s"))
        return sum(self.samples(False, "rounds")) / seconds if seconds > 0 else 0.0

    def per_layer(self, traced_names):
        traced = [j["result"] for j in self.jobs if j["traced"] and j["result"]]
        metrics = {}
        for name in traced_names:
            for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
                values = [r["layers"].get(name, {}).get(field, 0) for r in traced]
                metrics[f"{name}.{field}"] = (values, unit)
        metrics["cli.artifact_bytes"] = ([r["artifact_bytes"] for r in traced], "bytes")
        metrics["trace.self_coverage"] = ([r["covered_s"] / r["wall_s"] for r in traced], "fraction")
        untraced_wall = self.samples(False, "wall_s")
        overhead = []
        if traced and untraced_wall:
            overhead = [statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced_wall)]
        metrics["trace.overhead_s"] = (overhead, "s")
        absent = sorted({a for r in traced for a in r["absent"]})
        return metrics, absent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="run every workload once at the reference seed and store its outputs",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def write_reference(wl):
    """Run each workload once at the reference seed and store what the
    reference comparison looks at."""
    reference = {}
    for workload in wl.WORKLOADS:
        run = Run(workload, wl.REFERENCE_SEED, 0.0, False, wl)
        try:
            run.prepare(with_reference=False)
            run.loop()
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        job = run.jobs[0]
        if job["problems"]:
            print(f"{workload}: {job['problems']}", file=sys.stderr)
            return 1
        reference[workload] = job["summary"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def report(args, workload, numpy, tracer, wl):
    """Run one workload and print its table and result line."""
    run = Run(workload, args.seed, args.seconds, bool(args.trace), wl)
    try:
        run.prepare()
        run.loop()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    attempted = len(run.jobs)
    failed = sum(1 for j in run.jobs if j["problems"])
    runtime_threads = next((j["result"]["blas_threads"] for j in run.jobs if j["result"]), None)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print("env " + json.dumps(environment(numpy, runtime_threads), sort_keys=True))
    for j in run.jobs:
        for problem in j["problems"]:
            print(f"FAILED: {problem}")
    print("job seconds " + " ".join(f"{'T' if j['traced'] else 'U'}{j['seconds']:.3f}" for j in run.jobs))
    print(f"{'failed_frac':>14} [fraction]: {failed / attempted:.6g}  ({failed} of {attempted} jobs)")

    metrics = {}
    if args.trace:
        layers, absent = run.per_layer(tracer.TRACED_NAMES)
        for name, (values, unit) in layers.items():
            value = statistics.median(values) if values else 0.0
            metrics[name] = {"value": value, "unit": unit}
        print(f"traced jobs {sum(j['traced'] for j in run.jobs)}, untraced jobs "
              f"{sum(not j['traced'] for j in run.jobs)}")
        print(describe("trace overhead", "s", layers["trace.overhead_s"][0]))
        print(describe("self coverage", "fraction", layers["trace.self_coverage"][0]))
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
    else:
        samples = run.end_to_end()
        for name, unit in END_TO_END:
            if name == "rounds_per_s":
                value = run.rounds_per_s()
                rounds = sum(run.samples(False, "rounds"))
                print(f"{name:>14} [{unit}]: {value:.6g}  ({rounds} rounds over {len(samples['wall_s'])} jobs)")
            else:
                print(describe(name, unit, samples[name]))
                value = statistics.median(samples[name]) if samples[name] else 0.0
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fedspectra" / "cli.py").is_file():
        print(f"no fedspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(blas_env())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import tracer
    import workloads as wl

    if args.write_reference:
        return write_reference(wl)
    if args.workload == "all":
        chosen = wl.WORKLOADS
    elif args.workload in wl.WORKLOADS:
        chosen = (args.workload,)
    else:
        print(f"unknown workload {args.workload!r}; choose from all, {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    for workload in chosen:
        report(args, workload, numpy, tracer, wl)
    return 0


if __name__ == "__main__":
    sys.exit(main())
