"""One benchmark job in a fresh process: run ``fedspectra.cli.main`` once.

Usage: python3 perfbench/child.py JOB_JSON

JOB_JSON holds ``argv`` (the CLI arguments), ``out`` (the output directory),
``config`` (the config file that ``argv`` names), ``trace`` (0 or 1),
``run_id`` (tags the job's spans), ``spans`` (where a traced job writes its spans) and
``result`` (where this process writes its measurements as JSON).

The clock starts after numpy and the package are imported and stops when
``cli.main`` returns, by which point every artifact has been written.
Besides the wall time, the job records the time spent inside
``cli.build_experiment`` and inside ``run_fedavg`` (with the rounds it ran)
by timing those two calls in the ``cli`` namespace, and the process's peak
resident memory.

After the timed call an untraced job runs ``cli.build_experiment`` again,
a few times within SETUP_REPEAT_BUDGET_S, to give more set-up samples: on
the small workloads one set-up takes tens of milliseconds, too short for a
single sample per job to be steady. The first, in-job sample is kept with
them.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401  (imported before the clock starts)

import fedspectra  # noqa: E402
import fedspectra.cli as cli  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


SETUP_REPEAT_BUDGET_S = 0.3
SETUP_REPEATS_MAX = 9


class _Timed:
    """Accumulates the wall time of calls to one function."""

    def __init__(self, fn, count=None):
        self.fn = fn
        self.count = count
        self.seconds = 0.0
        self.counted = 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
        if self.count is not None:
            self.counted += self.count(result)
        return result


def blas_threads():
    """Thread count that the loaded OpenBLAS reports, or None when it cannot
    be asked (another BLAS, or a symbol name this does not know)."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def repeat_setup(config_path, first):
    """Set-up samples: ``first`` plus repeats while they fit the budget."""
    cfg = cli.parse_config(Path(config_path).read_text())
    samples = [first]
    spent = 0.0
    while len(samples) <= SETUP_REPEATS_MAX and spent + samples[-1] <= SETUP_REPEAT_BUDGET_S:
        start = time.perf_counter()
        cli.build_experiment(cfg)
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return samples


def _artifact_bytes(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    source = Path(fedspectra.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"fedspectra imported from {source}, not from {ROOT / 'src'}")

    tracer = None
    if job["trace"]:
        tracer = Tracer(run_id=job["run_id"])
        tracer.install()
    # Installed after the tracer, so these wrap its wrappers in the cli
    # namespace and the tracer's identity match never sees them.
    setup = _Timed(cli.build_experiment)
    fedavg = _Timed(cli.run_fedavg, count=lambda r: len(r.traces))
    cli.build_experiment = setup
    cli.run_fedavg = fedavg

    start = time.perf_counter()
    code = cli.main(job["argv"])
    wall = time.perf_counter() - start

    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": setup.seconds,
        "fedavg_s": fedavg.seconds,
        "rounds": fedavg.counted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": _artifact_bytes(job["out"]),
        "blas_threads": blas_threads(),
    }
    if tracer is None:
        cli.build_experiment = setup.fn
        result["setup_samples"] = repeat_setup(job["config"], setup.seconds)
    else:
        tracer.uninstall()
        tracer.write_csv(job["spans"])
        stats, covered = summarize(tracer.spans)
        result.update(layers=stats, absent=tracer.absent, covered_s=covered)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
