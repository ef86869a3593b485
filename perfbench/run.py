#!/usr/bin/env python3
"""toursub benchmark: one workload per run, timed end to end or per layer.

    python3 perfbench/run.py --workload paper-cli --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The run sets up the workload, repeats passes over its
job list for about ``--seconds``, checks every output, and prints a table
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced, then two traced passes, and
reports the per-layer metrics (spans go to ``.perfbench-out/``).  Exit code
1 means a check failed; 2 means the program could not be imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = {
    "paper-cli": "PaperCli",
    "sweep-cut": "SweepCut",
    "sweep-onesub": "SweepOnesub",
    "oracle": "Oracle",
}
SETUP_SAMPLES = 9  # set-ups per run: this process plus eight child processes
TRACED_PASSES = 2
PROBE_PERIOD = 0.025  # seconds between two samples of the host's speed


def import_program():
    """Import toursub from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import toursub
    except ImportError as exc:
        print(f"cannot import toursub from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(toursub.__file__).resolve().parent.parent != SRC:
        print(f"toursub was imported from {toursub.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def setup_seconds(args):
    """Set-up time of fresh processes, each measured from its own start."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Checker:
    """Compares each pass's outputs with the recorded ones (at the default
    seed, or for jobs that do not depend on the seed) and with the first
    pass, and counts failed operations."""

    def __init__(self, workload, expected, default_seed):
        self.workload = workload
        self.expected = expected
        self.default = workload.seed == default_seed
        self.first = None
        self.attempted = 0
        self.failures = []

    def check(self, outputs):
        failed = {}
        for job in self.workload.jobs:
            out = outputs[job.name]
            if "exception" in out or out.get("exit", 0) != 0:
                failed[job.name] = f"failed: {out}"
            elif (self.default or not job.seeded) and out != self.expected.get(job.name):
                failed[job.name] = f"output {out} differs from recorded {self.expected.get(job.name)}"
            elif self.first is not None and out != self.first[job.name]:
                failed[job.name] = f"output {out} differs from the first pass {self.first[job.name]}"
        for name, message in self.workload.problems(outputs) + (
                self.workload.checks_once(outputs) if self.first is None else []):
            failed.setdefault(name, message)
        if self.first is None:
            self.first = outputs
        self.attempted += len(self.workload.jobs)
        self.failures.extend(f"{name}: {message}" for name, message in failed.items())

    def fail(self, message):
        self.attempted += 1
        self.failures.append(message)


def percentile(samples, pct):
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def reference_loop():
    """Fixed pure-Python work that ``SpeedProbe`` times."""
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the host's speed while passes run.

    On a shared host the same pass runs up to a third slower for minutes at
    a time, when other tenants are busy: wall seconds of one pass spread
    past a 0.25 bound across ten runs, and no statistic within a run can
    remove a slowdown that lasts the whole run.  A timer signal times
    ``reference_loop`` every ``PROBE_PERIOD`` seconds; a pass's wall time
    divided by the median loop time during the pass moves with the
    program's speed but cancels most of the host's.  The median, not the
    mean, so that a sample the host happened to preempt does not count.
    The samples cost about 0.4% of a pass."""

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def measure(workload, checker, budget):
    """Closed loop: passes back to back while the next one is expected to
    end less than half a pass past ``budget`` seconds (at least one), so the
    passes cover the whole budget.  Returns pass walls, pass times in
    reference units, latency samples and the speed probe's samples."""
    walls, refs, samples = [], [], {}
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            first = len(probe.samples)
            wall, pass_samples, outputs = workload.run_pass()
            refs.append(wall / statistics.median(probe.samples[first:]))
            checker.check(outputs)
            walls.append(wall)
            for name, values in pass_samples.items():
                samples.setdefault(name, []).extend(values)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) / 2 > budget:
                return walls, refs, samples, probe.samples


def end_to_end(args, workload, checker, setup_own):
    walls, refs, samples, probes = measure(workload, checker, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_own] + setup_seconds(args)
    metrics = {
        "pass_ref_p50": (statistics.median(refs), "ref", len(refs)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # Wall seconds are printed, not gated: they carry the host's drift (see
    # SpeedProbe), and a run holds too few single jobs for steady medians.
    report = dict(metrics)
    report["pass_s_p50"] = (statistics.median(walls), "s", len(walls))
    report["probe_s_p50"] = (statistics.median(probes), "s", len(probes))
    key = samples["key_job"]
    report[workload.key_job_metric] = (statistics.median(key), "s", len(key))
    if "find" in samples:
        found = samples["find"]
        report["find_s_p50"] = (statistics.median(found), "s", len(found))
        report["find_s_p90"] = (percentile(found, 90), "s", len(found))
    return metrics, report


def per_layer(args, workload, checker):
    from layers import Tracer, per_layer_metric_names, per_layer_metrics

    walls, _, _, _ = measure(workload, checker, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    traced_wall = 0.0
    for pass_id in range(1, TRACED_PASSES + 1):
        wall, _, outputs = workload.run_pass(tracer, pass_id)
        checker.check(outputs)
        traced_wall += wall
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    values, errors = per_layer_metrics(tracer, list(range(1, TRACED_PASSES + 1)),
                                       traced_wall, statistics.median(walls))
    for message in errors:
        checker.fail(message)
    units = per_layer_metric_names()
    metrics = {name: (values[name], unit, TRACED_PASSES) for name, unit in units.items()}
    return metrics, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args()

    import_program()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = getattr(workloads, WORKLOADS[args.workload])(args.seed, workdir)
        setup_own = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup_own))
            return 0
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)
        checker = Checker(workload, expected[args.workload], workloads.DEFAULT_SEED)
        if args.trace:
            metrics, report = per_layer(args, workload, checker)
        else:
            metrics, report = end_to_end(args, workload, checker, setup_own)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import toursub

    for message in checker.failures:
        print(f"FAILED {message}", file=sys.stderr)
    failed = len(checker.failures)
    print(f"workload {args.workload}  seed {args.seed}  backend {toursub.backend_name()}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print(f"error_ratio {failed}/{checker.attempted} = {failed / checker.attempted:.4g}")
    for name, (value, unit, count) in report.items():
        print(f"{name:58} {value:>16.6g} {unit:6} n={count}")
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
