#!/usr/bin/env python3
"""Record the benchmark's expected outputs and measure its run-to-run spread.

    python3 perfbench/prove.py expected
        Re-record expected.json: one pass of every workload at the default
        seed.  Only for a change that is meant to alter outputs.
    python3 perfbench/prove.py spread --runs 10 [--first-seed 1] [--workload W ...] [--out F]
        Run each workload once per seed and print, for every end-to-end
        metric, the median and the quartile spread (q3 - q1) / median, as
        statistics.quantiles(values, n=4) gives the quartiles.
    python3 perfbench/prove.py traces [--workload W ...]
        Two traced runs per workload at the default seed; every ``.calls``
        count and ``.nodes`` value must be identical across them.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_expected(_args):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    expected = {}
    workdir = ROOT / ".perfbench-out" / f"record-{os.getpid()}"
    for name, cls in (("paper-cli", workloads.PaperCli), ("sweep-cut", workloads.SweepCut),
                      ("sweep-onesub", workloads.SweepOnesub), ("oracle", workloads.Oracle)):
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls(workloads.DEFAULT_SEED, workdir)
            _, _, outputs = workload.run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = workload.problems(outputs) + workload.checks_once(outputs)
        bad = [n for n, out in outputs.items() if "exception" in out or out.get("exit", 0)]
        if problems or bad:
            raise SystemExit(f"{name}: refusing to record failing outputs: {problems} {bad}")
        expected[name] = outputs
        print(name, json.dumps(outputs, indent=1))
    with open(HERE / "expected.json", "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, **expected}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def spread(args):
    config = benchmark_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = args.workload or [w["name"] for w in config["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {}
    for workload in names:
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, 0, config["run_seconds"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(workload, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"median": median, "spread": (q3 - q1) / median,
                            "bound": bounds[metric], "runs": len(vals)}
            steady = metric == "setup_s" or rows[metric]["spread"] < bounds[metric] / 3
            flag = "" if steady else "  WIDE"
            print(f"  {metric:16} median {median:.5g}  spread {rows[metric]['spread']:.4f}"
                  f"  bound {bounds[metric]}{flag}")
        summary[workload] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": seeds, "workloads": summary}, fh, indent=1)


def traces(args):
    config = benchmark_config()
    names = args.workload or [w["name"] for w in config["workloads"]]
    for workload in names:
        runs = [run_once(workload, 0, 1, config["run_seconds"])["metrics"] for _ in range(2)]
        exact = [m for m in runs[0] if m.endswith(".calls") or m.endswith(".nodes")
                 or m.endswith(".repair_steps")]
        differ = [m for m in exact if runs[0][m]["value"] != runs[1][m]["value"]]
        shares = sorted(((v["value"], m[:-len(".share")]) for m, v in runs[0].items()
                         if m.endswith(".share")), reverse=True)[:6]
        print(workload, "identical counts" if not differ else f"DIFFERENT: {differ}",
              "overhead", [round(r["trace_overhead_ratio"]["value"], 3) for r in runs],
              "top shares", [(m, round(s, 3)) for s, m in shares], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("expected").set_defaults(func=record_expected)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--out", help="also write the medians and spreads to this JSON file")
    p.set_defaults(func=spread)
    p = sub.add_parser("traces")
    p.add_argument("--workload", action="append")
    p.set_defaults(func=traces)
    args = parser.parse_args()
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}", flush=True)
    args.func(args)


if __name__ == "__main__":
    main()
