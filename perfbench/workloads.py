"""The benchmark's four workloads.

Each workload is a closed loop with one caller: a fixed list of jobs run in
order, the next job starting when the previous one returns, in this process
with ``workers=1``.  A workload builds its inputs from the seed in its
constructor (that is the set-up the benchmark times), and ``run_pass`` runs
the job list once and returns per-job latencies and the outputs to check.

Outputs are checked against ``expected.json``, recorded at ``DEFAULT_SEED``.
A value that depends on the seed is compared only at that seed; at any seed
every exit code must be 0, every witness must pass ``verify`` at its cap,
every refutation must stay a refutation, and every pass must repeat the
first pass's outputs exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_csv_body(path):
    """sha256 of a sweep CSV without its wall-clock ``# generated`` line."""
    with open(path) as fh:
        body = "".join(ln for ln in fh if not ln.startswith("# generated"))
    return hashlib.sha256(body.encode()).hexdigest()


class Job:
    """One unit of work.  ``outputs`` maps the job's return value to the
    dict of outputs that are checked; ``seeded`` marks jobs whose recorded
    outputs hold only at the default seed."""

    def __init__(self, name, run, outputs, seeded):
        self.name = name
        self.run = run
        self.outputs = outputs
        self.seeded = seeded


class Workload:
    key_job = None  # the job whose latency the table prints as ``key_job_metric``
    key_job_metric = None

    def __init__(self, seed, workdir):
        import toursub.cli

        self.seed = seed
        self.workdir = Path(workdir)
        self.cli = toursub.cli
        self.jobs = []
        self.current = None  # name of the running job

    def run_pass(self, tracer=None, pass_id=0):
        """Run every job once.  Returns (wall seconds, latency samples by
        name, outputs by job); outputs are computed after the wall clock
        stops."""
        latency, results = {}, {}
        start = perf_counter()
        for job in self.jobs:
            self.current = job.name
            if tracer is not None:
                tracer.job = f"{pass_id}:{job.name}"
            t0 = perf_counter()
            try:
                results[job.name] = job.run()
            except Exception as exc:  # counted as a failed operation
                traceback.print_exc()
                results[job.name] = exc
            latency[job.name] = perf_counter() - t0
        wall = perf_counter() - start
        self.current = None
        if tracer is not None:
            tracer.job = None
        outputs = {}
        for job in self.jobs:
            result = results[job.name]
            outputs[job.name] = ({"exception": repr(result)} if isinstance(result, Exception)
                                 else job.outputs(result))
        return wall, self.samples(latency), outputs

    def samples(self, latency):
        return {"key_job": [latency[self.key_job]]}

    def problems(self, outputs):
        """Seed-independent checks of one pass, beyond exit codes and
        recorded outputs, as (job name, message) pairs."""
        return []

    def checks_once(self, outputs):
        """Checks too costly to repeat every pass."""
        return []

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main([str(a) for a in argv])


class PaperCli(Workload):
    """What a user runs at paper scale: generate, find at scale 1, verify."""

    key_job = "find-complete"
    key_job_metric = "find_complete_s_p50"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rot = self.workdir / "rotational2095.txt"
        rnd = self.workdir / "random1350.txt"
        w_complete = self.workdir / "complete.json"
        w_tt3 = self.workdir / "tt3.json"
        steps = [
            ("gen-rotational", ["gen", "--kind", "rotational", "--n", 2095, "--out", rot], rot, False),
            ("find-complete", ["find", "complete", "--input", rot, "--k", 3, "--out", w_complete],
             w_complete, False),
            ("verify-complete", ["verify", "--input", rot, "--witness", w_complete, "--max-len", 3],
             None, False),
            ("gen-random", ["gen", "--kind", "random", "--n", 1350, "--seed", seed, "--out", rnd],
             rnd, True),
            ("find-tt3", ["find", "tt3", "--input", rnd, "--k", 3, "--out", w_tt3], w_tt3, True),
            ("verify-tt3", ["verify", "--input", rnd, "--witness", w_tt3], None, True),
        ]
        for name, argv, out_file, seeded in steps:
            self.jobs.append(Job(name, lambda argv=argv: self._cli(argv),
                                 self._outputs_of(out_file), seeded))

    @staticmethod
    def _outputs_of(out_file):
        if out_file is None:
            return lambda code: {"exit": code}
        return lambda code: {"exit": code, "sha256": _sha256_file(out_file) if code == 0 else None}


class Sweep(Workload):
    """``experiment soundness-sweep`` over acceptance-6 configs.  At the
    default seed the sweep seeds are the acceptance-6 seeds; another seed
    shifts every sweep seed by the same amount."""

    configs = ()  # (finder, k, n, scale, acceptance seed, trials)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for finder, k, n, scale, base_seed, trials in self.configs:
            name = f"{finder}-k{k}"
            out = self.workdir / f"sweep-{name}.csv"
            argv = ["experiment", "soundness-sweep", "--finder", finder, "--k", k, "--n", n,
                    "--scale", scale, "--seed", base_seed + seed - DEFAULT_SEED,
                    "--trials", trials, "--workers", 1, "--out", out]
            self.jobs.append(Job(
                name, lambda argv=argv: self._cli(argv),
                lambda code, out=out: {"exit": code,
                                       "body_sha256": _sha256_csv_body(out) if code == 0 else None},
                True))


class SweepCut(Sweep):
    """Host generation and the whole cut pipeline plus the tt3 recursion;
    no text parsing, no aux graph.  The acceptance-6 configs, except that
    the complete k=3 sweep, the key job, runs 300 trials instead of 100 (its
    first 100 rows are the acceptance-6 rows): at 100 trials it is under 1 s
    and too short a sample of the run."""

    key_job = "complete-k3"
    key_job_metric = "complete_k3_s_p50"
    configs = (
        ("complete", 2, 240, "1/96", 21, 100),
        ("complete", 3, 240, "1/96", 22, 300),
    ) + tuple(("tt3", k, max(80, 15 * k * k), "1/12", 30 + k, 100) for k in range(2, 7))


class SweepOnesub(Sweep):
    """The onesub configs, where the aux graph dominates.  The first 24 of
    the acceptance-6 trials (four per host kind): the full 100 take about
    22 s, longer than one run."""

    key_job = "onesub-k4"
    key_job_metric = "onesub_k4_s_p50"
    configs = tuple(("onesub", k, 140 * k, "1/16", 40 + k, 24) for k in (3, 4))


def load_bench_search():
    """``benchmarks/bench_search.py``, imported from the checkout so the
    oracle workload uses its workload list rather than a copy."""
    path = ROOT / "benchmarks" / "bench_search.py"
    spec = importlib.util.spec_from_file_location("bench_search", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # so traced runs rebind its imports too
    spec.loader.exec_module(module)
    return module


def relabel(t, perm):
    """The isomorphic copy of ``t`` in which vertex v is called perm[v]."""
    from toursub.core import Tournament, bits_of

    out = [0] * t.n
    for v in t.vertices():
        for w in bits_of(t.out_mask(v)):
            out[perm[v]] |= 1 << perm[w]
    return Tournament(out)


class Oracle(Workload):
    """Exact queries through ``oracle_subdivision`` and ``scan_d_lower``.

    Refutations exhaust the search tree, so their node counts do not depend
    on vertex labels, and non-containment is invariant under isomorphism:
    each refutation host is relabeled by a seeded permutation (the identity
    at the default seed), which changes the input without changing the
    cost.  Finds stop at the first witness, so their cost depends on the
    labels; they keep the fixed hosts of ``bench_search.WORKLOADS``.
    """

    key_job_metric = "refute_s_p50"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import toursub.oracle
        from toursub._kernel import available_backends, backend_name
        from toursub.core import random_tournament
        from toursub.oracle import OracleQuery
        from toursub.subdivision import parse_pattern

        self.oracle = toursub.oracle
        self.backend = backend_name()
        self.backends = available_backends()
        self.bench = load_bench_search()
        self.records = []  # (seconds, job, host, query, outcome) per oracle query
        self._install_probe()

        queries = []
        for label, host, spec, max_len, exact_len in self.bench.WORKLOADS:
            if spec.startswith("transitive:"):
                # random(14) transitive:5 exact 2 takes ~10 s on the pure
                # backend, most of a run; random(12) and random(13) give the
                # same kind of refutation in about 1 s each.
                for n in (12, 13):
                    queries.append(("refute", f"random({n}) {spec} exact {exact_len}",
                                    random_tournament(n, 0), spec, max_len, exact_len))
            elif label.startswith("blowup(5)"):
                queries.append(("refute", label, host, spec, max_len, exact_len))
            else:
                # rotational(11) complete:4 cap 2 is labelled a refutation in
                # bench_search.py, but the oracle finds a witness there.
                queries.append(("find", label, host, spec, max_len, exact_len))
        rng = random.Random(seed)
        self.queries = {}
        for role, label, host, spec, max_len, exact_len in queries:
            if role == "refute" and seed != DEFAULT_SEED:
                perm = list(range(host.n))
                rng.shuffle(perm)
                host = relabel(host, perm)
            name = f"{role}: {label}"
            query = OracleQuery(parse_pattern(spec), max_len=max_len, exact_len=exact_len)
            self.queries[name] = (host, query)
            self.jobs.append(Job(
                name, lambda host=host, query=query: self.oracle.oracle_subdivision(host, query),
                lambda outcome: {"status": outcome.status, "nodes": outcome.nodes},
                role == "refute"))
        for name, k, n_values, trials in (("scan-dk k=3 n=7..10", 3, [7, 8, 9, 10], 50),
                                          ("scan-dk k=2 n=4..5 exhaustive", 2, [4, 5], 0)):
            self.jobs.append(Job(
                name,
                lambda k=k, n_values=n_values, trials=trials:
                    self.oracle.scan_d_lower(k, n_values, trials, self.seed),
                self._scan_outputs, trials > 0))

    def _install_probe(self):
        """Time every oracle query at its public function.  ``scan_d_lower``
        calls ``oracle_subdivision`` through the module global, so the probe
        sees its queries too.  It costs two clock reads per query."""
        inner = self.oracle.oracle_subdivision
        records = self.records

        def probed(t, query):
            t0 = perf_counter()
            outcome = inner(t, query)
            records.append((perf_counter() - t0, self.current, t, query, outcome))
            return outcome

        self.oracle.oracle_subdivision = probed

    @staticmethod
    def _scan_outputs(rows):
        stable = [{k: v for k, v in row.items() if k != "millis"} for row in rows]
        digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
        return {"queries": len(rows), "found": sum(r["contains"] for r in rows),
                "rows_sha256": digest}

    def run_pass(self, tracer=None, pass_id=0):
        self.records.clear()
        return super().run_pass(tracer, pass_id)

    def samples(self, latency):
        # The key latency here is that of the refutations.
        return {
            "key_job": [dt for dt, job, _, _, _ in self.records if job.startswith("refute")],
            "find": [dt for dt, _, _, _, outcome in self.records if outcome.found],
        }

    def problems(self, outputs):
        from toursub.subdivision import verify

        bad = []
        for _, job, t, query, outcome in self.records:
            if outcome.found and not verify(t, outcome.subdivision, max_len=query.max_len,
                                            exact_len=query.exact_len).valid:
                bad.append((job, f"oracle witness fails verify: {query}"))
        for name in self.queries:
            if name.startswith("refute") and outputs[name].get("status") != "not_found":
                bad.append((name, f"refutation returned {outputs[name]}"))
        return bad

    def checks_once(self, outputs):
        """bench_search's cross-backend parity: status, branch, internals and
        nodes agree on every available backend, and nodes match the timed run."""
        if len(self.backends) < 2:
            return []
        bad = []
        for name, (host, query) in self.queries.items():
            results = {backend: self.bench.run(search, host, query.pattern, query.max_len,
                                               query.exact_len)
                       for backend, search in self.backends.items()}
            if len({str(r) for r in results.values()}) != 1:
                bad.append((name, f"backend results diverged: {results}"))
            if results[self.backend][3] != outputs[name].get("nodes"):
                bad.append((name, "nodes differ from the timed run"))
        return bad
