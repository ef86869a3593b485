"""Per-layer tracing for the benchmark's traced runs.

The program has no spans of its own yet, so the tracer wraps each layer's
public function from outside: it rebinds the function's name in every
module namespace that holds it (``toursub.core.induced`` and
``toursub.transitive_finder.induced`` alike), so calls between modules and
within a module both pass through the wrapper.  Spans stay in memory as
(name, start, end, parent span, job id) and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Every layer the benchmark reports, as ``<module under toursub>.<function>``.
LAYERS = (
    "cli.main",
    "core.parse_tournament",
    "core.format_tournament",
    "core.tournament_hash",
    "core.random_tournament",
    "core.rotational_tournament",
    "core.induced",
    "experiments.build_host",
    "experiments.write_csv",
    "complete_finder.find_complete_subdivision_ex",
    "complete_finder.peel_low_outdegree",
    "complete_finder.find_balanced_set",
    "complete_finder.greedy_partial_subdivision",
    "complete_finder.maximize_len2",
    "complete_finder.derive_cut",
    "complete_finder.minimize_cut",
    "complete_finder.embed_via_cut_chain",
    "matching.half_matching",
    "transitive_finder.find_tt_len3",
    "transitive_finder.find_nearly_regular_k",
    "transitive_finder.find_one_subdivision",
    "transitive_finder.build_aux_graph",
    "transitive_finder.ball_decomposition",
    "transitive_finder.partition_components",
    "transitive_finder.transitive_chain",
    "subdivision.verify",
    "subdivision.dump_witness",
    "subdivision.witness_from_json",
    "oracle.oracle_subdivision",
    "oracle.scan_d_lower",
    "_kernel.search_subdivision",
)

KERNEL = "_kernel.search_subdivision"
HALF_MATCHING = "matching.half_matching"
MAXIMIZE_LEN2 = "complete_finder.maximize_len2"
MINIMIZE_CUT = "complete_finder.minimize_cut"


def metric_prefix(layer):
    """A layer's name in metric names, which must start with a letter."""
    return layer.lstrip("_")


def _observers():
    """Counters read from a layer's return value: (layer -> (counter, fn))."""
    from toursub.matching import HalfMatching

    return {
        KERNEL: ("nodes", lambda result: result[3]),
        HALF_MATCHING: ("certified", lambda result: int(isinstance(result, HalfMatching))),
        MAXIMIZE_LEN2: ("successes", lambda result: int(bool(result))),
    }


def per_layer_metric_names():
    """Metric name -> unit for every per-layer metric, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{metric_prefix(layer)}.calls"] = "count"
        names[f"{metric_prefix(layer)}.self_s"] = "s"
        names[f"{metric_prefix(layer)}.share"] = "ratio"
    names[f"{metric_prefix(KERNEL)}.nodes"] = "count"
    names[f"{metric_prefix(KERNEL)}.nodes_per_s"] = "1/s"
    names[f"{HALF_MATCHING}.certified_ratio"] = "ratio"
    names[f"{MINIMIZE_CUT}.repair_steps"] = "count"
    names[f"{MAXIMIZE_LEN2}.success_ratio"] = "ratio"
    names["trace_overhead_ratio"] = "ratio"
    return names


class Tracer:
    """In-memory span recorder; ``install`` wraps every layer in ``LAYERS``."""

    def __init__(self):
        self.spans = []  # index = span id; (name, start, end, parent, job)
        self.counters = Counter()  # (layer, counter name, job) -> total
        self.job = None
        self._stack = []

    def install(self):
        observers = _observers()
        wrappers = {}
        for layer in LAYERS:
            module_name, func_name = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"toursub.{module_name}"], func_name)
            wrappers[id(original)] = self._wrap(layer, original, observers.get(layer))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                # ids are unique here: every original stays alive in its wrapper
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    namespace[attr] = wrapper

    def _wrap(self, layer, fn, observer):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (layer, start, end, parent, self.job)
            if observer is not None:
                counters[(layer, observer[0], self.job)] += observer[1](result)
            return result

        return traced

    def totals(self, job_filter):
        """Per-layer (calls, self seconds) and counters over the spans whose
        job id passes ``job_filter``."""
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for span_id, (name, start, end, parent, job) in enumerate(self.spans):
            if job_filter(job):
                calls[name] += 1
                self_s[name] += (end - start) - child_time[span_id]
        counters = Counter()
        for (layer, counter, job), value in self.counters.items():
            if job_filter(job):
                counters[(layer, counter)] += value
        return calls, self_s, counters

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([span_id, name, start - origin, end - origin, parent, job]))
                fh.write("\n")


def per_layer_metrics(tracer, pass_ids, traced_wall, untraced_wall):
    """Per-layer metrics for the traced passes ``pass_ids`` (job ids start
    with ``"<pass>:"``).  Counts are per pass; they must repeat exactly from
    one traced pass to the next, and a mismatch is returned as an error."""
    per_pass = [tracer.totals(lambda job, p=p: job is not None and job.startswith(f"{p}:"))
                for p in pass_ids]
    errors = []
    first_calls, _, first_counters = per_pass[0]
    for calls, _, counters in per_pass[1:]:
        if calls != first_calls:
            errors.append(f"layer call counts differ between traced passes: "
                          f"{dict(first_calls)} vs {dict(calls)}")
        if counters != first_counters:
            errors.append(f"layer counters differ between traced passes: "
                          f"{dict(first_counters)} vs {dict(counters)}")
    passes = len(pass_ids)
    total_self = defaultdict(float)
    for _, self_s, _ in per_pass:
        for name, value in self_s.items():
            total_self[name] += value
    metrics = {}
    for layer in LAYERS:
        metrics[f"{metric_prefix(layer)}.calls"] = first_calls[layer]
        metrics[f"{metric_prefix(layer)}.self_s"] = total_self[layer] / passes
        metrics[f"{metric_prefix(layer)}.share"] = total_self[layer] / traced_wall
    nodes = first_counters[(KERNEL, "nodes")]
    metrics[f"{metric_prefix(KERNEL)}.nodes"] = nodes
    kernel_s = total_self[KERNEL] / passes
    metrics[f"{metric_prefix(KERNEL)}.nodes_per_s"] = nodes / kernel_s if kernel_s > 0 else 0.0
    hm_calls = first_calls[HALF_MATCHING]
    certified = first_counters[(HALF_MATCHING, "certified")]
    metrics[f"{HALF_MATCHING}.certified_ratio"] = certified / hm_calls if hm_calls else 0.0
    # half_matching is called only from minimize_cut: each uncertified call
    # is one violator replacement step.
    metrics[f"{MINIMIZE_CUT}.repair_steps"] = hm_calls - certified
    ml2_calls = first_calls[MAXIMIZE_LEN2]
    successes = first_counters[(MAXIMIZE_LEN2, "successes")]
    metrics[f"{MAXIMIZE_LEN2}.success_ratio"] = successes / ml2_calls if ml2_calls else 0.0
    metrics["trace_overhead_ratio"] = (traced_wall / passes) / untraced_wall
    return metrics, errors
