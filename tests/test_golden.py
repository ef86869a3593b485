"""Golden outputs: sha256 of witnesses, failure traces, cut certificates and
sweep CSV bodies on a fixed corpus of hosts and finders.

The constants were recorded from the code as it stood before the cut types,
failure conversions and sweeps were merged, so any change to a witness, a
trace, a certificate or a CSV byte shows up here.

Every failure stage the complete driver can report is in the corpus where a
seeded host reaches it (``derive-cut``, ``balanced-set``,
``cut-chain-embedding``).  Cut repair has no failure stage of its own: the
dichotomy already rejects a sink smaller than k (``derive-cut``), and the
repair only grows the sink.  ``iterate`` (the working set shrinking below k)
is not reached.

The transitive finders reach ``nearly-regular``, ``aux-graph-precondition``,
``cross-pair-exhaustion``, ``base-transitive`` and the plain ``recursion-size``
(fewer vertices than k).  The two split variants of ``recursion-size`` (a
stuck-pair or component split leaving a side too small) are not in the
corpus: no seeded host reached them in a scan of every sweep generator at
n = 3, 10, ..., 248 (seeds 0-2), tt3 k in {3, 4, 5, 6, 8, 12} and onesub k
in {4, 5, 6, 8}, at scales 1/12, 1/100 and 1/1000.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from toursub import experiments
from toursub.cli import main
from toursub.complete_finder import find_complete_subdivision_ex, find_digraph_subdivision_ex
from toursub.core import bits_of, blowup_cyclic_triangle, rotational_tournament, transitive_tournament
from toursub.errors import FailureTrace
from toursub.experiments import build_host, stacked_clusters, stacked_triangles
from toursub.params import FinderParams
from toursub.subdivision import dump_witness, parse_pattern
from toursub.transitive_finder import find_one_subdivision, find_tt_len3


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cut_tuple(cut):
    return [list(bits_of(cut.cut)), list(bits_of(cut.source)), sorted(cut.m_prime.items()),
            sorted(cut.m_dprime.items())]


def _outcome_text(host, outcome):
    if isinstance(outcome, FailureTrace):
        return json.dumps(outcome.to_json(), sort_keys=True)
    return dump_witness(host, outcome)


def _run(finder, host, arg, scale):
    """(outcome, certified cuts of the run or None) for one corpus entry."""
    if finder == "complete":
        return find_complete_subdivision_ex(host, arg, FinderParams(arg, Fraction(scale)))
    if finder == "digraph":
        pattern = parse_pattern(arg)
        return find_digraph_subdivision_ex(host, pattern, FinderParams(pattern.k, Fraction(scale)))
    fn = find_tt_len3 if finder == "tt3" else find_one_subdivision
    return fn(host, arg, FinderParams(arg, Fraction(scale))), None


# label -> (finder, host factory, k or pattern, scale)
CORPUS = {
    "complete random(60) k3": ("complete", lambda: build_host("random", 60, 0), 3, "1/96"),
    "complete rotational(21) k2": ("complete", lambda: rotational_tournament(21), 2, "1"),
    "complete blowup(4) k3": ("complete", lambda: blowup_cyclic_triangle(4), 3, "1/32"),
    "complete triangles_sparse(240) k3 chain": (
        "complete", lambda: build_host("triangles_sparse", 240, 4), 3, "1/96"),
    "complete triangles_local(240) k3 chain": (
        "complete", lambda: build_host("triangles_local", 240, 3), 3, "1/96"),
    "complete stacked_triangles derive-cut": (
        "complete", lambda: build_host("triangles_sparse", 30, 0), 3, "1/96"),
    "complete stacked_triangles balanced-set": (
        "complete", lambda: build_host("triangles_sparse", 30, 2), 3, "1/96"),
    "complete stacked_triangles flat": (
        "complete", lambda: stacked_triangles(40, 0.0, 2, 1), 3, "1/96"),
    "complete stacked_clusters cut-chain-embedding": (
        "complete", lambda: stacked_clusters(5, 6, 0.1, 1, 0), 3, "1/96"),
    "complete stacked_clusters(240) k3": (
        "complete", lambda: build_host("clusters5", 240, 1), 3, "1/96"),
    "digraph random(30) path low-out-degree": (
        "digraph", lambda: build_host("random", 30, 2), "edges:0>1,1>2", "1/8"),
    "digraph random(30) path cut-chain-embedding": (
        "digraph", lambda: build_host("random", 30, 0), "edges:0>1,1>2", "1/8"),
    "digraph rotational(31) single edge": (
        "digraph", lambda: rotational_tournament(31), "edges:0>1", "1/2"),
    "digraph random(120) cycle:3": (
        "digraph", lambda: build_host("random", 120, 1), "cycle:3", "1/96"),
    "digraph blowup balanced-set": (
        "digraph", lambda: build_host("blowup", 30, 0), "edges:0>1,1>2,2>0,0>3", "1/96"),
    "digraph stacked_clusters derive-cut": (
        "digraph", lambda: build_host("clusters5", 30, 0), "edges:0>1,1>2,2>0,0>3", "1/96"),
    "tt3 random(170) k4": ("tt3", lambda: build_host("random", 170, 2), 4, "1/12"),
    "tt3 rotational(171) k4": ("tt3", lambda: rotational_tournament(171), 4, "1/12"),
    "tt3 stacked_triangles(170) k4": (
        "tt3", lambda: build_host("triangles_sparse", 170, 5), 4, "1/12"),
    "tt3 blowup nearly-regular": ("tt3", lambda: build_host("blowup", 40, 0), 4, "1/12"),
    "tt3 transitive(40) k12": ("tt3", lambda: transitive_tournament(40), 12, "1/1000"),
    "tt3 random(3) k4 recursion-size": ("tt3", lambda: build_host("random", 3, 0), 4, "1/12"),
    "onesub random(40) k4": ("onesub", lambda: build_host("random", 40, 0), 4, "1/12"),
    "onesub random(170) k3": ("onesub", lambda: build_host("random", 170, 2), 3, "1/12"),
    "onesub rotational aux-graph-precondition": (
        "onesub", lambda: rotational_tournament(41), 4, "1/12"),
    "onesub blowup cross-pair-exhaustion": (
        "onesub", lambda: build_host("blowup", 30, 0), 4, "1/1000"),
    "onesub random base-transitive": ("onesub", lambda: build_host("random", 40, 0), 12, "1/1000"),
    "onesub stacked_clusters(280) k4": (
        "onesub", lambda: build_host("clusters5", 280, 3), 4, "1/16"),
}


def _golden_text(finder, host, arg, scale):
    """The bytes pinned for one corpus entry: the witness or the trace, and
    for the cut-chain drivers the certified cuts of the run."""
    outcome, chain = _run(finder, host, arg, scale)
    text = _outcome_text(host, outcome)
    return text if chain is None else text + json.dumps([_cut_tuple(c) for c in chain])


GOLDEN = {
    "complete blowup(4) k3": "d3e8319ea7de223094265e1035d09191b4e458d97a788fc396435b19f96d52b1",
    "complete random(60) k3": "f5a4203dcd8a200fa7f36a0adf718f9ab2231b3877c4b78d688df3a4bf2345a3",
    "complete rotational(21) k2": "0986e05699e6e1e858cc898b4630fe4b6a2ac54f99db78c8adde081b8b0d9f6e",
    "complete stacked_clusters cut-chain-embedding":
        "4d0582be3503d64bcd0b8d0c16a00225e6e6ff00600af3337d08a1fc808e36a1",
    "complete stacked_clusters(240) k3":
        "c568f55139ea0fd5a1221959c38c4f4f92740c6d3ab59e7b1ba5f16636d90cd5",
    "complete stacked_triangles balanced-set":
        "61343e78b3d8fa33d0f2003dceab0d4aa389a4b6c081d7a7ceb982f63df15982",
    "complete stacked_triangles derive-cut":
        "3f157e0006c69c6c34a1a4144982dce788e5ac6902536d2feca9bbec3b6a51ff",
    "complete stacked_triangles flat":
        "4fa20d883fafe07e6d32a46bbfeeccca33560f558925acecae4ed2728cb4a32c",
    "complete triangles_local(240) k3 chain":
        "49b28eeb6c5f56bdeada76170476b705d660a8f7948a9310602157e8e793947e",
    "complete triangles_sparse(240) k3 chain":
        "f520370d0f79824b7a065073fd68d774f2d375740d8e8ea440745350c1a9f213",
    "digraph blowup balanced-set": "b6b9a548b773a4bc34cb8c79da4c5b9c18b644012d5233776c1d8dd3c72aa1ac",
    "digraph random(120) cycle:3": "dfae3e0ef05520dd5cfca57558303618cc509898ad5e087dbdc7b25d29cc5397",
    "digraph random(30) path cut-chain-embedding":
        "e1782bbc51bc890ee927cb5a6a118f98bcf9e31e0108f24c7670000212317737",
    "digraph random(30) path low-out-degree":
        "89c08bbed910888536e638bd82396038f16472144c8a8911de53215967c32c8c",
    "digraph rotational(31) single edge":
        "884fd7020138a4841315e4dbcf618841575040b341a095bf8158f60a3e4ae0ae",
    "digraph stacked_clusters derive-cut":
        "e69a65447819752d036d854c17be8ec0c35039aeb10ed5f3d10e3f9fe82fce54",
    "onesub blowup cross-pair-exhaustion":
        "df2bbdf5898f19cfd1a14ff568d0e78cc180c220ab0da37914075c6d5e64f9b2",
    "onesub random base-transitive": "54a78999a2ac78a9e8bd1dcdfa19c665b990a46058fd4fdb6ca6842f3e851e87",
    "onesub random(170) k3": "68ec9126078906395746ca907c90db5dfb0f65f64ca2a822e3535bc6ea198253",
    "onesub random(40) k4": "bb346f5273853284f56e72127a19433fd8b16cdb0dee35e5e48cc6afdcfbd568",
    "onesub rotational aux-graph-precondition":
        "665b66ceb48dcca48826862e60f84cd0172f820fd8bb423751edeb09a1f8d725",
    "onesub stacked_clusters(280) k4":
        "9079e962efe65a3bf528dadafdbc2e443a6c3dffa4258e4426e2db9a7230bb96",
    "tt3 blowup nearly-regular": "fb2c5a4f829387f7703c1a7480f0b90ac4d001dbf6b9eb9a9263e3078e774d28",
    "tt3 random(170) k4": "d428f0f770fe5a274a19367b094d20940727305d140c97884b8555784cb39b5b",
    "tt3 rotational(171) k4": "29336a3b73b883eb4d2d793bdd648de69dd77b4a2f28efa3d2837c9f92bbbcb2",
    "tt3 stacked_triangles(170) k4":
        "c3f362d3e472cd032e6f819fd8f8e1c811b21141d0d2cd80854c4fef9b33cc66",
    "tt3 transitive(40) k12": "390118204bd321a0624fcc54d227dfaa0e7ea0b370c1128e3fd4e69c92f8b4ec",
    "tt3 random(3) k4 recursion-size":
        "50babf1a75347ccdfb827cac07186bd8faf99af7ddc1115109983f07b764c462",
}


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_golden_outcome(label):
    finder, make_host, arg, scale = CORPUS[label]
    assert _sha(_golden_text(finder, make_host(), arg, scale)) == GOLDEN[label]


def test_golden_corpus_reaches_every_reachable_stage():
    stages = set()
    for finder, make_host, arg, scale in CORPUS.values():
        outcome, _ = _run(finder, make_host(), arg, scale)
        if isinstance(outcome, FailureTrace):
            stages.add((finder, outcome.stage))
    for stage in ("derive-cut", "balanced-set", "cut-chain-embedding"):
        assert ("complete", stage) in stages
    assert {("tt3", "nearly-regular"), ("tt3", "recursion-size"),
            ("onesub", "aux-graph-precondition"),
            ("onesub", "cross-pair-exhaustion"), ("onesub", "base-transitive")} <= stages


SWEEPS = {
    "complete": ["--k", "3", "--n", "150", "--scale", "1/96", "--seed", "3"],
    "tt3": ["--k", "4", "--n", "170", "--scale", "1/12", "--seed", "2"],
    "onesub": ["--k", "3", "--n", "170", "--scale", "1/12", "--seed", "2"],
}

GOLDEN_SWEEP_CSV = {
    "complete": "c3ee606bdee675b543e95d565d0022c0aa0d114a599aae0ffd9cf4a669c64df2",
    "tt3": "59241d7e39a65ed5d66fe9d67a6435904b60146ed6465600e3304069ef6f6c02",
    "onesub": "e47c59cb20097e6429685a8fc5535905cb06ae6d19ac978593735c47dc056752",
}


@pytest.mark.parametrize("finder", sorted(SWEEPS))
def test_golden_sweep_csv(tmp_path, finder):
    out = tmp_path / "sweep.csv"
    argv = ["experiment", "soundness-sweep", "--finder", finder, "--trials", "12",
            *SWEEPS[finder], "--out", str(out)]
    assert main(argv) == 0
    body = "".join(ln for ln in out.read_text().splitlines(keepends=True)
                   if not ln.startswith("# generated"))
    assert _sha(body) == GOLDEN_SWEEP_CSV[finder]


def _complete_sweep_chains(**config):
    """(instance, cut, source, m_prime, m_dprime) for every certified cut
    the library's complete sweep returns."""
    sweep = getattr(experiments, "sweep", None)
    if sweep is None:  # the per-finder sweep functions
        _, records, _ = experiments.sweep_complete(**config)
        chains = [(r.instance, r) for r in records]
    else:
        _, chains, _ = sweep("complete", **config)
    return [[i, *_cut_tuple(c)] for i, c in chains]


GOLDEN_SWEEP_CHAINS = "f4e7c14af08623613cf7daa8a8d05403abcc80ca2f39d562a054b3b0962ff66e"


def test_golden_complete_sweep_chains():
    chains = _complete_sweep_chains(k=3, trials=12, n=150, scale=Fraction(1, 96), seed=3)
    assert chains, "the pinned sweep must certify at least one cut"
    assert _sha(json.dumps(chains)) == GOLDEN_SWEEP_CHAINS
