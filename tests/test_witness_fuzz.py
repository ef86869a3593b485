"""``toursub verify`` on arbitrary and mutated witness JSON.

Whatever the witness file holds, the command ends with exit code 0 or 2 and
a report, or exit code 1 and an ``error:`` message; it never raises.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.cli import main

KEYS = ["pattern", "k", "edges", "branch", "paths", "from", "to", "internals", "host_hash"]

scalars = (st.none() | st.booleans() | st.integers() | st.integers(-3, 25)
           | st.floats() | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), inner,
                                     max_size=5)),
    max_leaves=12,
)
cap_args = st.sampled_from([[], ["--max-len", "1"], ["--max-len", "4"], ["--exact-len", "2"]])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A host and a valid witness on it: complete:2, with its host hash."""
    root = tmp_path_factory.mktemp("verify")
    host, wit = root / "t.txt", root / "w.json"
    assert main(["gen", "--kind", "rotational", "--n", "21", "--out", str(host)]) == 0
    assert main(["find", "complete", "--input", str(host), "--k", "2",
                 "--out", str(wit)]) == 0
    return host, wit, json.loads(wit.read_text())


def run_verify(host, wit, text, caps):
    wit.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", str(host), "--witness", str(wit), *caps])
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert err.startswith("error: "), err
    else:
        assert code in (0, 2), code
        assert out or err
        if out:
            assert json.loads(out)["valid"] is (code == 0)
    return code


def slots(doc):
    """Every (container, key) in ``doc``, outermost first."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


@st.composite
def mutations(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "delete", "insert", "nudge", "nudge"]))
        where = [(node, key) for node, key in slots(doc)
                 if op != "nudge" or type(node[key]) is int]
        if not where:
            continue
        node, key = draw(st.sampled_from(where))
        if op == "replace":
            node[key] = draw(json_values)
        elif op == "delete":
            del node[key]
        elif op == "insert" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS) | st.text(max_size=6))] = draw(json_values)
        elif op == "insert":
            node.insert(key, draw(json_values))
        else:
            v = node[key]
            node[key] = draw(st.sampled_from([float(v), str(v), v == 1, [v], v + 0.5,
                                              v - 1, v + 1, -v - 1, v + 21, v + 10**12]))
    return doc


@given(json_values, cap_args)
@settings(max_examples=150, deadline=None)
def test_arbitrary_json_exits_cleanly(files, value, caps):
    host, wit, _ = files
    code = run_verify(host, wit, json.dumps(value), caps)
    if not isinstance(value, dict):
        assert code == 1


@given(st.data(), cap_args)
@settings(max_examples=400, deadline=None)
def test_mutated_witness_exits_cleanly(files, data, caps):
    host, wit, good = files
    run_verify(host, wit, json.dumps(data.draw(mutations(good))), caps)


def test_the_unmutated_witness_verifies(files):
    host, wit, good = files
    assert run_verify(host, wit, json.dumps(good), ["--max-len", "3"]) == 0
