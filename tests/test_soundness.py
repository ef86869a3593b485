"""Finder soundness as a property.

Every witness a constructive finder returns at a desk scale must pass
``verify`` at the finder's ``VERIFY_CAPS`` entry, and on hosts small enough
for the exact oracle, the oracle must not prove that no such subdivision
exists.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.complete_finder import find_complete_subdivision
from toursub.errors import FailureTrace, ToursubError
from toursub.experiments import SWEEP_KINDS, VERIFY_CAPS, build_host
from toursub.oracle import OracleQuery, oracle_subdivision
from toursub.params import FinderParams
from toursub.subdivision import parse_pattern, verify
from toursub.transitive_finder import find_one_subdivision, find_tt_len3

# finder -> (function, oracle pattern family, smallest k it accepts)
FINDERS = {
    "complete": (find_complete_subdivision, "complete", 2),
    "tt3": (find_tt_len3, "transitive", 1),
    "onesub": (find_one_subdivision, "transitive", 2),
}


@given(
    st.sampled_from(sorted(FINDERS)),
    st.sampled_from(SWEEP_KINDS),
    st.one_of(st.integers(1, 10), st.integers(11, 150)),
    st.integers(0, 2**32),
    st.sampled_from(range(1, 7)),  # uniform, where integers() favours the ends
    st.integers(8, 96),
)
@settings(max_examples=500, deadline=None)
def test_finder_witnesses_verify_and_the_oracle_agrees(finder, kind, n, seed, k, denominator):
    fn, family, k_min = FINDERS[finder]
    k = max(k, k_min)
    t = build_host(kind, n, seed)
    try:
        outcome = fn(t, k, FinderParams(k=k, scale=Fraction(1, denominator)))
    except ToursubError:
        return
    if isinstance(outcome, FailureTrace):
        return
    caps = VERIFY_CAPS[finder]
    report = verify(t, outcome, **caps)
    assert report.valid, report.violations
    if t.n <= 10:
        query = OracleQuery(parse_pattern(f"{family}:{k}"), max_len=caps["max_len"],
                            exact_len=caps.get("exact_len"), node_budget=10**6)
        assert oracle_subdivision(t, query).status != "not_found"
