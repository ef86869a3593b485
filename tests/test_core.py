import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.core import (
    Tournament,
    _try_short_path,
    bits_of,
    blowup_cyclic_triangle,
    format_tournament,
    generate,
    induced,
    parse_tournament,
    random_tournament,
    rotational_tournament,
    tournament_hash,
    transitive_tournament,
)


def cyclic_triangle():
    return Tournament([0b010, 0b100, 0b001])


# --- generators -----------------------------------------------------------


def test_transitive_degrees():
    t = transitive_tournament(3)
    assert [t.out_degree(v) for v in t.vertices()] == [2, 1, 0]


def test_rotational_regular():
    t = rotational_tournament(5)
    assert all(t.out_degree(v) == 2 and t.n - 1 - t.out_degree(v) == 2 for v in t.vertices())


@pytest.mark.parametrize("n", [1, 3, 7, 15, 21])
def test_rotational_is_half_regular(n):
    t = rotational_tournament(n)
    h = (n - 1) // 2
    assert all(t.out_degree(v) == h for v in t.vertices())


def test_rotational_even_rejected():
    with pytest.raises(ValueError):
        rotational_tournament(6)


def test_nonpositive_sizes_rejected():
    for gen in (transitive_tournament, lambda n: random_tournament(n, 0)):
        with pytest.raises(ValueError):
            gen(0)
    with pytest.raises(ValueError):
        blowup_cyclic_triangle(0)


def test_blowup_degrees_match_first_principles():
    t = blowup_cyclic_triangle(4)
    assert t.n == 12
    # Independent recount straight from the defining rule.
    def beats(i, j):
        ci, pi = divmod(i, 4)
        cj, pj = divmod(j, 4)
        if ci == cj:
            return pi < pj
        return (cj - ci) % 3 == 1

    for i in range(12):
        expected = sum(1 for j in range(12) if j != i and beats(i, j))
        assert t.out_degree(i) == expected
    degs = [t.out_degree(v) for v in t.vertices()]
    assert min(degs) == 4 and max(degs) == 7


def test_random_deterministic_and_seeded():
    a = random_tournament(40, 123)
    b = random_tournament(40, 123)
    c = random_tournament(40, 124)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        generate("random", 10)  # seed required


def test_generate_dispatch():
    assert generate("transitive", 4) == transitive_tournament(4)
    assert generate("rotational", 7) == rotational_tournament(7)
    assert generate("blowup_cyclic_triangle", 2) == blowup_cyclic_triangle(2)
    assert generate("random", 9, seed=5) == random_tournament(9, 5)
    with pytest.raises(ValueError):
        generate("nope", 3)


def any_tournament(draw):
    kind = draw(st.sampled_from(["random", "transitive", "rotational", "blowup"]))
    if kind == "random":
        return random_tournament(draw(st.integers(2, 40)), draw(st.integers(0, 2**32)))
    if kind == "transitive":
        return transitive_tournament(draw(st.integers(2, 40)))
    if kind == "rotational":
        return rotational_tournament(2 * draw(st.integers(1, 20)) + 1)
    return blowup_cyclic_triangle(draw(st.integers(1, 13)))


tournaments = st.composite(any_tournament)()


@given(tournaments)
@settings(max_examples=60, deadline=None)
def test_handshake(t):
    outs = [t.out_degree(v) for v in t.vertices()]
    assert all(o + t.in_mask(v).bit_count() == t.n - 1 for v, o in enumerate(outs))
    assert sum(outs) == t.n * (t.n - 1) // 2
    assert parse_tournament(format_tournament(t)) == t


# --- degrees -----------------------------------------------------------------


def test_degree_profile_examples():
    def min_degrees(t):
        return (min(t.out_degree(v) for v in t.vertices()),
                min(t.n - 1 - t.out_degree(v) for v in t.vertices()))

    assert min_degrees(transitive_tournament(4)) == (0, 0)
    assert min_degrees(rotational_tournament(7)) == (3, 3)
    assert sum(map(random_tournament(10, 1).out_degree, range(10))) == 45


@given(tournaments, st.integers(0, 45))
@settings(max_examples=60, deadline=None)
def test_low_degree_count_bound(t, bound):
    # At most 2*bound+1 vertices can have in-degree (out-degree) <= bound.
    assert sum(t.n - 1 - t.out_degree(v) <= bound for v in t.vertices()) <= 2 * bound + 1
    assert sum(t.out_degree(v) <= bound for v in t.vertices()) <= 2 * bound + 1


# --- induced ----------------------------------------------------------------


def test_induced_examples():
    t = induced(transitive_tournament(5), [0, 2, 4])
    assert t == transitive_tournament(3)

    t5 = transitive_tournament(5)
    assert induced(t5, range(5)) == t5

    sub = induced(rotational_tournament(7), [0, 1, 2])
    assert sorted((sub.out_degree(v) for v in sub.vertices()), reverse=True) == [2, 1, 0]


def test_induced_label_composition():
    # Vertex i of an induced copy is the i-th lowest chosen vertex, so nested
    # calls compose by indexing the sorted vertex lists.
    root = random_tournament(8, 2)
    mid_vertices = [1, 3, 4, 6]
    leaf = induced(induced(root, mid_vertices), [0, 2, 3])
    assert leaf == induced(root, [1, 4, 6])


def test_induced_errors():
    with pytest.raises(ValueError):
        induced(transitive_tournament(3), [])
    with pytest.raises(ValueError):
        induced(transitive_tournament(3), [5])


# --- text format -------------------------------------------------------------


def test_format_parse_round_trip():
    for t in (Tournament([0]), cyclic_triangle(), transitive_tournament(6), random_tournament(17, 3)):
        assert parse_tournament(format_tournament(t)) == t


def test_parse_errors():
    good = format_tournament(transitive_tournament(3))
    cases = [
        (good.replace("tournament v1", "tournament v2"), "missing 'tournament v1' header"),
        ("tournament v1\n2\n-x\n0-\n", r"bad character 'x' at \(0,1\)"),
        # both directions claimed
        ("tournament v1\n2\n-1\n1-\n", "both directions present between 0 and 1"),
        # diagonal must be '-'
        ("tournament v1\n2\n11\n0-\n", r"diagonal entry \(0,0\) must be '-'"),
        # two rows of the right length for n=3: the row count is what is wrong
        ("tournament v1\n3\n-10\n0-1\n", "expected 3 matrix rows, found 2"),
        ("tournament v1\n3\n-1\n0-1\n00-\n", "row 0 has length 2, expected 3"),
        ("tournament v1\n2\n-0\n0-\n", "orientation is not total"),
        ("tournament v1\n1\n-\n-\n", "expected 1 matrix rows, found 2"),
        ("tournament v1\nthree\n-\n", "bad vertex count line"),
        # int() takes these as 3; the count line is ASCII digits only
        ("tournament v1\n+3\n-11\n0-1\n00-\n", "bad vertex count line"),
        ("tournament v1\n0_3\n-11\n0-1\n00-\n", "bad vertex count line"),
        ("tournament v1\n\u0663\n-11\n0-1\n00-\n", "bad vertex count line"),
        ("tournament v1\n", "bad vertex count line"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_tournament(text)


def test_hash_is_stable_and_distinguishes():
    a = tournament_hash(rotational_tournament(7))
    b = tournament_hash(rotational_tournament(7))
    c = tournament_hash(transitive_tournament(7))
    assert a == b != c
    assert len(a) == 64


# --- short paths ---------------------------------------------------------------


def reference_short_path(t, x, y, avail):
    """The per-candidate walk: the lowest 2-path internal, else the first z
    of out(x) & avail, in ascending order, whose row meets into_y."""
    into_y = t.in_mask(y) & avail
    w = t.out_mask(x) & into_y
    if w:
        return ((w & -w).bit_length() - 1,)
    for z in bits_of(t.out_mask(x) & avail):
        ww = t.out_mask(z) & into_y
        if ww:
            return (z, (ww & -ww).bit_length() - 1)
    return None


@pytest.mark.parametrize("n, seed", [(2, 0), (9, 1), (40, 2), (130, 3), (300, 4)])
def test_short_path_matches_the_per_candidate_walk(n, seed):
    t = random_tournament(n, seed)
    rng = random.Random(seed)
    kinds = {0: 0, 1: 0, 2: 0, None: 0}
    for _ in range(400):
        x, y = rng.randrange(n), rng.randrange(n)
        # Small masks often leave no 2-path, or no path at all.
        size = rng.choice([1, 2, 3, 4, 8, n // 4, n // 2, n])
        avail = sum(1 << v for v in rng.sample(range(n), min(size, n)))
        avail &= ~(1 << x | 1 << y)
        found = _try_short_path(t, x, y, avail)
        assert found == reference_short_path(t, x, y, avail)
        kinds[None if found is None else len(found)] += 1
    assert kinds[None] and (n < 9 or kinds[1] and kinds[2])
