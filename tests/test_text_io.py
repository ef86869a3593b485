"""Tournament text format: the block-wise format, hash and parser against a
per-character reference.

The reference functions below work one character at a time.  The parser
must return the same tournament, or raise ``ValueError`` with the same
message, on every input, wherever its blocks are cut.  A parsed host
carries the hash of its canonical text, which must equal the hash of the
same host built from its rows.
"""

import hashlib
import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toursub.core
from toursub.cli import main
from toursub.core import (
    FORMAT_HEADER,
    Tournament,
    bits_of,
    format_tournament,
    parse_tournament,
    random_tournament,
    rotational_tournament,
    tournament_hash,
    write_tournament,
)

# sha256 of format_tournament on hosts wider than the golden corpus,
# recorded from the per-character implementation.
LARGE_HOST_HASHES = {
    "rotational(2095)": "cfeab4a3a289040264f54f0088c96d5191cdf9c9f8578f32a2f6a55a81d34e41",
    "random(1351, 0)": "1078325352ab8cc2258f0420047743c614178e838f4eed6978ea8baba6be75e9",
}


# --- per-character reference ------------------------------------------------


def reference_validate(out, n):
    for i in range(n):
        if (out[i] >> i) & 1:
            raise ValueError(f"self-loop at vertex {i}")
        if out[i] >> n:
            raise ValueError(f"row {i} has bits beyond vertex count")
    for i in range(n):
        for j in bits_of(out[i]):
            if (out[j] >> i) & 1:
                raise ValueError(f"both directions present between {i} and {j}")
    if sum(r.bit_count() for r in out) != n * (n - 1) // 2:
        raise ValueError("orientation is not total")


def reference_format(t):
    lines = [FORMAT_HEADER, str(t.n)]
    for i in range(t.n):
        row = []
        for j in range(t.n):
            if i == j:
                row.append("-")
            elif t.has_edge(i, j):
                row.append("1")
            else:
                row.append("0")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def reference_parse(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ValueError(f"missing {FORMAT_HEADER!r} header")
    count = lines[1].strip() if len(lines) > 1 else ""
    if not count or any(ch not in "0123456789" for ch in count):
        raise ValueError("bad vertex count line")
    n = int(count)
    if n < 1:
        raise ValueError("vertex count must be positive")
    if len(lines) != n + 2:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 2}")
    rows = [ln.strip() for ln in lines[2:]]
    out = [0] * n
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for j, ch in enumerate(row):
            if i == j:
                if ch != "-":
                    raise ValueError(f"diagonal entry ({i},{j}) must be '-'")
            elif ch == "1":
                out[i] |= 1 << j
            elif ch != "0":
                raise ValueError(f"bad character {ch!r} at ({i},{j})")
    reference_validate(out, n)
    return Tournament(out)


def outcome(fn, *args):
    """The value ``fn`` returns, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# --- strategies --------------------------------------------------------------


@st.composite
def tournaments(draw, max_n=40):
    return random_tournament(draw(st.integers(1, max_n)), draw(st.integers(0, 2**32)))


# Characters a mutation may write: the format's own alphabet (listed twice
# to be drawn more often), characters that int() accepts in a binary
# literal, whitespace and line breaks (which move rows), and a non-ASCII
# digit.
MUTATION_CHARS = "01-01-x_b+ \t\n\r\u0663"
_FLIP = str.maketrans("01", "10")


def mutate(text, pos, op, ch):
    if op == "flip":  # reverses one edge: both directions or neither
        return text[:pos] + text[pos:pos + 1].translate(_FLIP) + text[pos + 1:]
    if op == "replace":
        return text[:pos] + ch + text[pos + 1:]
    if op == "insert":
        return text[:pos] + ch + text[pos:]
    return text[:pos] + text[pos + 1:]


@st.composite
def mutated_texts(draw):
    text = format_tournament(draw(tournaments(max_n=7)))
    for _ in range(draw(st.integers(1, 3))):
        # Three edits in four land past the header and count lines.
        matrix = text.find("\n", text.find("\n") + 1) + 1
        lo = draw(st.sampled_from([matrix, matrix, matrix, 0]))
        pos = draw(st.integers(lo, len(text)))
        op = draw(st.sampled_from(["flip", "flip", "replace", "insert", "delete"]))
        text = mutate(text, pos, op, draw(st.sampled_from(MUTATION_CHARS)))
    return text


# --- properties --------------------------------------------------------------


@given(tournaments())
@settings(max_examples=150, deadline=None)
def test_round_trip_and_reference_format(t):
    text = format_tournament(t)
    assert text == reference_format(t)
    assert parse_tournament(text) == t


@given(mutated_texts())
@settings(max_examples=1500, deadline=None)
def test_parse_matches_reference_on_mutated_matrices(text):
    assert outcome(parse_tournament, text) == outcome(reference_parse, text)


# Line boundaries of str.splitlines besides "\n" and "\r", which a text
# file's line iteration does not split at.
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(mutated_texts(), st.lists(st.tuples(st.integers(0, 10**4),
                                          st.sampled_from(OTHER_LINE_BREAKS + "\r\n"))))
@settings(max_examples=500, deadline=None)
def test_parse_from_a_file_matches_parse_from_its_text(text, breaks):
    # A text file (universal newlines, as ``open`` gives) read line by line
    # must parse exactly like the text that ``read()`` returns from it.
    for pos, ch in breaks:
        pos %= len(text) + 1
        text = text[:pos] + ch + text[pos:]

    def as_file():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")

    expected = outcome(parse_tournament, as_file().read())
    assert outcome(parse_tournament, as_file()) == expected
    assert outcome(parse_tournament, text) == expected
    assert outcome(parse_tournament, text.splitlines(keepends=True)) == expected


@given(tournaments())
@settings(max_examples=150, deadline=None)
def test_hash_is_sha256_of_reference_format(t):
    assert tournament_hash(t) == hashlib.sha256(reference_format(t).encode()).hexdigest()


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, 2 ** (n + 1) - 1), min_size=n, max_size=n)))
@settings(max_examples=500, deadline=None)
def test_round_trip_accepts_exactly_the_reference_valid_rows(out):
    # The round trip is the tests' validity check: the text drops a
    # self-loop and bits beyond n, so the parsed host differs, and the
    # parser rejects a pair with both directions or neither.
    t = Tournament(out)
    valid = outcome(reference_validate, out, len(out)) is None
    assert (outcome(parse_tournament, format_tournament(t)) == t) == valid


@st.composite
def noisy_texts(draw):
    """A host and a text of it that is not canonical but parses to it: LF or
    CRLF endings, blanks and tabs around lines, blank lines, a zero-padded
    count line."""
    t = draw(tournaments())
    lines = format_tournament(t).splitlines()
    lines[1] = "0" * draw(st.integers(0, 3)) + lines[1]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.text(" \t", max_size=2)
    pieces = []
    for line in lines:
        pieces += [draw(pad) + eol for _ in range(draw(st.integers(0, 1)))]
        pieces.append(draw(pad) + line + draw(pad) + eol)
    return t, "".join(pieces)


@given(noisy_texts())
@settings(max_examples=200, deadline=None)
def test_parsed_host_hash_equals_hash_from_rows(case):
    t, text = case
    expected = tournament_hash(Tournament([t.out_mask(v) for v in t.vertices()]))
    as_file = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    for source in (text, as_file, text.splitlines(keepends=True)):
        parsed = parse_tournament(source)
        assert parsed == t
        assert tournament_hash(parsed) == expected


# --- fixed cases -------------------------------------------------------------


def test_single_vertex():
    t = Tournament([0])
    assert format_tournament(t) == "tournament v1\n1\n-\n"
    assert parse_tournament("tournament v1\n1\n-\n") == t
    assert tournament_hash(t) == hashlib.sha256(b"tournament v1\n1\n-\n").hexdigest()


@pytest.mark.parametrize("n", [2, 3, 8, 9, 63, 64, 65])
def test_error_order_on_every_pair_flipped(n):
    # Setting every '0' to '1' leaves both directions on each pair; the first
    # one reported is (0, 1).  Clearing every '1' leaves no pair oriented.
    header, count, body = format_tournament(random_tournament(n, n)).split("\n", 2)
    ones = f"{header}\n{count}\n{body.replace('0', '1')}"
    zeros = f"{header}\n{count}\n{body.replace('1', '0')}"
    for bad in (ones, zeros):
        assert outcome(parse_tournament, bad) == outcome(reference_parse, bad)
    assert outcome(parse_tournament, ones) == "ValueError: both directions present between 0 and 1"


def test_seeded_mutations_of_a_larger_host():
    # 300 vertices: rows wider than a machine word, 38 bytes each, so the
    # orientation check transposes 38 x 38 lanes.
    t = random_tournament(300, 5)
    text = format_tournament(t)
    assert parse_tournament(text) == t
    rng = random.Random(11)
    for _ in range(30):
        pos = rng.randrange(len(text))
        bad = mutate(text, pos, rng.choice(["flip", "flip", "replace"]), rng.choice("01-x "))
        assert outcome(parse_tournament, bad) == outcome(reference_parse, bad)


@pytest.mark.parametrize("pair, message", [
    ("11", "both directions present between 600 and 650"),
    ("00", "orientation is not total"),
])
def test_orientation_error_in_a_later_chunk(pair, message):
    # Entries (600, 650) and (650, 600) are bits of lane (650 // 8, 600 // 8)
    # of the transpose, past its first chunk.
    n, i, j = 700, 600, 650
    assert (j // 8) * ((n + 7) // 8) + i // 8 >= toursub.core._CHUNK_LANES
    lines = format_tournament(random_tournament(n, 3)).splitlines()
    for (a, b), ch in zip([(i, j), (j, i)], pair):
        row = lines[2 + a]
        lines[2 + a] = row[:b] + ch + row[b + 1:]
    text = "\n".join(lines) + "\n"
    assert outcome(parse_tournament, text) == outcome(reference_parse, text) == f"ValueError: {message}"


@pytest.mark.parametrize("name, build", [
    ("rotational(2095)", lambda: rotational_tournament(2095)),
    ("random(1351, 0)", lambda: random_tournament(1351, 0)),
])
def test_large_host_hash_pinned(name, build):
    t = build()
    text = format_tournament(t)
    assert tournament_hash(t) == LARGE_HOST_HASHES[name]
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_HOST_HASHES[name]
    assert parse_tournament(text) == t


def test_cli_gen_writes_the_pinned_bytes(tmp_path, capsys):
    # gen streams the rows to its output: to a file, and to stdout.
    out = tmp_path / "rot.txt"
    assert main(["gen", "--kind", "rotational", "--n", "2095", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_HOST_HASHES["rotational(2095)"]
    capsys.readouterr()
    assert main(["gen", "--kind", "random", "--n", "1351", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_HOST_HASHES["random(1351, 0)"]


def test_parsed_host_hash_formats_nothing(monkeypatch):
    # find and verify hash the host they parsed; that hash comes from the
    # text, so the host is never formatted again.
    text = format_tournament(random_tournament(50, 1))
    parsed = parse_tournament(text)

    def no_format(t):
        raise AssertionError("the parsed host was formatted to hash it")

    monkeypatch.setattr(toursub.core, "_format_lines", no_format)
    assert tournament_hash(parsed) == hashlib.sha256(text.encode()).hexdigest()


# Row 2 of rotational(5) is "00-11".  Each replacement is its first bad row
# (row 4 is bad too) and is named by the per-character reference's message.
# "_" and "+" are taken by int(..., 2); "0\u00e9-1" is 5 bytes in UTF-8 but 4
# characters; "0-011" has its one "-" off the diagonal.
@pytest.mark.parametrize("row, message", [
    ("0_-11", "bad character '_' at (2,1)"),
    ("+0-11", "bad character '+' at (2,0)"),
    ("0 -11", "bad character ' ' at (2,1)"),
    ("0\u00e9-1", "row 2 has length 4, expected 5"),
    ("00-1\u0663", "bad character '\u0663' at (2,4)"),
    ("00-111", "row 2 has length 6, expected 5"),
    ("00011", "diagonal entry (2,2) must be '-'"),
    ("0-011", "bad character '-' at (2,1)"),
])
def test_malformed_row_message(row, message):
    lines = format_tournament(rotational_tournament(5)).splitlines()
    assert lines[4] == "00-11"
    lines[4] = row
    lines[6] = lines[6].replace("-", "x")
    text = "\n".join(lines) + "\n"
    assert outcome(parse_tournament, text) == outcome(reference_parse, text) == f"ValueError: {message}"


@pytest.mark.parametrize("build", [
    lambda: rotational_tournament(1001),
    lambda: random_tournament(800, 5),
], ids=["rotational(1001)", "random(800, 5)"])
def test_parse_from_a_file_peaks_under_two_bytes_per_entry(build, tmp_path):
    # The rows are read one at a time and never held together as text;
    # the masks, the transpose's lanes and one row at a time fit well
    # inside this bound.
    t = build()
    assert parse_peak(t, tmp_path) <= 2.0 * t.n ** 2


def parse_peak(t, tmp_path):
    """Traced peak bytes of parsing ``t`` from a file, after checking the
    parse returns ``t``."""
    path = tmp_path / "host.txt"
    with open(path, "w") as fh:
        write_tournament(t, fh)
    tracemalloc.start()
    try:
        with open(path) as fh:
            parsed = parse_tournament(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == t
    return peak


@pytest.mark.parametrize("build", [
    lambda: rotational_tournament(2095),
    lambda: random_tournament(1350, 0),
], ids=["rotational(2095)", "random(1350, 0)"])
def test_parse_of_a_paper_scale_host_streams_its_rows(build, tmp_path):
    # The paper-scale hosts of the CLI benchmark.  Streaming keeps the
    # masks (n^2/8 bytes), the transpose's lanes (n^2/8) and one row of
    # text at a time, about 0.35 n^2; holding every row string as well
    # reads about 1.2 n^2.
    t = build()
    assert parse_peak(t, tmp_path) < 0.6 * t.n ** 2


def test_parse_of_a_paper_scale_string_streams_its_rows():
    # A string is read in slices, one block of lines at a time, so its
    # parse holds what a file's does beside the text; a list of its lines
    # would add about 1.37 n^2.
    t = rotational_tournament(2095)
    text = format_tournament(t)
    tracemalloc.start()
    try:
        parsed = parse_tournament(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == t
    assert peak < 0.6 * t.n ** 2


def traced_parse_peak(source):
    """The parse of ``source`` and the traced peak bytes of making it."""
    tracemalloc.start()
    try:
        parsed = parse_tournament(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return parsed, peak


def test_parse_of_noisy_paper_scale_text_streams_its_rows(tmp_path):
    # Indented rows, trailing blanks and a blank line after every third row:
    # no block is canonical, so each is stripped, joined and checked again.
    t = rotational_tournament(2095)
    lines = format_tournament(t).splitlines()
    text = "".join(f"  {line} \n" + "\n" * (i % 3 == 0) for i, line in enumerate(lines))
    path = tmp_path / "noisy.txt"
    path.write_text(text)
    with open(path) as fh:
        runs = [traced_parse_peak(text), traced_parse_peak(fh)]
    for parsed, peak in runs:
        assert parsed == t
        assert tournament_hash(parsed) == LARGE_HOST_HASHES["rotational(2095)"]
        assert peak < 0.6 * t.n ** 2


# --- block edges -------------------------------------------------------------


def block_sources(text):
    """The three kinds of parser input: the string, a text stream, and a
    list of its lines."""
    return [text, io.StringIO(text), text.splitlines(keepends=True)]


def reference_outcome(text):
    """The per-character reference's tournament and the hash of its
    canonical text, or its error message."""
    result = outcome(reference_parse, text)
    if isinstance(result, str):
        return result
    return result, hashlib.sha256(reference_format(result).encode()).hexdigest()


def block_outcome(source):
    result = outcome(parse_tournament, source)
    if isinstance(result, str):
        return result
    return result, tournament_hash(result)


def edited(text, row, edit):
    """``text`` with matrix row ``row`` passed through ``edit``."""
    lines = text.split("\n")
    lines[2 + row] = edit(lines[2 + row])
    return "\n".join(lines)


BLOCK_HOST = random_tournament(7, 3)
BLOCK_TEXT = format_tournament(BLOCK_HOST)
BLOCK_CASES = {
    "canonical": BLOCK_TEXT,
    "crlf": BLOCK_TEXT.replace("\n", "\r\n"),
    "no final newline": BLOCK_TEXT[:-1],
    "indented and blank lines": edited(BLOCK_TEXT, 3, lambda row: f"\n  {row}\t\n"),
    "bad row in a later block": edited(BLOCK_TEXT, 5, lambda row: row[:2] + "x" + row[3:]),
    "bad diagonal in a later block": edited(BLOCK_TEXT, 6, lambda row: row[:6] + "0"),
    "dash off the diagonal": edited(BLOCK_TEXT, 4, lambda row: row[:3] + "-0" + row[5:]),
    # Rows 1 and 2 keep their diagonals in place and the rows' total length.
    "rows of uneven length": edited(edited(BLOCK_TEXT, 1, lambda row: row[:-1]), 2,
                                    lambda row: "0" + row),
    # Not ASCII, and not even UTF-8: a lone surrogate is still a bad character.
    "surrogate row": edited(BLOCK_TEXT, 5, lambda row: row[:6] + "\ud800"),
    "surrogate after a bad row": edited(edited(BLOCK_TEXT, 2, lambda row: "x" + row[1:]), 5,
                                        lambda row: row[:6] + "\ud800"),
    "extra row in a later block": BLOCK_TEXT + BLOCK_TEXT.splitlines()[-1] + "\n",
    "missing row": edited(BLOCK_TEXT, 6, lambda row: ""),
    "both directions in a later block": edited(BLOCK_TEXT, 6, lambda row: "1" * 6 + "-"),
    "bad count line": BLOCK_TEXT.replace("\n7\n", "\n7x\n"),
}


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 17, 48],
                         ids=["1", "2", "n", "n+1", "n+2", "2n+3", "header and 4 rows"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_edges_match_the_reference(monkeypatch, case, size):
    # Blocks of 1, 2, n, n+1, n+2 and 2n+3 characters put block edges
    # inside the header, inside rows, between "\r" and "\n" and after the
    # last row, and put the bad, extra or missing row in a later block.
    # 48 characters hold the header lines and rows 0-3 in the first block.
    text = BLOCK_CASES[case]
    monkeypatch.setattr(toursub.core, "_BLOCK", size)
    expected = reference_outcome(text)
    for source in block_sources(text):
        assert block_outcome(source) == expected


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 17, 40])
def test_written_blocks_match_the_reference(monkeypatch, size):
    monkeypatch.setattr(toursub.core, "_BLOCK", size)
    fh = io.StringIO()
    write_tournament(BLOCK_HOST, fh)
    assert format_tournament(BLOCK_HOST) == fh.getvalue() == BLOCK_TEXT == reference_format(BLOCK_HOST)
    fresh = Tournament([BLOCK_HOST.out_mask(v) for v in BLOCK_HOST.vertices()])
    assert tournament_hash(fresh) == hashlib.sha256(BLOCK_TEXT.encode()).hexdigest()


@given(mutated_texts(), st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_parse_in_small_blocks_matches_reference(text, size):
    with mock.patch.object(toursub.core, "_BLOCK", size):
        expected = reference_outcome(text)
        for source in block_sources(text):
            assert block_outcome(source) == expected


def test_row_count_is_reported_before_a_bad_row():
    # A streaming parse meets the bad row 0 before it can count the rows;
    # the row-count error still comes first, as in the reference.
    lines = format_tournament(rotational_tournament(5)).splitlines()
    lines[2] = "x" + lines[2][1:]
    for rows, found in ((lines[2:-1], 4), (lines[2:] + lines[-1:], 6)):
        text = "\n".join(lines[:2] + rows) + "\n"
        expected = f"ValueError: expected 5 matrix rows, found {found}"
        assert outcome(parse_tournament, text) == outcome(reference_parse, text) == expected
        assert outcome(parse_tournament, text.splitlines(keepends=True)) == expected


# Surrounding whitespace is stripped as for rows; signs, separators and
# non-ASCII digits (which int() takes) are rejected, see test_parse_errors.
@pytest.mark.parametrize("count, ok", [
    ("3", True), (" 3\t", True), ("03", True), ("-3", False), ("3.0", False), ("0x3", False),
])
def test_vertex_count_line_is_ascii_digits(count, ok):
    text = f"{FORMAT_HEADER}\n{count}\n-11\n0-1\n00-\n"
    expected = Tournament([0b110, 0b100, 0]) if ok else "ValueError: bad vertex count line"
    assert outcome(parse_tournament, text) == outcome(reference_parse, text) == expected
