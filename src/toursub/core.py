"""Tournament representation, generators, the degree window and the cut shape.

Vertices are dense 0-based integers.  Orientation is stored as one bitset row
per vertex: bit j of ``out_mask(i)`` is set iff the edge between i and j is
directed i -> j.  Since a tournament orients every pair, the in-neighbourhood
is the complement row, and all set operations used by the finders reduce to
integer bit arithmetic.

A subtournament is a universe mask over its host; the finders restrict rows
with ``& universe`` and report host vertices.  ``universe_degrees`` lists a
universe's vertices with their out-degrees inside it in one pass, for every
finder stage that ranks or pigeonholes by degree.  The host keeps the last
universe's lists, so consecutive stages on one universe share one count;
the lists are shared, and callers must treat them as read-only.
``induced`` builds a standalone, renumbered copy.  A ``Cut`` holds its three
vertex sets as host bitmasks too.

One bit transpose, ``_transpose``, gives a host's columns (its in-rows) to
random generation and to the parser's orientation check.  It lays the rows
out as 8x8-bit lanes, one byte per row, transposes every lane with shifts and
masks on chunk-sized integers, and then column j is every (8 * ceil(n/8))-th
byte from byte j.  It fills and transposes the lanes one chunk of row
groups at a time, so only that chunk's row bytes are held beside them, and
hands the columns out lazily, one at a time: both callers only zip them
with the rows.

The text format is read and written a block of about 32 KB of text at a
time, so memory is bounded by the block rather than by n^2.  The parser
checks, hashes and converts a block of rows at once, and only a canonical
block, byte for byte what ``format_tournament`` writes, is accepted.  Any
other block (blank lines, indentation, other line boundaries, no final
newline) is stripped line by line and joined back, and takes the same check;
a block that fails it still (bad or extra rows) only has its rows counted
and its first bad row named.  Writing and hashing format a block of rows at
a time.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import compress, count, islice, repeat
from operator import add, itemgetter, lshift
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

__all__ = [
    "Tournament",
    "Cut",
    "generate",
    "random_tournament",
    "transitive_tournament",
    "rotational_tournament",
    "blowup_cyclic_triangle",
    "first_window",
    "universe_degrees",
    "induced",
    "format_tournament",
    "write_tournament",
    "parse_tournament",
    "tournament_hash",
    "mask_of",
    "bits_of",
]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Warren's 8x8 transpose (Hacker's Delight, 7-3) of a little-endian 64-bit
# lane, byte k row k: a step swaps bits p and p + shift for each p in mask.
_SWAR_STEPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_CHUNK_LANES = 4096  # lanes per SWAR pass, so no temporary is matrix-sized


@lru_cache(maxsize=1)
def _swar_masks(lanes: int) -> Tuple[Tuple[int, int], ...]:
    """The SWAR steps with each mask repeated over ``lanes`` lanes, kept for
    the last lane count: one host size after another reuses them."""
    return tuple((shift, int.from_bytes(mask.to_bytes(8, "little") * lanes, "little"))
                 for shift, mask in _SWAR_STEPS)


def _transpose(rows: Sequence[int], n: int) -> Iterator[int]:
    """Columns of the n x n bit matrix with the given rows, in order and
    one at a time: bit i of column j is bit j of row i.

    With B = ceil(n/8), the rows, padded to 8B, are laid out as B*B lanes:
    lane (g, b) holds byte b of rows 8g..8g+7, one byte each, so it is the
    8x8 block at row group g and column byte b.  The lanes are filled and
    transposed a block of whole row groups at a time, up to a chunk of
    lanes, so only that block's row bytes are held beside the lanes.
    Transposing every lane makes byte c of that lane rows 8g..8g+7 of
    column 8b+c, so column j is every (8B)-th byte from byte j; a C-level
    map cuts and converts each column as it is asked for."""
    width = (n + 7) // 8
    stride = 8 * width
    groups = max(1, _CHUNK_LANES // width)  # row groups per block
    steps = _swar_masks(min(groups, width) * width)
    blank = bytes(width)
    buf = bytearray(stride * width)
    for lo in range(0, n, 8 * groups):
        pieces = list(map(int.to_bytes, rows[lo:lo + 8 * groups], repeat(width), repeat("little")))
        pieces += [blank] * (-len(pieces) % 8)
        lanes = bytearray(width * len(pieces))
        for k in range(8):
            lanes[k::8] = b"".join(pieces[k::8])
        x = int.from_bytes(lanes, "little")
        for shift, mask in steps:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        buf[lo * width:(lo + len(pieces)) * width] = x.to_bytes(len(lanes), "little")
    columns = map(buf.__getitem__, map(slice, range(n), repeat(None), repeat(stride)))
    return map(int.from_bytes, columns, repeat("little"))


class Tournament:
    """Immutable tournament on n vertices."""

    __slots__ = ("n", "_out", "_hash", "_degrees")

    def __init__(self, out_masks: Sequence[int]):
        self.n = len(out_masks)
        self._out = tuple(out_masks)
        self._hash: Optional[str] = None  # tournament_hash, once known
        # universe_degrees' last answer: (universe, vertices, degrees)
        self._degrees: Optional[Tuple[int, List[int], List[int]]] = None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        # Exactly one direction per pair, so N^-(v) is the complement row.
        return self.full_mask & ~self._out[v] & ~(1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._out[u] >> v) & 1)

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tournament) and self._out == other._out

    def __hash__(self) -> int:
        return hash(self._out)

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random orientation of each pair, deterministic per seed.

    Row i draws the orientation of its pairs with later vertices as one
    ``getrandbits(n-1-i)``.  Column j of these upper rows holds the earlier
    vertices that beat j, so one ``_transpose`` gives every row the pairs it
    lost, and one pass joins each row's two halves."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    upper = list(map(lshift, map(rng.getrandbits, range(n - 1, 0, -1)), range(1, n))) + [0]
    beaten_by = _transpose(upper, n)
    return Tournament([u | ((1 << j) - 1) ^ c for j, u, c in zip(count(), upper, beaten_by)])


def transitive_tournament(n: int) -> Tournament:
    if n < 1:
        raise ValueError("n must be positive")
    full = (1 << n) - 1
    return Tournament([full & ~((1 << (i + 1)) - 1) for i in range(n)])


def rotational_tournament(n: int) -> Tournament:
    """The ((n-1)/2)-regular tournament i -> i+1, ..., i+(n-1)/2 (mod n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        raise ValueError("rotational tournament needs odd n")
    h = (n - 1) // 2
    full = (1 << n) - 1
    base = ((1 << h) - 1) << 1  # bits 1..h
    out = []
    for i in range(n):
        out.append(((base << i) | (base >> (n - i))) & full)
    return Tournament(out)


def blowup_cyclic_triangle(class_size: int) -> Tournament:
    """Three transitive classes A -> B -> C -> A, each of the given size."""
    if class_size < 1:
        raise ValueError("class_size must be positive")
    s = class_size
    ones = (1 << s) - 1
    # Row v: the next class, and its own class's vertices after v.
    return Tournament([nxt | (ones << lo) >> (v + 1) << (v + 1)
                       for lo, nxt in ((0, ones << s), (s, ones << 2 * s), (2 * s, ones))
                       for v in range(lo, lo + s)])


def generate(kind: str, n: int, seed: Optional[int] = None) -> Tournament:
    """Dispatching generator.

    ``kind`` is one of random / transitive / rotational /
    blowup_cyclic_triangle; for the blow-up, ``n`` is the class size.
    Randomized kinds require an explicit seed.
    """
    if kind == "random":
        if seed is None:
            raise ValueError("random tournaments require an explicit seed")
        return random_tournament(n, seed)
    if kind == "transitive":
        return transitive_tournament(n)
    if kind == "rotational":
        return rotational_tournament(n)
    if kind == "blowup_cyclic_triangle":
        return blowup_cyclic_triangle(n)
    raise ValueError(f"unknown tournament kind: {kind!r}")


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def universe_degrees(t: Tournament, uni: int) -> Tuple[List[int], List[int]]:
    """The vertices of ``uni`` in ascending order, and each one's out-degree
    inside ``uni``, as two parallel lists.

    The host keeps its last answer, so stages that rank the same universe
    one after another share one count.  The lists are that shared answer:
    callers read them and must not mutate them."""
    memo = t._degrees
    if memo is None or memo[0] != uni:
        memo = t._degrees = (uni, *_count_degrees(t._out, uni))
    return memo[1], memo[2]


def _members(mask: int) -> List[int]:
    """The set bits of ``mask`` in ascending order.  Character i of the
    reversed ``bin(mask)`` is bit i, so one C-level ``translate`` to 0/1
    bytes and one ``compress`` list them with no per-bit big-int
    arithmetic."""
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(bits)), bits))


def _count_degrees(rows: Sequence[int], uni: int) -> Tuple[List[int], List[int]]:
    """``universe_degrees`` without the memo: ``_members`` lists the
    vertices and one comprehension over the rows counts the degrees."""
    vertices = _members(uni)
    return vertices, [(rows[v] & uni).bit_count() for v in vertices]


def first_window(
    vertices: Sequence[int], degrees: Sequence[int], start: int, width: int, k: int
) -> Optional[Tuple[int, List[int]]]:
    """Degree pigeonhole over the ascending ``vertices`` and their parallel
    ``degrees``: the lowest window ``[lo, lo + width)``, with ``lo`` in
    ``start, start + width, ...``, holding at least k of the vertices, as
    ``(lo, its k lowest vertices)``; None when no window does.  Degrees
    below ``start`` are ignored: their slots are negative.  Each degree gets
    its window slot once and one count of the slots finds the window, so the
    windows are not rescanned from the floor up."""
    slots = [(d - start) // width for d in degrees]
    j = min((j for j, count in Counter(slots).items() if count >= k and j >= 0), default=None)
    if j is None:
        return None
    return start + j * width, list(islice(compress(vertices, map(j.__eq__, slots)), k))


def induced(t: Tournament, vertices: Iterable[int]) -> Tournament:
    """Standalone subtournament on the given vertices, renumbered 0, 1, ...
    in ascending order of their index in ``t``."""
    sub = sorted(set(vertices))
    if not sub:
        raise ValueError("induced subtournament needs at least one vertex")
    if sub[0] < 0 or sub[-1] >= t.n:
        raise ValueError("vertex out of range")
    # Character -1-w of a row's binary string is bit w, so one getter picks
    # the chosen columns, highest first, as the induced row's binary digits.
    spec = f"0{t.n}b"
    pick = itemgetter(*[-1 - w for w in reversed(sub)])
    out = [int("".join(pick(format(t.out_mask(v), spec))), 2) for v in sub]
    return Tournament(out)


@dataclass(frozen=True)
class Cut:
    """A disconnecting set U (``cut``) with the source S and sink it
    separates: no edge runs from the sink into S.  All three are host
    bitmasks.

    A certified cut also carries two one-to-one matchings from disjoint
    halves of U into S (a split half-matching), which prove that U expands
    into S; they stay empty until ``minimize_cut`` certifies the cut.
    """

    cut: int
    source: int
    sink: int
    m_prime: dict = field(default_factory=dict)
    m_dprime: dict = field(default_factory=dict)


def _try_short_path(t: Tournament, x: int, y: int, avail: int) -> Optional[Tuple[int, ...]]:
    """Internals of an x -> y path of length 2 or 3 through ``avail``: the
    lowest 2-path internal, else the lexicographically lowest 3-path.  A row
    never holds its own vertex, so z needs no masking out of its own row.
    The lowest z whose row meets ``into_y`` is found in one C-level scan of
    the candidates' rows."""
    into_y = t.in_mask(y) & avail
    w = t.out_mask(x) & into_y
    if w:
        return ((w & -w).bit_length() - 1,)
    rows = t._out
    candidates = _members(t.out_mask(x) & avail)
    z = next(compress(candidates, map(into_y.__and__, map(rows.__getitem__, candidates))), None)
    if z is None:
        return None
    ww = rows[z] & into_y
    return (z, (ww & -ww).bit_length() - 1)


FORMAT_HEADER = "tournament v1"
_BLOCK = 1 << 15  # characters of text per block, parsed or written


def _format_lines(t: Tournament) -> Iterator[bytes]:
    """The text format as ASCII pieces: the header and vertex count, then
    the matrix rows a block of about ``_BLOCK`` characters at a time.
    Character j of row i is ``1`` iff i -> j, with ``-`` on the diagonal.
    A block joins one C-level ``format`` per row in reverse row order and
    reverses the whole string, which puts the rows back in order with bit j
    at character j; one strided assignment then writes every diagonal
    ``-``, since row lo + k's is k * (n + 2) characters past row lo's."""
    n = t.n
    yield f"{FORMAT_HEADER}\n{n}\n".encode()
    spec = f"0{n}b"
    step = max(1, _BLOCK // (n + 1))  # rows per block
    rows = map(t.full_mask.__and__, t._out)
    for lo in range(0, n, step):
        masks = list(islice(rows, step))
        digits = "\n".join(map(format, reversed(masks), repeat(spec)))
        block = bytearray(digits[::-1].encode())
        block += b"\n"
        block[lo::n + 2] = b"-" * len(masks)
        yield block


def _check_orientation(masks: Sequence[int]) -> None:
    """Antisymmetry and totality of the parsed rows: each mask, xor its
    transposed column, must hold every vertex but its own.

    Reports the pair with both directions at the smallest row, then the
    smallest column, before any missing pair.
    """
    full = (1 << len(masks)) - 1
    not_total = False
    for i, (row, col) in enumerate(zip(masks, _transpose(masks, len(masks)))):
        if row ^ col == full ^ (1 << i):
            continue
        both = row & col
        if both:
            j = (both & -both).bit_length() - 1
            raise ValueError(f"both directions present between {i} and {j}")
        not_total = True
    if not_total:
        raise ValueError("orientation is not total")


def _row_error(row: str, i: int, n: int) -> Optional[ValueError]:
    """The error for matrix row ``i``, None for a valid row: its length, or
    its first entry that is not ``-`` on the diagonal and a binary digit
    elsewhere.  These are the per-character rules; a row passes them
    exactly when it passes ``_RowReader``'s canonical check."""
    if len(row) != n:
        return ValueError(f"row {i} has length {len(row)}, expected {n}")
    j = next((k for k, ch in enumerate(row) if ch not in ("-" if k == i else "01")), None)
    if j is None:
        return None
    if j == i:
        return ValueError(f"diagonal entry ({i},{j}) must be '-'")
    return ValueError(f"bad character {row[j]!r} at ({i},{j})")


def format_tournament(t: Tournament) -> str:
    return b"".join(_format_lines(t)).decode()


def write_tournament(t: Tournament, fh: TextIO) -> None:
    """Write the ``format_tournament`` text to ``fh`` a block of rows at a
    time, without holding the whole text."""
    fh.writelines(piece.decode() for piece in _format_lines(t))


def _text_blocks(text: Union[str, Iterable[str]]) -> Iterator[str]:
    """The text of a ``parse_tournament`` source as blocks of whole lines,
    each cut after its last ``"\n"`` with the rest carried into the next,
    then any text after the final ``"\n"``.  A string is taken in slices of
    ``_BLOCK`` characters and a file through ``read(_BLOCK)``.  Any other
    iterable gives one element at a time with a ``"\n"`` added, so element
    boundaries stay line boundaries; the blank line this may add is skipped
    like any other.  Only a ``"\n"`` ends a block, so a ``"\r\n"`` is never
    split and every block splits into lines as it would in the whole text."""
    if isinstance(text, str):
        chunks: Iterable[str] = map(text.__getitem__, map(
            slice, range(0, len(text), _BLOCK), count(_BLOCK, _BLOCK)))
    elif hasattr(text, "read"):
        chunks = iter(partial(text.read, _BLOCK), "")
    else:
        chunks = map(add, text, repeat("\n"))
    carry = ""
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            yield carry + chunk[:cut]
            carry = chunk[cut:]
        else:
            carry += chunk
    if carry:
        yield carry


class _RowReader:
    """The matrix rows of a parse: the accepted rows' masks, the running
    sha256 of their text, the number of row lines, and the first bad row's
    error.  An accepted row is byte for byte the ``format_tournament`` row,
    so the digest is ``tournament_hash`` of the host.  The error waits until
    every row is counted, because a wrong row count is reported first;
    after it only the count is read."""

    __slots__ = ("n", "masks", "digest", "found", "error")

    def __init__(self, n: int):
        self.n = n
        self.masks: List[int] = []
        self.digest = hashlib.sha256(f"{FORMAT_HEADER}\n{n}\n".encode())
        self.found = 0
        self.error: Optional[ValueError] = None

    def add_block(self, block: str) -> None:
        """Take a block of whole lines, as ``_text_blocks`` cuts them: it
        ends in ``"\n"`` or holds none.  A canonical block is taken whole.
        Any other block is split into lines, stripped, and its non-blank
        lines joined back into a block of ``"\n"``-ended rows, which takes
        the same check.  If that fails too, the rows are only counted, and
        the first one below row n that ``_row_error`` rejects is held.

        The canonical check accepts exactly a run of valid rows that starts
        at row ``found`` and ends at or before row n - 1, so a joined block
        that fails it holds a bad row or a row past n - 1.  Either way the
        parse raises, on the bad row or on the row count, so none of that
        block's rows needs accepting."""
        if self._add_canonical(block):
            return
        rows = list(filter(None, map(str.strip, block.splitlines())))
        if self._add_canonical("\n".join(rows) + "\n"):
            return
        if self.error is None:
            errors = map(_row_error, rows, range(self.found, self.n), repeat(self.n))
            self.error = next(filter(None, errors), None)
        self.found += len(rows)

    def _add_canonical(self, block: str) -> bool:
        """Check, hash and convert a canonical block whole, r rows of n
        ASCII characters and a ``"\n"``, each ``0``/``1`` apart from its
        ``-`` on the diagonal; False, taking nothing, for any other block.

        Byte checks find a canonical block of r = len // (n + 1) rows.
        Deleting its binary digits leaves one ``-`` and one ``"\n"`` per
        row, in that order.  The newlines sit every n + 1 bytes from byte n,
        so every row has n characters and the last newline ends the block.
        The row after row k has its diagonal n + 2 bytes later, so the
        ``-`` sit every n + 2 bytes from byte ``found``.  A row past row
        n - 1 would put its diagonal on a newline, so no extra row passes."""
        n, lo = self.n, self.found
        r = len(block) // (n + 1)
        if not (r and block.isascii()):
            return False
        raw = block.encode()
        if not (raw.translate(None, b"01") == b"-\n" * r and raw[n::n + 1] == b"\n" * r
                and raw[lo::n + 2] == b"-" * r):
            return False
        self.digest.update(raw)
        # Reversed without its final newline, the block lists its rows last
        # first, each with bit j at character j from the right.
        masks = list(map(int, block.replace("-", "0")[-2::-1].split("\n"), repeat(2)))
        masks.reverse()
        self.masks += masks
        self.found += r
        return True


def parse_tournament(text: Union[str, Iterable[str]]) -> Tournament:
    """Parse the text format from a string, an open text file, or any other
    iterable of its lines.  Each is read a block of whole lines at a time
    (``_text_blocks``) and split into lines the same way, so all give the
    same result or error.  The first two non-blank lines are the header and
    the vertex count; ``_RowReader`` takes the rows, and the host carries
    their hash.  Errors come in this order: the header, the count line, the
    number of rows, the first bad row.  Then every pair must have exactly
    one direction: each mask, xor its column, holds every other vertex."""
    blocks = _text_blocks(text)
    head: List[str] = []  # the header and count lines
    rest = ""  # the lines after them in their block
    for block in blocks:
        lines = iter(block.splitlines(keepends=True))
        head += islice(filter(None, map(str.strip, lines)), 2 - len(head))
        if len(head) == 2:
            rest = "".join(lines)
            break
    if not head or head[0] != FORMAT_HEADER:
        raise ValueError(f"missing {FORMAT_HEADER!r} header")
    count = head[1] if len(head) == 2 else ""
    if not (count.isascii() and count.isdigit()):
        raise ValueError("bad vertex count line")
    n = int(count)
    if n < 1:
        raise ValueError("vertex count must be positive")
    rows = _RowReader(n)
    rows.add_block(rest)
    for block in blocks:
        rows.add_block(block)
    if rows.found != n:
        raise ValueError(f"expected {n} matrix rows, found {rows.found}")
    if rows.error is not None:
        raise rows.error
    _check_orientation(rows.masks)
    t = Tournament(rows.masks)
    t._hash = rows.digest.hexdigest()
    return t


def tournament_hash(t: Tournament) -> str:
    """sha256 of the exact ``format_tournament`` bytes.  A parsed host
    carries it from its text; any other host feeds its formatted blocks
    into sha256 on first use and keeps the digest."""
    if t._hash is None:
        digest = hashlib.sha256()
        for piece in _format_lines(t):
            digest.update(piece)
        t._hash = digest.hexdigest()
    return t._hash
