"""Bit-exact graph6 codec for 0 <= n <= 258047.

Layout: the size field is one byte 63+n for n <= 62, or '~' and three bytes
that carry n in 18 bits, six per byte, for 63 <= n <= 258047; the 8-byte
form '~~' for larger n is not supported.  Each following byte carries six
bits (most significant first) of the upper-triangle adjacency read in column
order (0,1),(0,2),(1,2),(0,3),...; the last byte is zero-padded; every byte
but '~' is offset by 63.  Bit b lies in column j, the largest with
j(j-1)/2 <= b, and row b - j(j-1)/2.  The parser decodes only the data bytes
that are not 63 and reads their set bits in order from a 64-entry table, so
the column only moves forward: it walks the n - 1 columns once per record.
Each edge sets its two masks as it is found, and the Graph is built from them
without checking the edges again, since the walk yields each once with
row < column < n.  The writer sets one bit per edge.  So both take time
linear in the bytes plus the edges.
"""

from __future__ import annotations

import re

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_ORDER = 258047
_NONZERO = re.compile(r"[^?]")      # a data byte that is not 63 + 0
_OFFSET = bytes(range(63, 127)) + bytes(192)    # translate 0..63 to 63..126
# the places 0..5 of a 6-bit value's set bits, most significant first
_SET_BITS = tuple(tuple(p for p in range(6) if v >> 5 - p & 1)
                  for v in range(64))


class Graph6Error(ValueError):
    """Malformed graph6 record; `offset` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record; an optional '>>graph6<<' header is permitted."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(HEADER):
        base = len(HEADER)
        line = line[base:]
    if not line:
        raise Graph6Error("empty graph6 record", base)
    if line.startswith("~~"):
        raise Graph6Error("length field '~~' (the 8-byte size form for "
                          "n >= 258048) is not supported", base)
    if line[0] == "~":
        field = [ord(ch) - 63 for ch in line[1:4]]
        n = field[0] << 12 | field[1] << 6 | field[2] if len(field) == 3 else -1
        if not (all(0 <= v <= 63 for v in field) and 63 <= n <= MAX_ORDER):
            raise Graph6Error(f"malformed length field {line[:4]!r}", base)
        width = 4
    else:
        n = ord(line[0]) - 63
        if not 0 <= n <= 62:
            raise Graph6Error(f"malformed length field {line[0]!r}", base)
        width = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = line[width:]
    if len(data) < need:
        raise Graph6Error(f"record needs {need} data bytes, found {len(data)}",
                          base + len(line))
    if len(data) > need:
        raise Graph6Error("trailing data after adjacency bits",
                          base + width + need)
    bits = [0] * n
    edges = []
    j = end = 1     # column j holds bits end - j .. end - 1
    for match in _NONZERO.finditer(data):
        k = match.start()
        val = ord(data[k]) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"character {data[k]!r} outside printable "
                              "range", base + width + k)
        for place in _SET_BITS[val]:
            bit = 6 * k + place
            if bit >= nbits:
                raise Graph6Error("trailing bits nonzero", base + width + k)
            while bit >= end:
                j += 1
                end += j
            i = bit - end + j
            edges.append((i, j))
            bits[i] |= 1 << j
            bits[j] |= 1 << i
    return Graph._from_masks(frozenset(edges), tuple(bits))


def write_graph6(g: Graph) -> str:
    """Encode a graph; inverse of parse_graph6 with zero padding bits."""
    if g.n <= 62:
        out = [chr(63 + g.n)]
    elif g.n <= MAX_ORDER:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    else:
        raise ValueError(f"graph6 covers 0..{MAX_ORDER} vertices here, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    data = bytearray((nbits + 5) // 6)
    for i, j in g.edges:
        bit = j * (j - 1) // 2 + i
        data[bit // 6] |= 32 >> bit % 6
    out.append(data.translate(_OFFSET).decode())
    return "".join(out)
