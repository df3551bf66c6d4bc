"""Bit-exact graph6 codec for 0 <= n <= 258047.

Layout: the size field is one byte 63+n for n <= 62, or '~' and three bytes
that carry n in 18 bits, six per byte, for 63 <= n <= 258047; the 8-byte
form '~~' for larger n is not supported.  Each following byte carries six
bits (most significant first) of the upper-triangle adjacency read in column
order (0,1),(0,2),(1,2),(0,3),...; the last byte is zero-padded; every byte
but '~' is offset by 63.
"""

from __future__ import annotations

from .graphs import Graph

HEADER = ">>graph6<<"
MAX_ORDER = 258047


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
    edges = []
    bit = 0
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for k, ch in enumerate(data):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"character {ch!r} outside printable range",
                              base + width + k)
        for shift in range(5, -1, -1):
            if (val >> shift) & 1:
                if bit >= nbits:
                    raise Graph6Error("trailing bits nonzero",
                                      base + width + k)
                edges.append(pairs[bit])
            bit += 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph; inverse of parse_graph6 with zero padding bits."""
    if g.n <= 62:
        out = [chr(63 + g.n)]
    elif g.n <= MAX_ORDER:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    else:
        raise ValueError(f"graph6 covers 0..{MAX_ORDER} vertices here, got {g.n}")
    val = 0
    count = 0
    for j, row in enumerate(g.bits):
        for i in range(j):
            val = (val << 1) | (row >> i & 1)
            count += 1
            if count == 6:
                out.append(chr(63 + val))
                val = count = 0
    if count:
        out.append(chr(63 + (val << (6 - count))))
    return "".join(out)

