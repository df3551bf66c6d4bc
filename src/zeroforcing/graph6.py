"""Bit-exact graph6 codec, single-byte size form only (0 <= n <= 62).

Layout: byte 0 holds 63+n; each following byte carries six bits (most
significant first) of the upper-triangle adjacency read in column order
(0,1),(0,2),(1,2),(0,3),...; the last byte is zero-padded; every data byte is
offset by 63.
"""

from __future__ import annotations

from .graphs import Graph

HEADER = ">>graph6<<"


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
    if line[0] == "~":
        raise Graph6Error("length field '~' (the size form for n >= 63) "
                          "is not supported", base)
    size = ord(line[0]) - 63
    if not 0 <= size <= 62:
        raise Graph6Error(f"malformed length field {line[0]!r}", base)
    n = size
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = line[1:]
    if len(data) < need:
        raise Graph6Error(f"record needs {need} data bytes, found {len(data)}",
                          base + len(line))
    if len(data) > need:
        raise Graph6Error("trailing data after adjacency bits",
                          base + 1 + need)
    edges = []
    bit = 0
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for k, ch in enumerate(data):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"character {ch!r} outside printable range",
                              base + 1 + k)
        for shift in range(5, -1, -1):
            if (val >> shift) & 1:
                if bit >= nbits:
                    raise Graph6Error("trailing bits nonzero", base + 1 + k)
                edges.append(pairs[bit])
            bit += 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph; inverse of parse_graph6 with zero padding bits."""
    if not 0 <= g.n <= 62:
        raise ValueError(f"graph6 single-byte form covers 0..62 vertices, got {g.n}")
    out = [chr(63 + g.n)]
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

