"""graph6 codec: format examples, round trips, and malformed records."""

import random

import networkx
import pytest

from conftest import DATA_DIR
from util import random_graph
from zeroforcing import (Graph, Graph6Error, complete_graph, parse_graph6,
                         path_graph, write_graph6)


def reference_encode(g: Graph) -> str:
    """Independent encoder: build the whole bitstring, then chop into bytes."""
    bits = ""
    for j in range(g.n):
        for i in range(j):
            bits += "1" if g.has_edge(i, j) else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(63 + g.n)
    for k in range(0, len(bits), 6):
        out += chr(63 + int(bits[k:k + 6], 2))
    return out


def test_single_vertex():
    assert parse_graph6("@") == Graph(1)
    assert write_graph6(Graph(1)) == "@"


def test_zero_vertices_parse_only():
    assert parse_graph6("?") == Graph(0)


def test_k4():
    assert parse_graph6("C~") == complete_graph(4)
    assert write_graph6(complete_graph(4)) == "C~"


def test_p4_bit_order():
    # 'h' encodes 101001: pairs (0,1),(0,2),(1,2),(0,3),(1,3),(2,3)
    assert parse_graph6("Ch") == path_graph(4)
    assert reference_encode(path_graph(4)) == "Ch"
    assert write_graph6(path_graph(4)) == "Ch"


def test_header_accepted():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_trailing_newline_tolerated():
    assert parse_graph6("C~\n") == complete_graph(4)


def test_round_trip_random():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 62)
        g = random_graph(rng, n, p=rng.random())
        encoded = write_graph6(g)
        assert parse_graph6(encoded) == g
        assert encoded == reference_encode(g)


def test_zero_vertices_round_trip():
    assert write_graph6(Graph(0)) == "?"
    assert parse_graph6(write_graph6(Graph(0))) == Graph(0)
    assert reference_encode(Graph(0)) == "?"


def test_matches_networkx():
    # every graph with 1-7 vertices, every cubic fixture (4-14), and n = 0
    hosts = [networkx.empty_graph(0)] + list(networkx.graph_atlas_g()[1:])
    for order in range(4, 15, 2):
        with open(DATA_DIR / f"cubic{order:02d}.g6", "rb") as fh:
            hosts += [networkx.from_graph6_bytes(line.strip()) for line in fh]
    assert len(hosts) == 1 + 1252 + 621
    for h in hosts:
        n = h.number_of_nodes()
        g = Graph(n, list(h.edges()))
        record = networkx.to_graph6_bytes(h, nodes=range(n), header=False)
        record = record.decode().rstrip("\n")
        assert write_graph6(g) == record
        assert parse_graph6(record) == g


def test_writer_range():
    assert write_graph6(Graph(62)) == "}" + "?" * 316
    assert write_graph6(Graph(63)).startswith("~??~")
    assert write_graph6(Graph(127)).startswith("~?@~")
    with pytest.raises(ValueError, match="0..258047"):
        write_graph6(Graph(258048))


@pytest.mark.parametrize("n", [63, 64, 100, 200])
def test_four_byte_size_form_matches_networkx(n):
    h = networkx.gnp_random_graph(n, 0.3, seed=n)
    g = Graph(n, list(h.edges()))
    record = networkx.to_graph6_bytes(h, nodes=range(n), header=False)
    record = record.decode().rstrip("\n")
    assert record[0] == "~"
    assert write_graph6(g) == record
    assert parse_graph6(record) == g
    assert parse_graph6(">>graph6<<" + record + "\n") == g


@pytest.mark.parametrize("record", [
    "~", "~??", "~" + chr(30) + "??",
    "~???",                  # n = 0 belongs in the one-byte form
])
def test_four_byte_size_form_malformed(record):
    with pytest.raises(Graph6Error, match="malformed length field") as exc:
        parse_graph6(record)
    assert exc.value.offset == 0


def test_malformed_length_field():
    with pytest.raises(Graph6Error, match="length field") as exc:
        parse_graph6("~~~")        # the 8-byte size form is out of scope
    assert exc.value.offset == 0


def test_large_size_form_is_unsupported():
    # '~~' opens the 8-byte size form, for n >= 258048
    with pytest.raises(Graph6Error, match="'~~'.*8-byte.*not supported") as exc:
        parse_graph6("~~??_???")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error, match="8-byte") as exc:
        parse_graph6(">>graph6<<~~??_???")
    assert exc.value.offset == len(">>graph6<<")
    with pytest.raises(Graph6Error, match="malformed length field '>'"):
        parse_graph6(">")          # byte 62 encodes n = -1


def test_data_offsets_follow_the_four_byte_size_field():
    with pytest.raises(Graph6Error, match="needs 1334 data bytes") as exc:
        parse_graph6("~?@~")     # n = 127
    assert exc.value.offset == 4
    record = write_graph6(Graph(63))
    with pytest.raises(Graph6Error, match="trailing data") as exc:
        parse_graph6(record + "?")
    assert exc.value.offset == len(record)
    bad = record[:5] + chr(30) + record[6:]
    with pytest.raises(Graph6Error, match="printable range") as exc:
        parse_graph6(bad)
    assert exc.value.offset == 5


def test_character_out_of_range():
    bad = "C" + chr(30) + ""
    with pytest.raises(Graph6Error, match="printable range") as exc:
        parse_graph6(bad)
    assert exc.value.offset == 1


def test_truncated_record():
    with pytest.raises(Graph6Error, match="data bytes"):
        parse_graph6("C")          # n=4 needs one data byte


def test_trailing_data():
    with pytest.raises(Graph6Error, match="trailing data"):
        parse_graph6("C~~")


def test_nonzero_padding_bits():
    # n=2 uses one adjacency bit; set a padding bit below it
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(Graph6Error, match="trailing bits") as exc:
        parse_graph6(bad)
    assert exc.value.offset == 1


def test_empty_record():
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("")
