"""graph6 codec: format examples, round trips, and malformed records."""

import random

import networkx
import pytest

from conftest import DATA_DIR
from util import path_graph, random_graph, reference_parse_graph6
from zeroforcing import (Graph, Graph6Error, complete_graph, parse_graph6,
                         permutation_prism, write_graph6)


def reference_encode(g: Graph) -> str:
    """Independent encoder: build the whole bitstring from the edge set, then
    chop into bytes."""
    bits = ""
    for j in range(g.n):
        for i in range(j):
            bits += "1" if (i, j) in g.edges else "0"
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


def test_sparse_record_of_two_thousand_vertices_matches_networkx():
    # n = 2000 in the `~` size form: 333 167 data bytes for 3000 edges
    g = permutation_prism(1000)
    h = networkx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    record = networkx.to_graph6_bytes(h, nodes=range(g.n), header=False)
    record = record.decode().rstrip("\n")
    assert len(record) == 4 + 333167
    assert write_graph6(g) == record
    assert parse_graph6(record) == g


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


def valid_records():
    """The cubic fixtures of orders 4-14, seeded random graphs of orders
    0-70 (both size forms) and permutation_prism(1000)."""
    records = []
    for order in range(4, 15, 2):
        records += (DATA_DIR / f"cubic{order:02d}.g6").read_text().split()
    rng = random.Random(3601)
    records += [write_graph6(random_graph(rng, n, p=rng.random()))
                for n in range(71)]
    records.append(write_graph6(permutation_prism(1000)))
    return records


def corruptions(rng, record):
    """One seeded corruption of each kind: a replaced byte, a truncation, an
    extra byte, a set padding bit (when the record has one) and a bad '~'
    size field."""
    at = rng.randrange(len(record))
    byte = chr(rng.choice([rng.randrange(128), rng.randrange(63, 127)]))
    yield record[:at] + byte + record[at + 1:]
    yield record[:rng.randrange(len(record))]
    yield record + chr(rng.randrange(63, 127))
    n = parse_graph6(record).n
    spare = -(n * (n - 1) // 2) % 6
    if spare:
        last = ord(record[-1]) - 63 | 1 << rng.randrange(spare)
        yield record[:-1] + chr(63 + last)
    width = 4 if record[0] == "~" else 1
    field = [rng.randrange(63, 127) for _ in range(3)]
    field[rng.randrange(3)] = rng.choice([rng.randrange(63), 127, 63])
    yield "~" + "".join(map(chr, field[:rng.randrange(1, 4)])) + record[width:]


def decoded(parse, text):
    try:
        g = parse(text)
    except Graph6Error as exc:
        return str(exc), exc.offset
    return g.n, g.edges, g.bits


def test_same_result_as_the_reference_decoder():
    # each input gives the same (n, edges, bits), or the same message and
    # offset; every check on the record is met at least once
    rng = random.Random(3602)
    messages = []
    for record in valid_records():
        texts = [record, ">>graph6<<" + record + "\n"]
        texts += corruptions(rng, record)
        for text in texts:
            got = decoded(parse_graph6, text)
            assert got == decoded(reference_parse_graph6, text), text[:40]
            if isinstance(got[0], str):
                messages.append(got[0])
    for kind in ("malformed length field", "data bytes", "trailing data",
                 "outside printable range", "trailing bits nonzero"):
        assert any(kind in message for message in messages), kind


def test_a_parsed_graph_is_a_constructed_graph():
    # `Graph._from_masks` takes the order from the masks, so isolated
    # vertices past the last edge count, and an edgeless record keeps its n
    assert parse_graph6("B?") == Graph(3)
    assert parse_graph6("CG") == Graph(4, [(1, 2)])
    for record in valid_records():
        g = parse_graph6(record)
        h = Graph(reference_parse_graph6(record).n, g.edges)
        assert g == h and hash(g) == hash(h)
        assert g.bits == h.bits
        assert type(g.edges) is frozenset
        for name in ("n", "edges", "bits", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
