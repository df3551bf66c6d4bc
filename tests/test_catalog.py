"""Catalog generators and the shipped graph6 fixtures."""

import itertools

import pytest

from conftest import load_catalog
from zeroforcing import (canonical_certificate, connected_cubic_graphs,
                         small_graphs, write_graph6)


def test_connected_cubic_counts():
    assert len(connected_cubic_graphs(4)) == 1
    assert len(connected_cubic_graphs(6)) == 2
    assert len(connected_cubic_graphs(8)) == 5
    assert len(connected_cubic_graphs(10)) == 19


def test_connected_cubic_members_are_valid():
    for order in (4, 6, 8, 10):
        members = connected_cubic_graphs(order)
        certs = set()
        for g in members:
            assert g.n == order
            assert g.is_cubic()
            assert g.is_connected()
            certs.add(canonical_certificate(g))
        assert len(certs) == len(members)


def test_odd_and_tiny_orders_empty():
    assert connected_cubic_graphs(7) == ()
    assert connected_cubic_graphs(2) == ()


def test_small_graph_counts():
    assert [len(small_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_small_graphs_distinct():
    certs = {canonical_certificate(g) for g in small_graphs(5)}
    assert len(certs) == 34


@pytest.mark.parametrize("order,count",
                         [(4, 1), (6, 2), (8, 5), (10, 19), (12, 85), (14, 509)])
def test_fixture_files_are_complete_catalogs(order, count):
    """Fixture = every connected cubic graph of the order, pairwise distinct.

    Distinct certificates plus the known census total prove completeness
    without regenerating the larger orders.
    """
    members = load_catalog(order)
    assert len(members) == count
    certs = set()
    for g in members:
        assert g.n == order
        assert g.is_cubic()
        assert g.is_connected()
        certs.add(canonical_certificate(g))
    assert len(certs) == count


def test_fixture_matches_generator_at_small_orders():
    # records in order: the catalog is sorted by certificate, so this also
    # pins the certificate values (and with them the distance-profile seed of
    # the labelling), not only which classes they separate
    for order in (4, 6, 8, 10, 12):
        fixture = [write_graph6(g) for g in load_catalog(order)]
        live = [write_graph6(g) for g in connected_cubic_graphs(order)]
        assert fixture == live
