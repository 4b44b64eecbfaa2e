"""The semimodularity scan of ``core.modular_failure`` against the modular
law checked at every triple."""

from hypothesis import given, settings
from test_distributive_witness import lattices

from conftest import all_partitions
from latquot import boolean, from_covers, is_modular, m3, n5, product
from latquot.core import modular_failure


def naive_is_modular(lat):
    n = len(lat)
    meet, join = lat.meet_table, lat.join_table
    return all(join[a][meet[b][c]] == meet[join[a][b]][c]
               for a in range(n) for c in range(n) if lat.leq_i(a, c) for b in range(n))


def assert_agrees_with_the_law(lat):
    failure = modular_failure(lat)
    assert (failure is None) == naive_is_modular(lat) == is_modular(lat)
    if failure is not None:
        a, b, c = failure
        meet, join = lat.meet_table, lat.join_table
        assert a != c and lat.leq_i(a, c)
        assert join[a][meet[b][c]] == a
        assert meet[join[a][b]][c] == c


@given(lattices(max_elements=24))
@settings(max_examples=200, deadline=None)
def test_modular_failure_matches_the_law(lat):
    assert_agrees_with_the_law(lat)


def test_modular_failure_on_the_catalog(catalog):
    for named in catalog:
        assert_agrees_with_the_law(named.lattice)
    for lat in (product(n5().lattice, m3().lattice), boolean(6).lattice):
        assert_agrees_with_the_law(lat)


def partition_lattice(points, dual=False):
    """The set partitions of ``points`` ordered by refinement, or the dual."""
    parts = [frozenset(frozenset(block) for block in part) for part in all_partitions(points)]
    name = {p: "".join("(" + "".join(map(str, sorted(b))) + ")" for b in sorted(p, key=min))
            for p in parts}
    covers = []
    for p in parts:
        for q in parts:
            # q covers p iff q merges exactly two blocks of p
            if len(q) == len(p) - 1 and all(any(b <= c for c in q) for b in p):
                covers.append((name[q], name[p]) if dual else (name[p], name[q]))
    return from_covers([name[p] for p in parts], covers)


def test_both_halves_of_the_scan_are_needed():
    # Pi_4 is upper but not lower semimodular, so only the lower scan finds its
    # failure, and only the upper scan finds its dual's
    for dual in (False, True):
        lat = partition_lattice(range(4), dual)
        assert len(lat) == 15
        assert modular_failure(lat) is not None
        assert_agrees_with_the_law(lat)
    assert modular_failure(partition_lattice(range(3))) is None
