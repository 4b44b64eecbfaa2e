"""The generators of Con(L) and the cover pairs they are read from.

``all_congruences`` joins the distinct con(j_*, j) over the
join-irreducibles j.  Here they are compared with the distinct principal
congruences of all cover pairs, and ``covers_i`` with the definition of a
cover, on random lattices of up to 24 elements and on the catalog, as
are the kept cover lists (``Lattice.cover_lists``).  The
closure, which skips the generators a congruence already contains, is
compared with joining every congruence to every generator, on lattices
above the partition oracle's 8 elements.
"""

import pytest
from hypothesis import given, settings

from latquot import (
    all_congruences,
    cong_join,
    identity_congruence,
    join_irreducible_congruences,
    n5,
    principal_congruence,
    product,
)
from latquot.catalog import CATALOG_NAMES, resolve

from test_kappa_differential import lattices


def naive_covers(lat):
    """Pairs i < j with nothing strictly between, in index order."""
    n = len(lat)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and lat.leq_i(i, j)
        and not any(k not in (i, j) and lat.leq_i(i, k) and lat.leq_i(k, j) for k in range(n))
    ]


def check_generators(lat):
    assert lat.covers_i() == naive_covers(lat)
    generators = join_irreducible_congruences(lat)
    assert len(set(generators)) == len(generators)
    by_covers = {principal_congruence(lat, a, b) for a, b in lat.covers()}
    assert set(generators) == by_covers


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=24))
def test_generators_are_the_distinct_cover_congruences(lat):
    check_generators(lat)


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if len(resolve(n).lattice) <= 28])
def test_generators_on_the_catalog(name):
    check_generators(resolve(name).lattice)


def check_cover_lists(lat):
    pairs, n = lat.covers_i(), len(lat)
    upper, lower = lat.cover_lists()
    assert upper == tuple(tuple(j for i, j in pairs if i == x) for x in range(n))
    assert lower == tuple(tuple(i for i, j in pairs if j == x) for x in range(n))
    assert lat.cover_lists() is lat.cover_lists()
    assert lat.covers() == [(lat.elements[i], lat.elements[j]) for i, j in pairs]


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=24))
def test_cover_lists_are_the_cover_pairs(lat):
    check_cover_lists(lat)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cover_lists_on_the_catalog(name):
    check_cover_lists(resolve(name).lattice)


def naive_closure(lat):
    """Con(L) by joining every congruence found with every generator."""
    generators = join_irreducible_congruences(lat)
    seen = {identity_congruence(lat)}
    work = list(seen)
    while work:
        theta = work.pop()
        for gen in generators:
            merged = cong_join(lat, theta, gen)
            if merged not in seen:
                seen.add(merged)
                work.append(merged)
    return sorted(seen, key=lambda t: (-t.num_blocks(), t.block_of))


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=16))
def test_closure_matches_joining_every_generator(lat):
    assert all_congruences(lat, max_size=16) == naive_closure(lat)


@pytest.mark.parametrize("lat, size", [
    (resolve("fm-3").lattice, 128),
    (product(n5().lattice, n5().lattice), 25),
], ids=["fm-3", "n5xn5"])
def test_closure_matches_joining_every_generator_on_large_lattices(lat, size):
    congruences = all_congruences(lat, max_size=len(lat))
    assert len(congruences) == size
    assert congruences == naive_closure(lat)
