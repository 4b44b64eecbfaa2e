"""``all_congruences`` of a distributive lattice against a join closure.

A distributive lattice has no edge in Day's relation D, so
``all_congruences`` lists the congruence of every subset of J(L) with no
join.  Here that listing is compared, order included, with the join
closure of ``join_irreducible_congruences`` under ``cong_join`` (which
still re-checks each join it returns): on the distributive catalog
lattices, on products of chains and Booleans, and on random rings of sets
of up to 24 elements.  The test that picks the path, ``day().sources ==
0``, is compared with ``is_distributive`` on random lattices and on
products that are not distributive.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import (
    all_congruences,
    boolean,
    chain,
    cong_join,
    free_modular_3,
    identity_congruence,
    is_distributive,
    join_irreducible_congruences,
    m3,
    n5,
    product,
    standard_catalog,
)
from latquot.catalog import CATALOG_NAMES, _set_lattice, resolve
from latquot.errors import SizeLimitExceeded

from test_kappa_differential import lattices

MAX_ELEMENTS = 24


def join_closure(lat):
    """Con(L) as the closure of the identity under joins with the
    generators con(j_*, j), in ``all_congruences``' order."""
    generators = join_irreducible_congruences(lat)
    seen = {identity_congruence(lat)}
    work = list(seen)
    while work:
        theta = work.pop()
        for gen in generators:
            joined = cong_join(lat, theta, gen)
            if joined not in seen:
                seen.add(joined)
                work.append(joined)
    return sorted(seen, key=lambda t: (-t.num_blocks(), t.block_of))


def check_listing(lat):
    cons = all_congruences(lat, max_size=len(lat))
    assert len(cons) == 2 ** len(lat.day().joins)
    assert cons == join_closure(lat)


DISTRIBUTIVE_NAMES = [name for name in CATALOG_NAMES if is_distributive(resolve(name).lattice)]


def test_the_distributive_catalog_lattices_are_the_expected_ones():
    assert "m3" not in DISTRIBUTIVE_NAMES and "fd-3" in DISTRIBUTIVE_NAMES
    assert len(DISTRIBUTIVE_NAMES) == len(CATALOG_NAMES) - 3  # m3, n5, fm-3


@pytest.mark.parametrize("name", DISTRIBUTIVE_NAMES)
def test_catalog_listing_matches_the_join_closure(name):
    check_listing(resolve(name).lattice)


@pytest.mark.parametrize("left, right", [
    (chain(2), chain(2)),
    (chain(3), chain(4)),
    (boolean(2), chain(3)),
    (boolean(3), chain(2)),
])
def test_product_listing_matches_the_join_closure(left, right):
    check_listing(product(left.lattice, right.lattice))


def ring_closure(family, limit):
    """``family`` closed under ``&`` and ``|``, or stopped once it has
    more than ``limit`` members."""
    closed, frontier = set(family), list(family)
    while frontier and len(closed) <= limit:
        new = {c for a in frontier for b in closed for c in (a & b, a | b)} - closed
        closed |= new
        frontier = list(new)
    return closed


@st.composite
def rings_of_sets(draw, max_elements=MAX_ELEMENTS):
    """A nonempty family of subsets of a ground set of 3 to 5 points,
    closed under ``&`` and ``|``, in a drawn element order.  A ring of sets
    on k points has length, and so |J(L)|, at most k: at most 2^5
    congruences."""
    full = (1 << draw(st.integers(min_value=3, max_value=5))) - 1
    family = {draw(st.integers(min_value=0, max_value=full))}
    for subset in draw(st.lists(st.integers(min_value=0, max_value=full), min_size=2, max_size=10)):
        grown = ring_closure(family | {subset}, max_elements)
        if len(grown) <= max_elements:
            family = grown
    members = draw(st.permutations(sorted(family)))
    return _set_lattice(members, [f"s{m:x}" for m in members])


@settings(max_examples=100, deadline=None)
@given(rings_of_sets())
def test_ring_of_sets_listing_matches_the_join_closure(lat):
    assert is_distributive(lat)
    check_listing(lat)


def test_the_cap_still_holds_on_the_distributive_path():
    with pytest.raises(SizeLimitExceeded):
        all_congruences(boolean(4).lattice, max_size=15)


@settings(max_examples=100, deadline=None)
@given(lattices())
def test_no_day_edge_iff_distributive_on_random_lattices(lat):
    assert (lat.day().sources == 0) == is_distributive(lat)


@pytest.mark.parametrize("lat", [
    *(named.lattice for named in standard_catalog()),
    product(n5().lattice, m3().lattice),
    product(free_modular_3().lattice, n5().lattice),
], ids=[*CATALOG_NAMES, "n5 x m3", "fm-3 x n5"])
def test_no_day_edge_iff_distributive(lat):
    assert (lat.day().sources == 0) == is_distributive(lat)
