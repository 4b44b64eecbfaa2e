"""delta(L) as the kernel of the maps onto 2, found without Day's relation.

A lattice map of L onto the 2-element chain is x -> [p <= x] for a
join-prime p: the preimage of 1 is a prime filter, and a filter of a
finite lattice is some up-set of p.  Each such map factors through L/delta,
since 2 is distributive, and L/delta is a subdirect power of 2 (Birkhoff).
So x delta y iff the same join-prime elements lie below x and y.  An
element p other than the bottom is join-prime iff the join of all the
elements not above p is not above p.  The join-primes are J(L) without D's
sources (``all_congruences``' docstring), so the same set checks
``DayRelation.sources`` too.
"""

import time

from hypothesis import given, settings

from latquot import Congruence, delta, free_modular_3, n5, product
from latquot.core import _bits

from test_distributive_witness import lattices


def join_primes(lat):
    """The join-prime elements of ``lat`` as a bitmask over indices, from the
    order bitsets and the join table alone."""
    n, join, up = len(lat), lat.join_table, lat.up
    everything = (1 << n) - 1
    bottom = next(x for x in range(n) if up[x] == everything)
    primes = 0
    for p in range(n):
        if p == bottom:
            continue
        outside = bottom
        for x in _bits(everything & ~up[p]):
            outside = join[outside][x]
        if not up[p] >> outside & 1:
            primes |= 1 << p
    return primes


def assert_delta_is_the_kernel(lat):
    primes = join_primes(lat)
    assert delta(lat) == Congruence(len(lat), [below & primes for below in lat.down])
    day = lat.day()
    unforced = sum(1 << j for t, j in enumerate(day.joins) if not day.sources >> t & 1)
    assert primes == unforced


def test_delta_is_the_kernel_on_the_catalog(catalog):
    for named in catalog:
        assert_delta_is_the_kernel(named.lattice)


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=64))
def test_delta_is_the_kernel_on_random_lattices(lat):
    assert_delta_is_the_kernel(lat)


def test_delta_is_the_kernel_on_a_700_element_product():
    start = time.perf_counter()
    pentagon = n5().lattice
    lat = product(product(pentagon, pentagon), free_modular_3().lattice)
    assert len(lat) == 700
    assert_delta_is_the_kernel(lat)
    assert time.perf_counter() - start < 5
