"""Builders' orders against the n^2 scan.

``product`` hands ``Lattice`` each down-set as down1 x down2, built by one
multiplication.  ``Lattice(elements, meet, join)`` without ``_order``
derives the order from the meet table by an n^2 scan; each builder's
``down`` and ``up`` must equal the scan's.  ``catalog._set_lattice``,
``restrict`` and ``quotient`` take the scan: a ring of sets' order must be
inclusion, and L/theta's order L's order on the block minima.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import catalog, generated_congruence, product, quotient
from latquot.catalog import _set_lattice
from latquot.core import Lattice, _bits

from test_distributive_witness import lattices


def scanned(lat):
    """``lat`` rebuilt from its tables alone, so that its order is scanned."""
    return Lattice(lat.elements, lat.meet_table, lat.join_table)


def assert_scanned_order(lat):
    scan = scanned(lat)
    assert (lat.down, lat.up) == (scan.down, scan.up)


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=12), lattices(max_elements=12))
def test_product_order_is_the_scanned_order(l1, l2):
    assert_scanned_order(product(l1, l2))


@st.composite
def rings_of_sets(draw):
    """A family of subsets of a 1-7 point set closed under & and |, with
    its members in a drawn order."""
    points = draw(st.integers(min_value=1, max_value=7))
    family = set(draw(st.lists(st.integers(min_value=0, max_value=(1 << points) - 1),
                               min_size=1, max_size=8)))
    grown = True
    while grown:
        closed = family | {a & b for a in family for b in family} | {a | b for a in family
                                                                    for b in family}
        grown, family = closed != family, closed
    return draw(st.permutations(sorted(family)))


@settings(max_examples=100, deadline=None)
@given(rings_of_sets())
def test_ring_of_sets_order_is_inclusion_and_the_scanned_order(members):
    lat = _set_lattice(members, [f"s{m}" for m in members])
    assert_scanned_order(lat)
    for i, a in enumerate(members):
        assert list(_bits(lat.up[i])) == [j for j, b in enumerate(members) if a & b == a]


def test_stock_lattices_have_the_scanned_order():
    names = ([f"chain-{n}" for n in (1, 2, 3, 17, 256)] + [f"boolean-{n}" for n in range(9)]
             + ["fd-1", "fd-2", "fd-3", "f-1", "f-2", "fm-3"])
    for name in names:
        assert_scanned_order(catalog.resolve(name).lattice)


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=24), st.data())
def test_quotient_order_is_the_order_on_block_minima(lat, data):
    index = st.integers(min_value=0, max_value=len(lat) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=3))
    theta = generated_congruence(lat, [(lat.elements[a], lat.elements[b]) for a, b in pairs])
    target = quotient(lat, theta).target
    minima = sorted(set(theta.block_of))
    for k, a in enumerate(minima):
        assert list(_bits(target.up[k])) == [m for m, b in enumerate(minima) if lat.leq_i(a, b)]
