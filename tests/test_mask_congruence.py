"""The congruence of a D-closed set, and the set of D's sources.

``_mask_congruence`` writes each element's label in one pass and skips the
relabelling that ``Congruence(n, labels)`` gives every other input; here
its labels are compared with that constructor's on D-closed sets grown
from random pairs, and checked to be canonical.  ``DayRelation.sources``,
which the Day path of ``kappa`` reads as delta's D-closed set, is compared
with the union of ``pred`` and with the set read back from delta.  The
dual lattice gives a second delta from a different computation: its Day
relation is built on the meet-irreducibles of L.  Lattices have up to 64
elements.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import delta, free_modular_3, m3, n5, product
from latquot.congruence import Congruence, _closed_set, _congruence_closure, _mask_congruence
from latquot.core import Lattice

from test_distributive_witness import lattices


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=64), st.data())
def test_mask_congruence_matches_the_relabelling_constructor(lat, data):
    n, below = len(lat), lat.day().below
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4))
    closed = 0
    for pair in [None] + pairs:  # the empty set first: the identity congruence
        if pair is not None:
            closed = _congruence_closure(lat, closed, [pair])
        theta = _mask_congruence(lat, closed)
        assert theta == Congruence(n, [mask & ~closed for mask in below])
        b = theta.block_of
        assert type(b) is tuple and theta.lattice_size == n
        assert all(b[i] <= i and b[b[i]] == b[i] for i in range(n))


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=64))
def test_sources_are_the_union_of_pred_and_the_set_of_delta(lat):
    day = lat.day()
    union = 0
    for preds in day.pred:
        union |= preds
    assert day.sources == union
    assert day.sources == _closed_set(lat, delta(lat))


def dual(lat):
    return Lattice(lat.elements, lat.join_table, lat.meet_table)


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=64))
def test_delta_of_the_dual_is_delta(lat):
    assert delta(dual(lat)) == delta(lat)


def test_delta_of_the_dual_is_delta_on_the_catalog_and_products(catalog):
    small = [named.lattice for named in catalog if len(named.lattice) <= 64]
    pentagon, diamond, fm3 = n5().lattice, m3().lattice, free_modular_3().lattice
    products = [product(pentagon, diamond), product(product(pentagon, pentagon), pentagon),
                product(fm3, pentagon)]
    for lat in small + products:
        assert delta(dual(lat)) == delta(lat)
