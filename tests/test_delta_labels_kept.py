"""delta's labels, kept with Day's relation, do not depend on the calls before.

``kappa``'s Day path returns a new Congruence around the labels that
``DayRelation.delta_labels`` built on its first call.  Whatever ran on L
before or between two calls of ``delta``, the answer must equal ``delta``
of a fresh copy of L and the congruence of D's sources built afresh by
``_mask_congruence``.  Computations that never ask for delta build no
labels, and L/delta has delta the identity (idempotence).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import (
    MODULAR,
    class_filter,
    delta,
    generated_congruence,
    identity_congruence,
    kappa,
    m3,
    n5,
    product,
    quotient,
)
from latquot.congruence import _mask_congruence

from test_builder_orders import scanned as fresh
from test_distributive_witness import lattices


def other_work(lat, pairs):
    """Computations on ``lat`` that build congruences without delta: Con(L)
    and the quotient by each congruence, the witness loop, and a closure."""
    class_filter(lat, MODULAR, max_size=len(lat))
    kappa(lat, MODULAR)
    generated_congruence(lat, pairs)


def assert_kept_labels_are_delta(lat, pairs):
    expected = delta(fresh(lat))
    first = delta(lat)
    other_work(lat, pairs)
    second = delta(lat)
    rebuilt = _mask_congruence(lat, lat.day().sources)
    assert first == second == rebuilt == expected
    assert first is not second
    if len(lat) >= 5:  # a smaller L is swept, not read off Day's relation
        assert first.block_of is second.block_of
    assert delta(quotient(lat, first).target) == identity_congruence(quotient(lat, first).target)


def assert_no_labels_without_delta(lat, pairs):
    lat = fresh(lat)
    other_work(lat, pairs)
    assert lat.day()._delta is None
    assert delta(lat) == delta(fresh(lat))


def test_kept_labels_on_the_catalog(catalog):
    for lat in [named.lattice for named in catalog] + [product(n5().lattice, m3().lattice)]:
        pairs = [(lat.elements[0], lat.elements[-1] if len(lat) < 3 else lat.elements[2])]
        assert_no_labels_without_delta(lat, pairs)
        assert_kept_labels_are_delta(lat, pairs)


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=16), st.data())
def test_kept_labels_on_random_lattices(lat, data):
    element = st.sampled_from(lat.elements)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    assert_no_labels_without_delta(lat, pairs)
    assert_kept_labels_are_delta(lat, pairs)
