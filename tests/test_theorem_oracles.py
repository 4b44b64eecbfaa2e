"""Property tests for the facts the library no longer re-checks at run time.

``quotient`` does not re-validate L/theta, ``class_filter`` does not compare
itself with the up-set of ``kappa``, and ``all_congruences`` is trusted to
be all of Con(L).  These tests guard each fact on random lattices.
"""

import itertools
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    all_congruences,
    class_filter,
    cong_meet,
    is_isomorphic,
    kappa,
    leq_congruence,
    product,
    push_congruence,
    quotient,
    variety,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)

from conftest import all_partitions
from test_kappa_differential import MAX_ELEMENTS, lattices
from test_order_oracles import random_congruence

ORACLE_ELEMENTS = 8  # Bell(8) = 4140 partitions per lattice


def _compatible(lat, block_of):
    """True iff the partition respects meet and join (checked pair by pair)."""
    n = len(lat)
    for i in range(n):
        for j in range(i + 1, n):
            if block_of[i] != block_of[j]:
                continue
            for c in range(n):
                if block_of[lat.meet_table[i][c]] != block_of[lat.meet_table[j][c]]:
                    return False
                if block_of[lat.join_table[i][c]] != block_of[lat.join_table[j][c]]:
                    return False
    return True


def _partition_oracle(lat):
    """Con(L) as canonical block_of tuples: every set partition, filtered."""
    out = set()
    for part in all_partitions(range(len(lat))):
        block_of = [0] * len(lat)
        for block in part:
            for i in block:
                block_of[i] = min(block)
        if _compatible(lat, block_of):
            out.add(tuple(block_of))
    return out


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=ORACLE_ELEMENTS))
def test_all_congruences_match_the_partition_oracle(lat):
    cons = all_congruences(lat, max_size=ORACLE_ELEMENTS)
    assert len(set(cons)) == len(cons)
    assert {t.block_of for t in cons} == _partition_oracle(lat)


@settings(max_examples=60, deadline=5000)
@given(lattices())
def test_class_filter_is_the_upset_of_kappa(lat):
    cons = all_congruences(lat, max_size=MAX_ELEMENTS)
    for spec in (DISTRIBUTIVE, MODULAR):
        kap = kappa(lat, spec)
        expected = [t for t in cons if leq_congruence(kap, t)]
        assert class_filter(lat, spec, max_size=MAX_ELEMENTS) == expected


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=10), st.data())
def test_theorem1_verdict_is_the_three_filter_properties(lat, data):
    # verify_theorem1 asks that F be the up-set of its meet and the meet be
    # kappa; with F and kappa drawn, its verdict must be that of asking F to
    # be an up-set, closed under binary meets, and the up-set of kappa,
    # decided here on partitions
    cons = all_congruences(lat, max_size=10)
    base = data.draw(st.sampled_from(cons))
    if data.draw(st.booleans()):  # the up-set of a congruence, up to two members toggled
        upset = {i for i, t in enumerate(cons) if leq_congruence(base, t)}
        inside = upset ^ data.draw(st.sets(st.sampled_from(range(len(cons))), max_size=2))
    else:  # any subset, the empty one included
        inside = data.draw(st.sets(st.sampled_from(range(len(cons)))))
    filtered = [t for i, t in enumerate(cons) if i in inside]
    kap = data.draw(st.one_of(st.just(base), st.sampled_from(cons)))
    members = set(filtered)
    is_upset = all(t in members for s in filtered for t in cons if leq_congruence(s, t))
    meet_closed = all(cong_meet(s, t) in members for s, t in itertools.combinations(filtered, 2))
    is_upset_of_kappa = filtered == [t for t in cons if leq_congruence(kap, t)]
    with patch.object(variety, "_in_class", lambda lat, cons, spec: filtered), \
            patch.object(variety, "kappa", lambda lat, spec: kap):
        report = verify_theorem1(lat, DISTRIBUTIVE, max_size=10)
    assert report.ok == (is_upset and meet_closed and is_upset_of_kappa), report.details


@settings(max_examples=60, deadline=5000)
@given(lattices())
def test_every_quotient_is_a_lattice(lat):
    for theta in all_congruences(lat, max_size=MAX_ELEMENTS):
        quotient(lat, theta).target._validate()


@settings(max_examples=40, deadline=5000)
@given(lattices(max_elements=ORACLE_ELEMENTS))
def test_push_congruence_agrees_with_quotient(lat):
    # for theta <= phi: x ~ y mod phi iff their images are phi/theta-related,
    # and (L/theta)/(phi/theta) is isomorphic to L/phi
    cons = all_congruences(lat, max_size=ORACLE_ELEMENTS)
    n = len(lat)
    for theta in cons:
        qmap = quotient(lat, theta)
        for phi in cons:
            if not leq_congruence(theta, phi):
                continue
            pushed = push_congruence(qmap, phi)
            assert all(
                pushed.block_of[i] == min(block) for block in pushed.blocks() for i in block
            )
            image = qmap.index_map
            assert all(
                pushed.same(image[i], image[j]) == phi.same(i, j)
                for i in range(n) for j in range(n)
            )
            twice = quotient(qmap.target, pushed).target
            assert is_isomorphic(twice, quotient(lat, phi).target)


@settings(max_examples=40, deadline=5000)
@given(lattices(), st.data())
def test_theorem2_holds_for_random_theta(lat, data):
    theta = random_congruence(lat, data)
    for spec in (DISTRIBUTIVE, MODULAR):
        report = verify_theorem2(lat, theta, spec)
        assert report.ok, report.details


@settings(max_examples=10, deadline=5000)
@given(lattices(max_elements=4), lattices(max_elements=4), st.sampled_from((DISTRIBUTIVE, MODULAR)))
def test_theorem3_holds_for_random_factors(l1, l2, spec):
    # one class per example: the count check below enumerates Con of a
    # product of up to 16 elements
    report = verify_theorem3(l1, l2, spec)
    assert report.ok, report.details
    (count,) = [int(d.split()[2]) for d in report.details if d.startswith("factored all ")]
    assert count == len(all_congruences(product(l1, l2), max_size=16))
