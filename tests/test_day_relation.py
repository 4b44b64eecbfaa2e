"""Day's relation D and the D-closed sets against brute-force oracles.

``Lattice.day`` is compared with J(L) and D read off their definitions;
the congruences of all D-closed subsets of J(L) with ``all_congruences``
and with the partition enumerator of ``conftest``; and delta, the
congruence of D's sources, with the join-prime round loop that computed it
before (kept here, with its worklist closure), on products and random
lattices of up to 625 elements.  ``test_kappa_differential`` and
``test_distributive_witness`` compare the same delta with ``kappa_oracle``
(up to 12 elements) and with ``kappa_by_sweeps`` (up to 24).
"""

import random

import pytest
from hypothesis import given, settings

from latquot import (
    all_congruences,
    delta,
    free_modular_3,
    identity_congruence,
    n5,
    product,
    quotient,
)
from latquot.congruence import Congruence, _mask_congruence
from latquot.core import distributive_failure

from test_distributive_witness import lattices
from test_kappa_differential import _lattice_of, _meet_closure
from test_theorem_oracles import _partition_oracle


def naive_day(lat):
    """(J(L) in index order, their lower covers, D as a set of index pairs)."""
    n = len(lat)
    lower = [[i for i, j in lat.covers_i() if j == x] for x in range(n)]
    joins = [x for x in range(n) if len(lower[x]) == 1]
    star = {j: lower[j][0] for j in joins}
    leq, join = lat.leq_i, lat.join_table
    relation = {(i, k) for i in joins for k in joins if i != k
                and any(leq(i, join[k][p]) and not leq(i, join[star[k]][p]) for p in range(n))}
    return joins, [star[j] for j in joins], relation


def closed_congruences(lat):
    """The congruences of every D-closed subset of J(L), as block_of tuples."""
    pred = lat.day().pred
    out = set()
    for closed in range(1 << len(pred)):
        if all(not closed >> t & 1 or pred[t] & ~closed == 0 for t in range(len(pred))):
            out.add(_mask_congruence(lat, closed).block_of)
    return out


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=16))
def test_day_relation_matches_its_definition(lat):
    day = lat.day()
    joins, lower, relation = naive_day(lat)
    assert list(day.joins) == joins and list(day.lower) == lower
    for x in range(len(lat)):
        assert day.below[x] == sum(1 << t for t, j in enumerate(joins) if lat.leq_i(j, x))
    assert {(joins[s], joins[t]) for t, preds in enumerate(day.pred)
            for s in range(len(joins)) if preds >> s & 1} == relation
    assert lat.day() is day


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=10))
def test_d_closed_sets_give_exactly_con_l(lat):
    expected = {theta.block_of for theta in all_congruences(lat)}
    assert closed_congruences(lat) == expected
    if len(lat) <= 9:  # Bell(10) partitions take most of a second
        assert _partition_oracle(lat) == expected


def test_d_closed_sets_give_exactly_con_l_at_ten_elements():
    pentagon_by_chain = product(n5().lattice, _lattice_of({0b0, 0b1}))
    assert len(pentagon_by_chain) == 10
    assert closed_congruences(pentagon_by_chain) == _partition_oracle(pentagon_by_chain)


def _merge(block_of, x, y):
    """Merge the blocks of x and y, relabelling the block with the larger
    label, so that each label stays its block's minimum."""
    keep, gone = sorted((block_of[x], block_of[y]))
    for i, r in enumerate(block_of):
        if r == gone:
            block_of[i] = keep


def _worklist_closure(lat, block_of, seed_pairs):
    """The least congruence above the congruence ``block_of`` merging every
    seed pair: translate each merged pair by every element, until none
    merges.  ``block_of`` is grown in place."""
    work = []
    for a, b in seed_pairs:
        if block_of[a] != block_of[b]:
            _merge(block_of, a, b)
            work.append((a, b))
    meet, join = lat.meet_table, lat.join_table
    while work:
        x, y = work.pop()
        for row_x, row_y in ((meet[x], meet[y]), (join[x], join[y])):
            for p, q in zip(row_x, row_y):
                if block_of[p] != block_of[q]:
                    _merge(block_of, p, q)
                    work.append((p, q))
    return Congruence(len(lat), block_of)


def delta_by_join_prime_rounds(lat):
    """delta by rounds: collapse the pair of ``distributive_failure`` on
    L/theta, lifted to block minima, until L/theta is distributive."""
    block_of = list(range(len(lat)))
    theta = identity_congruence(lat)
    target, reps = lat, range(len(lat))
    while True:
        pair = distributive_failure(target)
        if pair is None:
            return theta
        left, right = pair
        theta = _worklist_closure(lat, block_of, [(reps[left], reps[right])])
        target = quotient(lat, theta).target
        reps = sorted(set(theta.block_of))


def random_lattice(seed, size, ground=8):
    """The lattice of a seeded intersection-closed family of at most
    ``size`` subsets of a ``ground``-point set."""
    rng = random.Random(seed)
    full = (1 << ground) - 1
    family = {full}
    for _ in range(400):
        grown = _meet_closure(family | {rng.randrange(full)})
        if len(grown) <= size:
            family = grown
    return _lattice_of(family)


def _large():
    pentagon = n5().lattice
    cube = product(product(pentagon, pentagon), pentagon)
    yield pytest.param(cube, id="n5^3")
    yield pytest.param(product(free_modular_3().lattice, pentagon), id="fm-3 x n5")
    yield pytest.param(product(cube, pentagon), id="n5^4")
    # a random 64-element lattice mostly collapses under delta; a product of
    # two random 8-element ones keeps 6-48 blocks
    for seed in range(2):
        yield pytest.param(random_lattice(seed, 64), id=f"random-64-{seed}")
    for seed in range(6):
        pair = (random_lattice(2 * seed + k, 8, ground=4) for k in (0, 1))
        yield pytest.param(product(*pair), id=f"random-8x8-{seed}")


@pytest.mark.parametrize("lat", _large())
def test_delta_matches_the_join_prime_rounds(lat):
    assert delta(lat) == delta_by_join_prime_rounds(lat)
