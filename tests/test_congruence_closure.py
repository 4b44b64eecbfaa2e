"""The congruence closure against a naive fixpoint on random lattices.

``_congruence_closure`` grows a D-closed set of join-irreducibles, and
``_mask_congruence`` reads the partition off it.  Here they are compared
with a loop that translates every pair of every block until nothing
changes, on lattices of up to 24 elements, both when all pairs are closed
at once and when one set is extended pair by pair, as ``kappa`` extends it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import generated_congruence
from latquot.congruence import _closed_set, _congruence_closure, _mask_congruence

from test_distributive_witness import lattices
from test_theorem_oracles import _compatible


def naive_generated(lat, pairs):
    """The least compatible partition merging ``pairs``: every pair of a
    block is translated by every element, until a whole pass merges
    nothing.  Labels are block minima."""
    n = len(lat)
    label = list(range(n))

    def merge(p, q):
        keep, gone = sorted((label[p], label[q]))
        for i in range(n):
            if label[i] == gone:
                label[i] = keep

    for a, b in pairs:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                if label[x] != label[y]:
                    continue
                for table in (lat.meet_table, lat.join_table):
                    for p, q in zip(table[x], table[y]):
                        if label[p] != label[q]:
                            merge(p, q)
                            changed = True
    return tuple(label)


def is_canonical(block_of):
    return all(r == min(j for j, s in enumerate(block_of) if s == r) for r in block_of)


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=24), st.data())
def test_closure_matches_the_naive_fixpoint(lat, data):
    index = st.integers(min_value=0, max_value=len(lat) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))
    expected = naive_generated(lat, pairs)
    at_once = generated_congruence(lat, [(lat.elements[a], lat.elements[b]) for a, b in pairs])
    assert at_once.block_of == expected
    closed = 0
    for k, pair in enumerate(pairs, 1):
        closed = _congruence_closure(lat, closed, [pair])
        theta = _mask_congruence(lat, closed)
        assert is_canonical(theta.block_of)
        assert _compatible(lat, theta.block_of)
        assert theta.block_of == naive_generated(lat, pairs[:k])
        assert _closed_set(lat, theta) == closed
    assert theta == at_once
