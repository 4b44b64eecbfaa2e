"""``cong_join`` against the block merge it replaced and the partition oracle.

``cong_join`` closes, under Day's relation, the join-irreducibles that
either partition collapses.  Here it is compared with the transitive
closure of the union of two congruences, which is again a congruence, on
random lattices of up to 24 elements; and, up to 9 elements, with the least
upper bound among all congruences that the partition enumerator finds, for
random partitions as well as congruences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import cong_join, full_congruence, identity_congruence, n5
from latquot.congruence import Congruence

from test_kappa_differential import lattices
from test_order_oracles import random_congruence
from test_theorem_oracles import _partition_oracle


def transitive_join(t1, t2):
    """The transitive closure of the union of two partitions, as block_of:
    each element's block is merged with its block minimum's in either one,
    relabelling the block with the larger label."""
    label = list(range(t1.lattice_size))
    for theta in (t1, t2):
        for i, r in enumerate(theta.block_of):
            keep, gone = sorted((label[i], label[r]))
            for x, s in enumerate(label):
                if s == gone:
                    label[x] = keep
    return tuple(label)


def drawn_congruence(lat, data):
    """The identity, the full congruence, or one generated by drawn pairs."""
    kind = data.draw(st.sampled_from(("identity", "full", "generated")))
    if kind == "identity":
        return identity_congruence(lat)
    if kind == "full":
        return full_congruence(lat)
    return random_congruence(lat, data)


def drawn_partition(lat, data):
    """A partition from drawn labels; rarely a congruence."""
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(lat), max_size=len(lat)))
    return Congruence(len(lat), labels)


def refines(fine, coarse):
    return all(coarse[i] == coarse[r] for i, r in enumerate(fine))


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=24), st.data())
def test_cong_join_is_the_transitive_closure_of_the_union(lat, data):
    t1, t2 = drawn_congruence(lat, data), drawn_congruence(lat, data)
    joined = cong_join(lat, t1, t2)
    assert joined.block_of == transitive_join(t1, t2)
    assert joined == cong_join(lat, t2, t1)


@settings(max_examples=40, deadline=None)
@given(lattices(max_elements=9), st.data())
def test_cong_join_is_the_least_congruence_above_both(lat, data):
    cons = _partition_oracle(lat)
    for _ in range(3):
        t1 = data.draw(st.sampled_from((drawn_congruence, drawn_partition)))(lat, data)
        t2 = data.draw(st.sampled_from((drawn_congruence, drawn_partition)))(lat, data)
        joined = cong_join(lat, t1, t2).block_of
        uppers = [c for c in cons if refines(t1.block_of, c) and refines(t2.block_of, c)]
        assert joined in uppers
        assert all(refines(joined, c) for c in uppers)


def test_a_partition_that_is_no_congruence_joins_to_the_least_one_above_it():
    lat = n5().lattice  # 0 < a < b < 1 and 0 < c < 1, indexed 0, a, b, c, 1
    zero_c = Congruence(len(lat), (0, 1, 2, 0, 4))
    joined = cong_join(lat, zero_c, identity_congruence(lat))
    assert joined.render(lat) == "{0,c}{a,b,1}"
    assert joined == cong_join(lat, identity_congruence(lat), zero_c)
