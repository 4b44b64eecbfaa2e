"""The order every builder derives from its meet table, on random lattices.

A lattice is built from its meet and join tables and its order is read off
the meet (``x <= y`` iff ``x /\\ y == x``).  Each test compares that derived
order with the order the construction means: set inclusion, the
componentwise order, the quotient order, the induced order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import Lattice, generated_congruence, product, quotient, restrict, sublattice_closure

from test_kappa_differential import lattices


def random_congruence(lat, data):
    """The congruence generated by up to three drawn pairs (none: identity)."""
    index = st.integers(min_value=0, max_value=len(lat) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=3))
    return generated_congruence(lat, [(lat.elements[a], lat.elements[b]) for a, b in pairs])


def assert_order_agrees(lat, expected):
    """``lat``'s up and down bitsets both hold exactly ``expected(i, j)``."""
    n = len(lat)
    for i in range(n):
        for j in range(n):
            want = expected(i, j)
            assert bool(lat.up[i] >> j & 1) == want, (lat.elements[i], lat.elements[j])
            assert bool(lat.down[j] >> i & 1) == want, (lat.elements[i], lat.elements[j])


@settings(max_examples=60, deadline=2000)
@given(lattices())
def test_from_covers_order_is_set_inclusion(lat):
    # lattices() names the set with bitmask s as "s<hex of s>"
    sets = [int(name[1:], 16) for name in lat.elements]
    assert_order_agrees(lat, lambda i, j: sets[i] & sets[j] == sets[i])
    # from_covers hands over its own bitsets; they are the meet table's order
    derived = Lattice(lat.elements, lat.meet_table, lat.join_table)
    assert (lat.down, lat.up) == (derived.down, derived.up)


@settings(max_examples=40, deadline=2000)
@given(lattices(max_elements=6), lattices(max_elements=6))
def test_product_order_is_componentwise(l1, l2):
    prod = product(l1, l2)
    n2 = len(l2)
    assert_order_agrees(
        prod, lambda a, b: l1.leq_i(a // n2, b // n2) and l2.leq_i(a % n2, b % n2)
    )
    prod._validate()


@settings(max_examples=60, deadline=2000)
@given(lattices(), st.data())
def test_quotient_order_is_the_meet_mod_theta(lat, data):
    # [x] <= [y] iff x /\ y theta x
    theta = random_congruence(lat, data)
    qmap = quotient(lat, theta)
    image, n = qmap.index_map, len(lat)
    for x in range(n):
        for y in range(n):
            expected = theta.same(lat.meet_table[x][y], x)
            assert qmap.target.leq_i(image[x], image[y]) == expected


@settings(max_examples=60, deadline=2000)
@given(lattices(), st.data())
def test_restrict_order_is_the_induced_order(lat, data):
    gens = data.draw(st.lists(st.sampled_from(lat.elements), min_size=1, max_size=3))
    members = sublattice_closure(lat, gens)
    sub = restrict(lat, members)
    assert sub.elements == tuple(members)
    assert_order_agrees(sub, lambda i, j: lat.leq(members[i], members[j]))
