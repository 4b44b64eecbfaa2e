"""``congruence.principal_generator`` against a scan of every principal congruence.

The generator compares D-closed sets.  Here it must return the first pair
``i <= j`` in index order whose principal congruence is ``theta``, or None,
for delta, kappa of the modular class and joins of two generators of
Con(L), on random lattices of up to 16 elements.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import (
    MODULAR,
    chain,
    cong_join,
    congruence_from_blocks,
    delta,
    join_irreducible_congruences,
    kappa,
    principal_congruence,
)
from latquot.congruence import principal_generator

from test_kappa_differential import lattices


def first_principal_pair(lat, theta):
    names = lat.elements
    for i in range(len(lat)):
        for j in range(i, len(lat)):
            if principal_congruence(lat, names[i], names[j]) == theta:
                return (names[i], names[j])
    return None


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=16), st.data())
def test_principal_generator_is_the_first_principal_pair(lat, data):
    gens = join_irreducible_congruences(lat)
    thetas = [delta(lat), kappa(lat, MODULAR)]
    if gens:
        pick = st.sampled_from(gens)
        thetas.append(cong_join(lat, data.draw(pick), data.draw(pick)))
    for theta in thetas:
        assert principal_generator(lat, theta) == first_principal_pair(lat, theta)


def test_a_join_of_two_disjoint_collapses_has_no_generator():
    # on the chain 0 < 1 < 2 < 3, theta(a, b) collapses the whole interval
    # [a, b], so no one pair glues 0 to 1 and 2 to 3 without 1 to 2
    lat = chain(4).lattice
    theta = congruence_from_blocks(lat, [["0", "1"], ["2", "3"]])
    assert principal_generator(lat, theta) is None
