"""The join-prime search and kappa's distributive path against sweeps kept in
the tests.

``is_distributive`` is checked against a naive triple scan, and ``kappa``
for classes that define exactly the distributive class, which it answers
from Day's relation, against a loop of ``satisfies`` and
``generated_congruence``, neither of which runs that path.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kappa_differential import _lattice_of, _meet_closure

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    boolean,
    chain,
    delta,
    eval_term,
    from_covers,
    full_congruence,
    generated_congruence,
    identity_congruence,
    is_distributive,
    is_isomorphic,
    kappa,
    leq_congruence,
    m3,
    n5,
    parse_identity_file,
    principal_congruence,
    product,
    quotient,
    satisfies,
)
from latquot import core, variety
from latquot.core import distributive_failure

FOUR_VAR = parse_identity_file(r"x /\ (y \/ (z /\ w)) = (x /\ y) \/ (x /\ z /\ w)", "four-var")
FIVE_VAR = parse_identity_file(
    r"v /\ (w \/ x \/ (y /\ z)) = (v /\ w) \/ (v /\ x) \/ (v /\ y /\ z)", "five-var")
DUAL = parse_identity_file(r"x \/ (y /\ z) = (x \/ y) /\ (x \/ z)", "dual")
MEDIAN = parse_identity_file(
    r"(x /\ y) \/ (y /\ z) \/ (z /\ x) = (x \/ y) /\ (y \/ z) /\ (z \/ x)", "median")
TRIVIAL = parse_identity_file("x = y", "trivial")
COMMUTATIVE = parse_identity_file(r"x /\ y = y /\ x", "commutative")
DISTRIBUTIVE_AND_TRIVIAL = parse_identity_file(
    "x = y\n" r"a /\ (b \/ c) = (a /\ b) \/ (a /\ c)", "both")


@st.composite
def lattices(draw, max_elements):
    """Random lattices as in ``test_kappa_differential``, over a ground set of
    4-6 points and more subsets, so that sizes spread up to ``max_elements``."""
    ground = draw(st.integers(min_value=4, max_value=6))
    full = (1 << ground) - 1
    family = {full}
    subsets = st.lists(st.integers(min_value=0, max_value=full), min_size=4, max_size=20)
    for subset in draw(subsets):
        grown = _meet_closure(family | {subset})
        if len(grown) <= max_elements:
            family = grown
    return _lattice_of(family)


def naive_is_distributive(lat):
    n = len(lat)
    meet, join = lat.meet_table, lat.join_table
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def kappa_by_sweeps(lat, spec):
    """kappa's witness loop with ``satisfies`` as the search."""
    theta = identity_congruence(lat)
    while True:
        target = quotient(lat, theta).target
        witness = satisfies(target, spec)
        if witness is True:
            return theta
        ident, env = witness
        reps = sorted(set(theta.block_of))
        a, b = (lat.elements[reps[target.index(eval_term(target, side, env))]]
                for side in (ident.lhs, ident.rhs))
        pairs = [(lat.elements[i], lat.elements[r]) for i, r in enumerate(theta.block_of) if i != r]
        theta = generated_congruence(lat, pairs + [(a, b)])


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=20), st.randoms(use_true_random=False))
def test_is_distributive_matches_the_triple_scan(lat, random):
    assert is_distributive(lat) == naive_is_distributive(lat)
    # the search runs in index order: any order of the carrier must do
    shuffled = list(lat.elements)
    random.shuffle(shuffled)
    relabelled = from_covers(shuffled, lat.covers())
    assert is_distributive(relabelled) == naive_is_distributive(lat)


def test_every_carrier_order_of_m3_and_n5_is_found_non_distributive():
    # in n5 ordered b, 0, c, a, 1, no two neighbours among b, 0, c join above a
    for small in (m3().lattice, n5().lattice):
        for order in itertools.permutations(small.elements):
            assert not is_distributive(from_covers(order, small.covers())), order


def test_is_distributive_matches_the_triple_scan_on_the_catalog(catalog):
    for named in catalog:
        assert is_distributive(named.lattice) == naive_is_distributive(named.lattice), named.name


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=20))
def test_the_witness_pair_breaks_the_distributive_law_and_lies_in_delta(lat):
    failure = distributive_failure(lat)
    if failure is None:
        return
    j, r = failure
    assert j != r
    meet, join = lat.meet_table, lat.join_table
    n = len(lat)
    # x = j and some y, z give the two sides j and r
    assert any(meet[j][join[y][z]] == j and join[meet[j][y]][meet[j][z]] == r
               for y in range(n) for z in range(n))
    a, b = lat.elements[j], lat.elements[r]
    assert leq_congruence(principal_congruence(lat, a, b), delta(lat))


@settings(max_examples=60, deadline=None)
@given(lattices(max_elements=24))
def test_kappa_matches_the_sweep_loop(lat):
    for spec in (DISTRIBUTIVE, FOUR_VAR, DUAL):
        assert kappa(lat, spec) == kappa_by_sweeps(lat, spec), spec.name


@pytest.mark.parametrize("spec, defines", [
    (DISTRIBUTIVE, True),
    (FOUR_VAR, True),
    (FIVE_VAR, True),
    (DUAL, True),
    (MEDIAN, True),
    (MODULAR, False),
    (TRIVIAL, False),
    (COMMUTATIVE, False),
    (DISTRIBUTIVE_AND_TRIVIAL, False),
])
def test_which_classes_take_the_join_prime_path(spec, defines):
    assert variety._defines_distributive(spec.sweeps) is defines


def test_a_trivial_class_yields_the_full_congruence(catalog):
    for named in catalog:
        lat = named.lattice
        for spec in (TRIVIAL, DISTRIBUTIVE_AND_TRIVIAL):
            assert kappa(lat, spec) == full_congruence(lat), named.name


def test_delta_of_boolean_8_runs_no_sweep(monkeypatch):
    # the distributive class is answered from Day's relation alone: no
    # sweep, no quotient and no join-prime search
    def forbidden(what):
        def run(*args):
            raise AssertionError(f"{what} ran")
        return run

    monkeypatch.setattr(variety, "_first_failure", forbidden("an identity sweep"))
    monkeypatch.setattr(variety, "quotient", forbidden("a quotient"))
    # a call through core's module is caught by the patch, a name imported
    # into variety by the assertion
    monkeypatch.setattr(core, "distributive_failure", forbidden("distributive_failure"))
    assert not hasattr(variety, "distributive_failure")
    lat = boolean(8).lattice
    assert delta(lat) == identity_congruence(lat)
    pentagon = n5().lattice
    pentagon_cubed = product(product(pentagon, pentagon), pentagon)
    for spec in (DISTRIBUTIVE, FOUR_VAR, FIVE_VAR, DUAL):
        assert kappa(pentagon_cubed, spec).num_blocks() == 4 ** 3


def test_the_small_lattices_are_2_m3_and_n5():
    for small, named in ((variety._CHAIN2, chain(2)), (variety._M3, m3()), (variety._N5, n5())):
        small._validate()
        assert is_isomorphic(small, named.lattice)
