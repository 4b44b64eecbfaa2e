"""``is_isomorphic``'s backtracking against a brute-force permutation oracle.

With ``core._SIGNATURE_ROUNDS`` at 0 the signatures hold only the sizes of
each element's down-set, up-set and cover sets, so the search has to
reject candidates and undo partial maps instead of being led straight to
an isomorphism.  Every lattice of up to 7 elements is built here, one per
isomorphism class, and compared with a relabelled copy of each lattice of
its size.
"""

import itertools
import random

import pytest

from latquot import chain, core, from_covers, is_isomorphic, product
from latquot.errors import NotALattice

# lattices of 1..7 elements up to isomorphism (OEIS A006966)
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def _names(n):
    return [f"e{i}" for i in range(n)]


def _lattices_of_size(n):
    """One lattice of each isomorphism class with ``n`` elements: 0 is the
    bottom, n - 1 the top, and the points between them carry every
    naturally labelled partial order (i below j only if i < j); a copy is
    kept when its order differs, under every permutation of the middle
    points, from the orders kept before it."""
    if n == 1:
        return [from_covers(["e0"], [])]
    middle = range(1, n - 1)
    pairs = list(itertools.combinations(middle, 2))
    perms = [dict(zip(middle, p)) for p in itertools.permutations(middle)]
    found, seen = [], set()
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        less = {pair for pair, on in zip(pairs, chosen) if on}
        if any((a, c) not in less for a, b in less for b2, c in less if b == b2):
            continue  # not transitive
        if frozenset(less) in seen:
            continue
        covers = sorted(less) + [(0, i) for i in middle] + [(i, n - 1) for i in middle]
        if n == 2:
            covers = [(0, 1)]
        try:
            lat = from_covers(_names(n), [(f"e{a}", f"e{b}") for a, b in covers])
        except NotALattice:
            continue
        found.append(lat)
        for p in perms:
            seen.add(frozenset((p[a], p[b]) for a, b in less))
    return found


def _relabelled(lat, rng):
    """``lat`` with its elements listed in a shuffled order, so that each
    element gets another index."""
    elements = list(lat.elements)
    rng.shuffle(elements)
    return from_covers(elements, lat.covers())


def _order(lat):
    n = len(lat)
    return {(i, j) for i in range(n) for j in range(n) if lat.leq_i(i, j)}


def _brute_isomorphic(l1, l2):
    """True iff some bijection carries l1's order onto l2's.  It must send
    the bottom to the bottom and the top to the top, so only the
    permutations of the other elements are tried."""
    n = len(l1)
    if n != len(l2):
        return False
    order1, order2 = _order(l1), _order(l2)

    def bounds(lat):
        bottom = next(i for i in range(n) if all(lat.leq_i(i, j) for j in range(n)))
        top = next(i for i in range(n) if all(lat.leq_i(j, i) for j in range(n)))
        return bottom, top

    (b1, t1), (b2, t2) = bounds(l1), bounds(l2)
    mid1 = [i for i in range(n) if i not in (b1, t1)]
    mid2 = [i for i in range(n) if i not in (b2, t2)]
    for perm in itertools.permutations(mid2):
        image = {b1: b2, t1: t2, **dict(zip(mid1, perm))}
        if {(image[i], image[j]) for i, j in order1} == order2:
            return True
    return False


@pytest.fixture(scope="module")
def small_lattices():
    return {n: _lattices_of_size(n) for n in LATTICE_COUNTS}


def test_every_lattice_up_to_seven_elements_is_built_once(small_lattices):
    assert {n: len(lats) for n, lats in small_lattices.items()} == LATTICE_COUNTS


def test_backtracking_matches_the_permutation_oracle(small_lattices, monkeypatch):
    monkeypatch.setattr(core, "_SIGNATURE_ROUNDS", 0)
    rng = random.Random(7)
    for n, lats in small_lattices.items():
        relabelled = [_relabelled(lat, rng) for lat in lats]
        for (i, l1), (j, l2) in itertools.product(enumerate(lats), enumerate(relabelled)):
            expected = _brute_isomorphic(l1, l2)
            assert expected == (i == j), (n, i, j)
            assert is_isomorphic(l1, l2) == expected, (n, i, j)


def test_backtracking_finds_relabelled_catalog_lattices(catalog, monkeypatch):
    # both sides relabelled, so that the search meets the elements in a
    # shuffled order; on the grids chain-3 x chain-3 and chain-4 x chain-4
    # it maps some elements before the ones that pin them down, and has to
    # undo a partial map
    monkeypatch.setattr(core, "_SIGNATURE_ROUNDS", 0)
    rng = random.Random(11)
    lattices = [named.lattice for named in catalog if len(named.lattice) <= 16]
    lattices += [product(chain(n).lattice, chain(n).lattice) for n in (3, 4)]
    for lat in lattices:
        for _ in range(10):
            l1, l2 = (_relabelled(lat, rng) for _ in range(2))
            assert is_isomorphic(l1, l2), lat.elements
