"""Each order fact decided once, against the algorithms that decided it before.

``from_covers`` closes the order in one topological pass.  It is compared
with a copy, kept here, of the construction it replaced: Warshall's closure,
a scan of all pairs for a cycle, a transpose of ``up`` into ``down``, and a
loop over all pairs for the tables.  The relations are random: lattices
with duplicate, transitive and self pairs added, cycles, cycles with
elements above them, and arbitrary pair lists of up to 40 elements.

``Lattice._validate`` compares the tables with ``_tables_from_order``;
``distributive_failure`` and ``DayRelation`` read J(L) from
``_lower_stars``.  Each is compared with its old form, kept here too.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import Lattice, boolean, chain, from_covers, n5, product
from latquot.core import DayRelation, _bits, distributive_failure
from latquot.errors import CycleDetected, LatticeError, NotALattice

from test_distributive_witness import lattices
from test_kappa_differential import _meet_closure

MAX_ELEMENTS = 40


# -- the construction before the topological pass ---------------------------


def warshall_closure(n, pairs):
    """``up`` bitsets of the reflexive-transitive closure of index pairs."""
    up = [1 << i for i in range(n)]
    for lo, hi in pairs:
        up[lo] |= 1 << hi
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def warshall_from_covers(elements, pairs):
    """(down, up, meet, join) as the Warshall construction built them from
    index pairs; raises CycleDetected or NotALattice as it did."""
    n = len(elements)
    up = warshall_closure(n, pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleDetected(f"cycle through {elements[i]} and {elements[j]}")
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[j] >> i & 1:
                down[i] |= 1 << j
    down_index, up_index = {}, {}
    for k in range(n):
        down_index.setdefault(down[k], k)
        up_index.setdefault(up[k], k)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = down_index.get(down[i] & down[j])
            if m is None:
                raise NotALattice(elements[i], elements[j], "meet")
            meet[i][j] = m
            u = up_index.get(up[i] & up[j])
            if u is None:
                raise NotALattice(elements[i], elements[j], "join")
            join[i][j] = u
    return down, up, meet, join


def family_pairs(family, order):
    """Cover index pairs of the inclusion order on ``family``, whose members
    take the indices given by the permutation ``order``."""
    members = sorted(family)
    covers = []
    for a in members:
        above = [b for b in members if a != b and a & b == a]
        covers += [(a, b) for b in above
                   if not any(c != b and c & b == c and c & a == a for c in above)]
    index = {s: order[k] for k, s in enumerate(members)}
    return len(members), [(index[a], index[b]) for a, b in covers]


@st.composite
def relations(draw):
    """(n, index pairs): a random lattice's covers with extra pairs, or
    arbitrary pairs, sometimes with a pair that closes a cycle."""
    if draw(st.booleans()):
        full = (1 << draw(st.integers(min_value=3, max_value=6))) - 1
        family = {full}
        for subset in draw(st.lists(st.integers(0, full), max_size=24)):
            grown = _meet_closure(family | {subset})
            if len(grown) <= MAX_ELEMENTS:
                family = grown
        n, pairs = family_pairs(family, draw(st.permutations(range(len(family)))))
    else:
        n = draw(st.integers(min_value=1, max_value=MAX_ELEMENTS))
        index = st.integers(min_value=0, max_value=n - 1)
        pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    index = st.integers(min_value=0, max_value=n - 1)
    up = warshall_closure(n, pairs)
    comparable = [(i, j) for i in range(n) for j in _bits(up[i]) if i != j]
    extra = []
    if comparable:
        extra += draw(st.lists(st.sampled_from(comparable), max_size=4))  # transitive
        if draw(st.booleans()):
            lo, hi = draw(st.sampled_from(comparable))
            extra.append((hi, lo))  # a cycle, with whatever lies above it
    if pairs:
        extra += draw(st.lists(st.sampled_from(pairs), max_size=4))  # duplicates
    extra += [(i, i) for i in draw(st.lists(index, max_size=3))]  # self pairs
    mixed = draw(st.permutations(pairs + extra))
    return n, mixed


def build_both(n, pairs):
    """The outcome of both constructions on the same names and pairs."""
    elements = [f"e{i}" for i in range(n)]
    named = [(elements[i], elements[j]) for i, j in pairs]
    outcomes = []
    for build in (lambda: warshall_from_covers(elements, pairs),
                  lambda: from_covers(elements, named)):
        try:
            outcomes.append(build())
        except (CycleDetected, NotALattice) as exc:
            outcomes.append(exc)
    return elements, outcomes


def assert_same_construction(n, pairs):
    elements, (old, new) = build_both(n, pairs)
    if isinstance(old, CycleDetected):
        assert isinstance(new, CycleDetected)
        x, y = re.fullmatch(r"cycle through (\S+) and (\S+)", str(new)).groups()
        i, j = elements.index(x), elements.index(y)
        up = warshall_closure(n, pairs)
        assert i != j and up[i] >> j & 1 and up[j] >> i & 1
    elif isinstance(old, NotALattice):
        assert type(new) is NotALattice
        assert (new.witness, new.which) == (old.witness, old.which)
    else:
        down, up, meet, join = old
        assert isinstance(new, Lattice)
        assert new.down == tuple(down) and new.up == tuple(up)
        assert new.meet_table == tuple(map(tuple, meet))
        assert new.join_table == tuple(map(tuple, join))


@settings(max_examples=300, deadline=None)
@given(relations())
def test_from_covers_matches_the_warshall_construction(relation):
    assert_same_construction(*relation)


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2), (2, 0)],  # a 3-cycle
    [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)],  # a 2-cycle with a chain above it
    [(3, 4), (4, 3), (4, 0), (0, 1), (1, 2)],  # above a cycle, with smaller indices
    [(0, 0), (0, 1), (0, 1), (1, 1)],  # self and duplicate pairs: a 2-chain
    [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)],  # transitive pairs: a 4-chain
    [(0, 1), (0, 2)],  # no join of 1 and 2
    [(1, 0), (2, 0)],  # no meet of 1 and 2
])
def test_from_covers_matches_the_warshall_construction_by_hand(pairs):
    assert_same_construction(1 + max(map(max, pairs)), pairs)


def test_the_cycle_is_named_by_two_of_its_elements():
    # a 1024-element chain closed by 1023 < 0: every element lies on the cycle
    n = 1024
    elements = [str(i) for i in range(n)]
    covers = [(str(i), str(i + 1)) for i in range(n - 1)] + [(str(n - 1), "0")]
    with pytest.raises(CycleDetected, match=r"^cycle through \d+ and \d+$"):
        from_covers(elements, covers)
    # above a 2-cycle: the named pair is the cycle, not an element above it
    with pytest.raises(CycleDetected) as exc:
        from_covers(["top", "a", "b"], [("a", "b"), ("b", "a"), ("b", "top")])
    assert str(exc.value) in ("cycle through a and b", "cycle through b and a")


# -- the one lattice test -----------------------------------------------------


def products():
    return [product(l1.lattice, l2.lattice)
            for l1, l2 in [(n5(), chain(3)), (boolean(2), n5()), (chain(4), chain(5))]]


def test_validate_accepts_the_catalog_and_products(catalog):
    for lat in [named.lattice for named in catalog] + products():
        Lattice(lat.elements, lat.meet_table, lat.join_table)._validate()
        lat._validate()


@settings(max_examples=40, deadline=None)
@given(lattices(max_elements=12), lattices(max_elements=12))
def test_validate_accepts_random_products(l1, l2):
    product(l1, l2)._validate()


def corrupted(lat, i, j, table, value):
    """``lat`` rebuilt with entry (i, j) of its meet or join table set to ``value``."""
    tables = {"meet": [list(row) for row in lat.meet_table],
              "join": [list(row) for row in lat.join_table]}
    tables[table][i][j] = value
    return Lattice(lat.elements, tables["meet"], tables["join"])


def test_validate_names_the_one_corrupted_entry(catalog):
    seen = 0
    for lat in [named.lattice for named in catalog if len(named.lattice) <= 64]:
        n = len(lat)
        for i, j in [(i, j) for i in range(n) for j in range(n)
                     if not lat.leq_i(i, j) and not lat.leq_i(j, i)][:3]:
            # row i holds i exactly above i, so any value but i keeps the order
            meet_value = next(v for v in range(n) if v not in (i, lat.meet_table[i][j]))
            join_value = next(v for v in range(n) if v != lat.join_table[i][j])
            for table, value in (("meet", meet_value), ("join", join_value)):
                with pytest.raises(NotALattice) as exc:
                    corrupted(lat, i, j, table, value)._validate()
                assert exc.value.witness == (lat.elements[i], lat.elements[j])
                assert exc.value.which == table
                seen += 1
    assert seen > 20


def test_validate_rejects_orders_that_are_not_partial_orders():
    # meet(x, y) = x and meet(y, x) = y: x <= y and y <= x
    with pytest.raises(CycleDetected):
        Lattice(["x", "y"], [[0, 0], [1, 1]], [[0, 1], [0, 1]])._validate()
    # a <= b and b <= c, but meet(a, c) = b: not a <= c
    with pytest.raises(LatticeError) as exc:
        Lattice("abc", [[0, 0, 1], [0, 1, 1], [0, 1, 2]], [[0, 1, 2]] * 3)._validate()
    assert type(exc.value) is LatticeError and "transitive" in str(exc.value)
    # meet(x, x) = y: not x <= x
    with pytest.raises(LatticeError) as exc:
        Lattice(["x", "y"], [[1, 1], [1, 1]], [[0, 0], [0, 1]])._validate()
    assert type(exc.value) is LatticeError and "reflexive" in str(exc.value)


# -- the one J(L) lookup ------------------------------------------------------


def folded_distributive_failure(lat):
    """``distributive_failure`` as it found J(L) before: by folding ``join``
    over each strict down-set."""
    n = len(lat)
    meet, join, up, down = lat.meet_table, lat.join_table, lat.up, lat.down
    everything = (1 << n) - 1
    for j in range(n):
        lower = _bits(down[j] & ~(1 << j))
        acc = next(lower, None)
        if acc is None:
            continue
        for x in lower:
            acc = join[acc][x]
        if acc == j:
            continue
        outside = _bits(everything & ~up[j])
        acc = next(outside)
        for x in outside:
            joined = join[acc][x]
            if up[j] >> joined & 1:
                return j, join[meet[j][acc]][meet[j][x]]
            acc = joined
    return None


def principal_day(lat):
    """(joins, lower, below, pred) as ``DayRelation`` built them before,
    with its own dictionary of principal down-sets."""
    down, up, join = lat.down, lat.up, lat.join_table
    principal = {mask: x for x, mask in enumerate(down)}
    joins, lower = [], []
    for x, mask in enumerate(down):
        star = principal.get(mask & ~(1 << x))
        if star is not None:
            joins.append(x)
            lower.append(star)
    below = [0] * len(lat)
    for t, j in enumerate(joins):
        for x in _bits(up[j]):
            below[x] |= 1 << t
    pred = []
    for t, (k, star) in enumerate(zip(joins, lower)):
        mask = 0
        for hi, lo in set(zip(join[k], join[star])):
            mask |= below[hi] & ~below[lo]
        pred.append(mask & ~(1 << t))
    return tuple(joins), tuple(lower), tuple(below), tuple(pred)


def assert_same_join_irreducibles(lat):
    assert distributive_failure(lat) == folded_distributive_failure(lat)
    day = DayRelation(lat)
    assert (day.joins, day.lower, day.below, day.pred) == principal_day(lat)


def test_join_irreducibles_on_the_catalog(catalog):
    for lat in [named.lattice for named in catalog] + products():
        assert_same_join_irreducibles(lat)


@settings(max_examples=100, deadline=None)
@given(lattices(max_elements=24))
def test_join_irreducibles_on_random_lattices(lat):
    assert_same_join_irreducibles(lat)
