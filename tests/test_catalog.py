from itertools import product as cartesian

import pytest

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    boolean,
    chain,
    delta,
    free_distributive,
    free_lattice_small,
    free_modular_3,
    from_covers,
    identity_congruence,
    is_distributive,
    is_isomorphic,
    is_modular,
    m3,
    n5,
    resolve,
    restrict,
    satisfies,
    sublattice_closure,
)
from latquot import catalog as catalog_module
from latquot.catalog import CATALOG_NAMES
from latquot.core import Lattice, is_identifier
from latquot.errors import LatticeError, UnsupportedRank

# every rank the set constructor builds, chains sampled (chain-256 holds the
# identifiers of every shorter chain)
SET_BUILT = ([f"chain-{n}" for n in (*range(1, 18), 31, 64, 100, 255, 256)]
             + [f"boolean-{n}" for n in range(9)]
             + ["fd-1", "fd-2", "fd-3", "f-1", "f-2"])


def test_chain_and_boolean_basics():
    assert len(chain(1).lattice) == 1
    assert len(boolean(2).lattice) == 4
    assert is_distributive(boolean(2).lattice)
    assert delta(chain(5).lattice) == identity_congruence(chain(5).lattice)
    with pytest.raises(UnsupportedRank):
        chain(0)
    with pytest.raises(UnsupportedRank):
        boolean(-1)


def test_chain_rank_is_capped_before_building(monkeypatch):
    # above the 256 elements of boolean-8 the rank is refused, and nothing is built
    def refuse(*args):
        raise AssertionError("a chain above the cap was built")

    monkeypatch.setattr(catalog_module, "_set_lattice", refuse)
    for rank in (257, 10 ** 9):
        with pytest.raises(UnsupportedRank):
            chain(rank)
    with pytest.raises(UnsupportedRank):
        resolve("chain-257")


def _same_lattice(built, expected):
    assert built.elements == expected.elements
    assert built.meet_table == expected.meet_table
    assert built.join_table == expected.join_table
    assert (built.down, built.up) == (expected.down, expected.up)


@pytest.mark.parametrize("n", [*range(1, 18), 64, 256])
def test_chains_are_their_textbook_covers(n):
    names = [str(i) for i in range(n)]
    _same_lattice(chain(n).lattice, from_covers(names, zip(names, names[1:])))


@pytest.mark.parametrize("n", range(9))
def test_booleans_are_their_textbook_covers(n):
    lat = boolean(n).lattice
    # element m is the mask m: m < m | bit for every bit outside m
    covers = [(lat.elements[m], lat.elements[m | 1 << i])
              for m in range(1 << n) for i in range(n) if not m >> i & 1]
    _same_lattice(lat, from_covers(lat.elements, covers))


def _truth_table(name, n):
    """The function named by its minimal true-sets, e.g. "{x}{y,z}", as the
    tuple of its values at the assignments 0..2^n-1 (bit i: variable i)."""
    sets = [frozenset(part.split(",")) for part in name[1:-1].split("}{")]
    return tuple(int(any(s <= {"xyz"[i] for i in range(n) if a >> i & 1} for s in sets))
                 for a in range(1 << n))


@pytest.mark.parametrize("n, size", [(1, 1), (2, 4), (3, 18)])
def test_free_distributive_is_the_nonconstant_monotone_functions(n, size):
    named = free_distributive(n)
    lat = named.lattice
    assert len(lat) == size
    tables = {e: _truth_table(e, n) for e in lat.elements}
    # brute force: every truth table, kept if monotone and nonconstant
    monotone = {t for t in cartesian((0, 1), repeat=1 << n) if 0 in t and 1 in t
                and all(t[a] <= t[a | 1 << i] for a in range(1 << n) for i in range(n))}
    assert set(tables.values()) == monotone and len(monotone) == size
    for a in lat.elements:
        for b in lat.elements:
            assert lat.leq(a, b) == all(x <= y for x, y in zip(tables[a], tables[b]))
    # the projections, and they generate the whole lattice
    for i, var in enumerate("xyz"[:n]):
        assert tables[named.distinguished[var]] == tuple(a >> i & 1 for a in range(1 << n))
    assert len(sublattice_closure(lat, named.distinguished.values())) == size


def test_every_identifier_of_every_rank_is_an_identifier():
    for name in (*SET_BUILT, *CATALOG_NAMES):
        named = resolve(name)
        assert all(is_identifier(e) for e in named.lattice.elements), name


def test_diamond_and_pentagon():
    diamond = m3()
    assert len(diamond.lattice) == 5
    assert is_modular(diamond.lattice)
    assert not is_distributive(diamond.lattice)
    pentagon = n5()
    assert len(pentagon.lattice) == 5
    assert not is_modular(pentagon.lattice)
    assert pentagon.lattice.leq("b", "a")
    assert not pentagon.lattice.leq("c", "a")
    assert not pentagon.lattice.leq("b", "c")


def test_free_distributive_sizes():
    assert len(free_distributive(1).lattice) == 1
    assert len(free_distributive(2).lattice) == 4
    assert len(free_distributive(3).lattice) == 18
    with pytest.raises(UnsupportedRank):
        free_distributive(4)


def test_free_distributive_generates():
    for n in (1, 2, 3):
        named = free_distributive(n)
        assert is_distributive(named.lattice)
        gens = list(named.distinguished.values())
        assert len(gens) == n
        closed = sublattice_closure(named.lattice, gens)
        assert len(closed) == len(named.lattice)


def test_free_modular_3_shape():
    fm3 = free_modular_3()
    lat = fm3.lattice
    assert len(lat) == 28
    assert satisfies(lat, MODULAR) is True
    assert satisfies(lat, DISTRIBUTIVE) is not True
    gens = [fm3.distinguished[v] for v in ("x", "y", "z")]
    assert len(sublattice_closure(lat, gens)) == 28


def test_free_modular_3_median_interval():
    fm3 = free_modular_3()
    lat = fm3.lattice
    u, v = fm3.distinguished["u"], fm3.distinguished["v"]
    assert lat.leq(v, u) and u != v
    interval = lat.interval(v, u)
    assert len(interval) == 5
    assert is_isomorphic(restrict(lat, interval), m3().lattice)


def test_free_lattice_small():
    f1 = free_lattice_small(1)
    assert len(f1.lattice) == 1
    f2 = free_lattice_small(2)
    assert len(f2.lattice) == 4
    assert delta(f2.lattice) == identity_congruence(f2.lattice)
    fd2 = free_distributive(2)
    assert is_isomorphic(f2.lattice, fd2.lattice)
    # the generator-respecting homomorphism onto fd-2 is an isomorphism
    mapping = {f2.distinguished["x"]: fd2.distinguished["x"],
               f2.distinguished["y"]: fd2.distinguished["y"]}
    mapping[f2.lattice.meet("x", "y")] = fd2.lattice.meet(*fd2.distinguished.values())
    mapping[f2.lattice.join("x", "y")] = fd2.lattice.join(*fd2.distinguished.values())
    for a in f2.lattice.elements:
        for b in f2.lattice.elements:
            assert mapping[f2.lattice.meet(a, b)] == fd2.lattice.meet(mapping[a], mapping[b])
            assert mapping[f2.lattice.join(a, b)] == fd2.lattice.join(mapping[a], mapping[b])
    assert len(set(mapping.values())) == 4
    with pytest.raises(UnsupportedRank):
        free_lattice_small(3)


def test_resolve_names():
    for name in CATALOG_NAMES:
        named = resolve(name)
        assert named.name == name
        assert isinstance(named.lattice, Lattice)
    with pytest.raises(KeyError):
        resolve("mystery-9")
    # a LatticeError too, whose message is not quoted as a KeyError's would be
    with pytest.raises(LatticeError) as info:
        resolve("nope")
    assert str(info.value) == "unknown catalog lattice 'nope'"


def test_catalog_validates(catalog):
    # every constructor output survives full axiom validation; this is why the
    # set-built lattices are not checked when they are built
    for named in [*catalog, *map(resolve, SET_BUILT)]:
        lat = named.lattice
        Lattice(lat.elements, lat.meet_table, lat.join_table)._validate()
        for label, elem in named.distinguished.items():
            assert elem in lat.elements, label


@pytest.mark.parametrize("name", ["chain- 3", "chain-+3", "chain-3 ", "boolean-٣", "fd-²",
                                  "f--1", "chain--1", "chain-"])
def test_resolve_takes_ranks_of_ascii_digits_only(name):
    # int() used to accept all of these
    with pytest.raises(KeyError, match="unknown catalog lattice"):
        resolve(name)


def test_free_lattice_without_generators():
    # f-0 used to say the free lattice on 3 or more generators is infinite
    with pytest.raises(UnsupportedRank, match="at least one generator"):
        resolve("f-0")
    with pytest.raises(UnsupportedRank, match="at least one generator"):
        free_lattice_small(-1)
    with pytest.raises(UnsupportedRank, match="infinite"):
        resolve("f-3")


def test_resolve_refuses_a_rank_too_long_to_convert():
    # int() may refuse more than 4300 digits: an unknown name, not a ValueError
    with pytest.raises((KeyError, UnsupportedRank)):
        resolve("chain-" + "9" * 5000)
