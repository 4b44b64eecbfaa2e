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
from latquot.core import Lattice
from latquot.errors import UnsupportedRank


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

    monkeypatch.setattr(catalog_module, "from_covers", refuse)
    for rank in (257, 10 ** 9):
        with pytest.raises(UnsupportedRank):
            chain(rank)
    with pytest.raises(UnsupportedRank):
        resolve("chain-257")


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


def test_catalog_validates(catalog):
    # every constructor output survives full axiom validation
    for named in catalog:
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
