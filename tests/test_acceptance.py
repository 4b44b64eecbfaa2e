"""Acceptance suite: the worked examples and structural checks, end to end.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all together).
"""

import functools

import pytest

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    ClassSpec,
    all_congruences,
    boolean,
    chain,
    delta,
    free_distributive,
    free_modular_3,
    full_congruence,
    identity_congruence,
    is_distributive,
    is_isomorphic,
    kappa,
    kappa_oracle,
    m3,
    n5,
    parse_identity_file,
    principal_congruence,
    product,
    quotient,
    restrict,
    standard_catalog,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from latquot.congruence import congruence_from_blocks, is_congruence

from conftest import all_partitions


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return run

    return wrap


@criterion(1, "distributive lattices: delta is the equality relation")
def test_criterion_01():
    for named in (chain(5), boolean(3), free_distributive(3)):
        assert delta(named.lattice) == identity_congruence(named.lattice)


@criterion(2, "the diamond is simple and fully collapses")
def test_criterion_02():
    lat = m3().lattice
    assert delta(lat) == full_congruence(lat)
    assert len(all_congruences(lat)) == 2


@criterion(3, "pentagon: delta is theta(a,b) with distributive 4-element quotient")
def test_criterion_03():
    lat = n5().lattice
    d = delta(lat)
    assert d == principal_congruence(lat, "a", "b")
    nontrivial = [b for b in d.blocks() if len(b) > 1]
    assert len(nontrivial) == 1
    assert {lat.elements[i] for i in nontrivial[0]} == {"a", "b"}
    target = quotient(lat, d).target
    assert len(target) == 4
    assert is_distributive(target)


@criterion(4, "free modular lattice on 3 generators: delta = theta(u,v), "
              "blocks 11+6x2+diamond, quotient is fd-3")
def test_criterion_04():
    fm3 = free_modular_3()
    lat = fm3.lattice
    assert len(lat) == 28
    d = delta(lat)
    u, v = fm3.distinguished["u"], fm3.distinguished["v"]
    assert d == principal_congruence(lat, u, v)
    sizes = sorted(len(b) for b in d.blocks())
    assert sizes == [1] * 11 + [2] * 6 + [5]
    five = [b for b in d.blocks() if len(b) == 5][0]
    interval = lat.interval(v, u)
    assert sorted(lat.elements[i] for i in five) == sorted(interval)
    assert is_isomorphic(restrict(lat, interval), m3().lattice)
    target = quotient(lat, d).target
    assert len(target) == 18
    assert is_distributive(target)
    assert is_isomorphic(target, free_distributive(3).lattice)


@criterion(5, "class-quotient congruences form an intersection-closed up-set")
def test_criterion_05():
    lattices = [nl.lattice for nl in standard_catalog() if len(nl.lattice) <= 8]
    assert any(len(lat) == 8 for lat in lattices)  # boolean(3) included
    for lat in lattices:
        for spec in (DISTRIBUTIVE, MODULAR):
            report = verify_theorem1(lat, spec, max_size=8)
            assert report.ok, report.details


@criterion(6, "delta of a quotient is the pushed join of delta and the kernel")
def test_criterion_06():
    fixtures = [
        m3().lattice,
        n5().lattice,
        boolean(2).lattice,
        chain(4).lattice,
        product(m3().lattice, chain(2).lattice),
    ]
    for lat in fixtures:
        for spec in (DISTRIBUTIVE, MODULAR):
            for theta in all_congruences(lat):
                report = verify_theorem2(lat, theta, spec)
                assert report.ok, report.details


@criterion(7, "delta of a product is the product of the deltas")
def test_criterion_07():
    pairs = [
        (m3().lattice, n5().lattice),
        (n5().lattice, chain(3).lattice),
        (m3().lattice, m3().lattice),
    ]
    for l1, l2 in pairs:
        report = verify_theorem3(l1, l2, DISTRIBUTIVE)
        assert report.ok, report.details
        assert any("factored" in d for d in report.details)


@criterion(8, "witness-driven kappa matches the brute-force oracle")
def test_criterion_08():
    for named in standard_catalog():
        lat = named.lattice
        if len(lat) > 8:
            continue
        for spec in (DISTRIBUTIVE, MODULAR):
            assert kappa(lat, spec) == kappa_oracle(lat, spec, max_size=8)
        if len(lat) <= 6:
            brute = {
                congruence_from_blocks(lat, part)
                for part in all_partitions(lat.elements)
                if is_congruence(lat, part) is True
            }
            assert brute == set(all_congruences(lat))


@criterion(9, "modular kappa on the stock examples; a collapsing identity file")
def test_criterion_09():
    lat = n5().lattice
    assert kappa(lat, MODULAR) == principal_congruence(lat, "a", "b")
    diamond = m3().lattice
    assert kappa(diamond, MODULAR) == identity_congruence(diamond)
    crush = parse_identity_file("x = y\n")
    for named in standard_catalog():
        assert kappa(named.lattice, crush) == full_congruence(named.lattice)


@criterion(10, "delta of every largest distributive quotient is the equality relation")
def test_criterion_10():
    for named in standard_catalog():
        target = quotient(named.lattice, delta(named.lattice)).target
        assert delta(target) == identity_congruence(target)
