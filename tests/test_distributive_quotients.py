"""Class membership of a quotient read off its D-closed set.

L has a largest distributive quotient L/delta, and every distributive
quotient of L is a quotient of it, so L/theta is distributive iff delta's
D-closed set ``day.sources`` lies inside theta's.  ``variety._in_class``
takes every such theta into a class that 2 satisfies without building its
quotient (D = HSP(2)), and drops every other theta for the distributive
class.  The fact is checked here with ``is_distributive``, which does not
read Day's relation, and ``class_filter``, ``kappa_oracle`` and
``verify_theorem1`` are compared with ``sweep_filter``, which builds and
sweeps every quotient.
"""

import os
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import given, settings
from test_kappa_differential import lattices, sweep_filter

import latquot
from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    ClassSpec,
    all_congruences,
    boolean,
    chain,
    class_filter,
    cong_meet,
    full_congruence,
    is_distributive,
    kappa_oracle,
    m3,
    n5,
    parse_identity_file,
    product,
    quotient,
    variety,
    verify_theorem1,
)
from latquot.congruence import _closed_set

FOUR_VAR = parse_identity_file(r"x /\ (y \/ (z /\ w)) = (x /\ y) \/ (x /\ z /\ w)", "four-var")
# Huhn's 2-distributive law: M3, N5 and fm-3 satisfy it
HUHN = parse_identity_file(
    r"x /\ (y \/ z \/ w) = (x /\ (y \/ z)) \/ (x /\ (y \/ w)) \/ (x /\ (z \/ w))", "huhn")
# fails in 2, so only a one-element quotient is in its class
MEET = parse_identity_file(r"x = x /\ y", "meet")
SPECS = (DISTRIBUTIVE, MODULAR, FOUR_VAR, HUHN, MEET)


def _is_above_delta(lat, theta):
    return not lat.day().sources & ~_closed_set(lat, theta)


def _lattices():
    pentagon, diamond, two = n5().lattice, m3().lattice, chain(2).lattice
    return [pentagon, diamond, product(pentagon, two), product(diamond, two)]


def test_distributive_quotients_are_those_above_delta(catalog):
    lats = [named.lattice for named in catalog if len(named.lattice) <= 12] + _lattices()
    for lat in lats:
        for theta in all_congruences(lat):
            assert is_distributive(quotient(lat, theta).target) == _is_above_delta(lat, theta)


@settings(max_examples=60, deadline=5000)
@given(lattices())
def test_distributive_quotients_are_those_above_delta_on_random_lattices(lat):
    for theta in all_congruences(lat):
        assert is_distributive(quotient(lat, theta).target) == _is_above_delta(lat, theta)


def _check_against_the_sweep(lat, monkeypatch):
    for spec in SPECS:
        want = sweep_filter(lat, spec)
        assert class_filter(lat, spec) == want, spec.name
        assert kappa_oracle(lat, spec) == reduce(cong_meet, want), spec.name
        got = verify_theorem1(lat, spec)
        with monkeypatch.context() as patch:
            patch.setattr(variety, "_in_class", lambda lat, cons, spec: sweep_filter(lat, spec))
            expected = verify_theorem1(lat, spec)
        assert (got.ok, got.details) == (expected.ok, expected.details), spec.name
    assert sweep_filter(lat, MEET) == [full_congruence(lat)]


def test_class_filters_match_a_sweep_of_every_quotient(catalog, monkeypatch):
    for lat in [named.lattice for named in catalog if len(named.lattice) <= 12] + _lattices():
        _check_against_the_sweep(lat, monkeypatch)


@settings(max_examples=25, deadline=10000)
@given(lattices(max_elements=10))
def test_class_filters_match_a_sweep_on_random_lattices(lat):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_against_the_sweep(lat, monkeypatch)


def _count_quotients(monkeypatch):
    built, build = [], variety.quotient

    def counting(lat, theta):
        built.append(theta)
        return build(lat, theta)

    monkeypatch.setattr(variety, "quotient", counting)
    return built


def test_distributive_quotients_are_not_built(monkeypatch):
    boolean4 = boolean(4).lattice
    n5_m3 = product(n5().lattice, m3().lattice)
    built = _count_quotients(monkeypatch)
    assert len(class_filter(boolean4, MODULAR, 16)) == 16
    assert built == []
    assert class_filter(n5_m3, DISTRIBUTIVE, 25) == sweep_filter(n5_m3, DISTRIBUTIVE, 25)
    assert built == []
    # the modular class sweeps exactly the quotients that are not distributive
    cons = all_congruences(n5_m3, 25)
    members = class_filter(n5_m3, MODULAR, 25)
    assert built == [theta for theta in cons if not _is_above_delta(n5_m3, theta)]
    assert members == sweep_filter(n5_m3, MODULAR, 25)


def test_a_spec_is_classified_only_when_a_quotient_needs_it():
    spec = ClassSpec(MODULAR.identities, "fresh")
    assert "_verdicts" not in spec.__dict__
    class_filter(boolean(3).lattice, spec)
    record = spec.__dict__["_verdicts"]
    assert record.two is True and record.distributive is None
    class_filter(n5().lattice, spec)
    assert record.distributive is False
    # 2 fails x = x /\ y, so it is never classified and every quotient is swept
    meet = ClassSpec(MEET.identities, "fresh-meet")
    assert class_filter(n5().lattice, meet) == [full_congruence(n5().lattice)]
    assert meet.__dict__["_verdicts"].two is False
    assert meet.__dict__["_verdicts"].distributive is None


def test_importing_classifies_no_spec():
    code = ("import latquot; "
            "print([name for name, spec in latquot.BUILTIN_CLASSES.items() "
            "if '_verdicts' in spec.__dict__])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(latquot.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
