import time

import pytest

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    ClassSpec,
    Congruence,
    all_congruences,
    boolean,
    chain,
    class_filter,
    delta,
    from_covers,
    full_congruence,
    identity_congruence,
    is_distributive,
    kappa,
    kappa_oracle,
    leq_congruence,
    m3,
    n5,
    parse_identity,
    parse_identity_file,
    principal_congruence,
    product,
    quotient,
    resolve,
    satisfies,
    variety,
    verify_theorem1,
    verify_theorem2,
    verify_theorem2_each,
    verify_theorem3,
)
from latquot.errors import SizeLimitExceeded
from latquot.terms import IdentitySweep

DUAL_DISTRIBUTIVE = ClassSpec(
    (parse_identity(r"a \/ (b /\ c) = (a \/ b) /\ (a \/ c)", "dual"),), "dual-distributive"
)


def test_satisfies_diamond():
    lat = m3().lattice
    result = satisfies(lat, DISTRIBUTIVE)
    assert result is not True
    ident, env = result
    assert ident.name == "distributive"
    assert set(env) == {"a", "b", "c"}
    assert satisfies(lat, MODULAR) is True
    assert satisfies(lat, ClassSpec((), "empty")) is True


def test_satisfies_matches_table_scan(catalog):
    for named in catalog:
        lat = named.lattice
        assert (satisfies(lat, DISTRIBUTIVE) is True) == is_distributive(lat)


def test_kappa_examples():
    assert kappa(m3().lattice, DISTRIBUTIVE) == full_congruence(m3().lattice)
    lat = n5().lattice
    assert kappa(lat, DISTRIBUTIVE) == principal_congruence(lat, "a", "b")
    for named in (chain(4), boolean(2), boolean(3)):
        assert kappa(named.lattice, DISTRIBUTIVE) == identity_congruence(named.lattice)


def test_kappa_work_cap(monkeypatch):
    # one 3-variable identity on n5 sweeps 5^3 = 125 assignments
    lat = n5().lattice
    assert kappa(lat, MODULAR, max_work=125) == principal_congruence(lat, "a", "b")

    def no_sweep(*args):
        raise AssertionError("swept despite the cap")

    monkeypatch.setattr(variety, "_first_failure", no_sweep)
    with pytest.raises(SizeLimitExceeded):
        kappa(lat, MODULAR, max_work=124)
    dual = parse_identity(r"x \/ (y /\ (x \/ z)) = (x \/ y) /\ (x \/ z)", "dual-modular")
    two = ClassSpec(MODULAR.identities + (dual,), "both")
    with pytest.raises(SizeLimitExceeded):
        kappa(lat, two, max_work=249)


def test_delta_work_cap_charges_the_day_relation(monkeypatch):
    # the distributive class builds Day's relation, charged 20^2 = 400 on
    # chain-20, once classifying the spec (2^3 + 2 * 5^3 = 258) fits the cap
    twenty = chain(20).lattice
    assert kappa(twenty, DISTRIBUTIVE, max_work=400) == identity_congruence(twenty)
    with pytest.raises(SizeLimitExceeded, match="Day relation over 400"):
        kappa(twenty, DISTRIBUTIVE, max_work=399)
    # below 258 the spec is not classified and the sweep is charged:
    # 5^3 = 125 on n5
    lat = n5().lattice

    def no_classifying(*args):
        raise AssertionError("classified despite the cap")

    with monkeypatch.context() as patch:
        patch.setattr(variety, "_defines_distributive", no_classifying)
        assert kappa(lat, DISTRIBUTIVE, max_work=257) == principal_congruence(lat, "a", "b")
        with pytest.raises(SizeLimitExceeded, match="identity sweep of 125"):
            kappa(lat, DISTRIBUTIVE, max_work=124)

    def no_sweep(*args):
        raise AssertionError("swept on the Day path")

    monkeypatch.setattr(variety, "_first_failure", no_sweep)
    assert kappa(lat, DISTRIBUTIVE, max_work=258) == principal_congruence(lat, "a", "b")
    # below five elements the sweep runs, and is charged: 4^3 = 64 on chain-4
    monkeypatch.undo()
    four = chain(4).lattice
    assert kappa(four, DISTRIBUTIVE, max_work=64) == identity_congruence(four)
    with pytest.raises(SizeLimitExceeded):
        kappa(four, DISTRIBUTIVE, max_work=63)


def _fail(*args, **kwargs):
    raise AssertionError("ran on a warm spec")


def test_a_warm_spec_is_neither_compiled_nor_classified_again(monkeypatch):
    pentagon, diamond = n5().lattice, m3().lattice
    big = product(n5().lattice, m3().lattice)
    # expected values from cold copies of the two specs, equal but not the same objects
    cold_d = ClassSpec(DISTRIBUTIVE.identities, DISTRIBUTIVE.name)
    cold_m = ClassSpec(MODULAR.identities, MODULAR.name)
    expected = [kappa(big, cold_d), kappa(pentagon, cold_m), satisfies(pentagon, cold_d),
                satisfies(diamond, cold_m), class_filter(pentagon, cold_m)]
    delta(pentagon)
    kappa(pentagon, MODULAR)
    monkeypatch.setattr(IdentitySweep, "__init__", _fail)
    monkeypatch.setattr(variety, "_defines_distributive", _fail)
    fresh = from_covers(big.elements, big.covers())
    assert delta(fresh) == expected[0]
    assert kappa(pentagon, MODULAR) == expected[1] == principal_congruence(pentagon, "a", "b")
    assert satisfies(pentagon, DISTRIBUTIVE) == expected[2]
    assert expected[2][1] == {"a": "a", "b": "b", "c": "c"}
    assert satisfies(diamond, MODULAR) is expected[3] is True
    assert class_filter(pentagon, MODULAR) == expected[4]
    # the kept values are not fields: equal specs stay equal, with one hash
    assert cold_d == DISTRIBUTIVE and hash(cold_d) == hash(DISTRIBUTIVE)
    assert cold_d.sweeps is not DISTRIBUTIVE.sweeps


def test_a_spec_parsed_twice_gives_the_same_results_and_witnesses():
    text = "x /\\ (y \\/ (z /\\ w)) = (x /\\ y) \\/ (x /\\ z /\\ w)\nx \\/ y = y \\/ x\n"
    first, second = parse_identity_file(text, "twice"), parse_identity_file(text, "twice")
    assert first == second and first is not second
    for named in (n5(), m3(), chain(3), boolean(3)):
        lat = named.lattice
        # first is compiled and classified before second, then the other way round
        assert kappa(lat, first) == kappa(lat, second)
        assert satisfies(lat, second) == satisfies(lat, first)
        assert kappa(lat, first, max_work=10 ** 6) == kappa(lat, second)
    assert [s.names for s in first.sweeps] == [s.names for s in second.sweeps]


def test_the_work_cap_is_tested_before_a_kept_verdict(monkeypatch):
    # classified once without a cap: the n5 boundaries of
    # test_delta_work_cap_charges_the_day_relation still hold
    lat = n5().lattice
    theta = principal_congruence(lat, "a", "b")
    assert kappa(lat, DISTRIBUTIVE) == theta
    first_failure, swept = variety._first_failure, []

    def counting(target, sweeps):
        swept.append(len(target))
        return first_failure(target, sweeps)

    monkeypatch.setattr(variety, "_first_failure", counting)
    assert kappa(lat, DISTRIBUTIVE, max_work=258) == theta
    assert swept == []
    with monkeypatch.context() as patch:
        patch.setattr(variety, "_distributive_verdict", _fail)
        assert kappa(lat, DISTRIBUTIVE, max_work=257) == theta
        assert swept and swept[0] == 5
        with pytest.raises(SizeLimitExceeded, match="identity sweep of 125"):
            kappa(lat, DISTRIBUTIVE, max_work=124)


def test_a_wide_identity_is_refused_after_a_warm_call():
    # as in the CLI test of that name: 2^15 + 2 * 5^15 exceed the cap, so the
    # law is never classified, however often the spec has been used
    variables = [f"x{i}" for i in range(1, 16)]
    wide = parse_identity_file(r"x1 /\ (" + r" \/ ".join(variables) + ") = x1", "wide")
    two = chain(2).lattice
    assert kappa(two, wide) == identity_congruence(two)
    lat = resolve("fm-3").lattice
    start = time.perf_counter()
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded, match=f"identity sweep of {28 ** 15} "):
            kappa(lat, wide, max_work=10 ** 7)
    assert time.perf_counter() - start < 1.0


def test_satisfies_witness_is_first_failure():
    # sweep order: lhs variables a, b, c, lexicographic over 0 a b c 1
    ident, env = satisfies(n5().lattice, DISTRIBUTIVE)
    assert ident.name == "distributive"
    assert env == {"a": "a", "b": "b", "c": "c"}


def test_kappa_modular_pentagon():
    lat = n5().lattice
    assert kappa(lat, MODULAR) == principal_congruence(lat, "a", "b")
    assert kappa(m3().lattice, MODULAR) == identity_congruence(m3().lattice)


def test_kappa_oracle_agreement(small_catalog):
    # load-bearing cross-check of the witness-driven loop
    for named in small_catalog:
        lat = named.lattice
        for spec in (DISTRIBUTIVE, MODULAR):
            assert kappa(lat, spec) == kappa_oracle(lat, spec, max_size=8)


def test_kappa_quotient_in_class(catalog):
    for named in catalog:
        lat = named.lattice
        for spec in (DISTRIBUTIVE, MODULAR):
            target = quotient(lat, kappa(lat, spec)).target
            assert satisfies(target, spec) is True


def test_kappa_minimality_one_step_down(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        for spec in (DISTRIBUTIVE, MODULAR):
            kap = kappa(lat, spec)
            cons = all_congruences(lat, max_size=8)
            below = [t for t in cons if t != kap and leq_congruence(t, kap)]
            for theta in below:
                # coatoms only: nothing strictly between theta and kappa
                if any(t != theta and leq_congruence(theta, t) for t in below):
                    continue
                assert satisfies(quotient(lat, theta).target, spec) is not True


def test_kappa_idempotent(catalog):
    for named in catalog:
        lat = named.lattice
        for spec in (DISTRIBUTIVE, MODULAR):
            target = quotient(lat, kappa(lat, spec)).target
            assert kappa(target, spec) == identity_congruence(target)


def test_class_filter_pentagon():
    lat = n5().lattice
    filtered = class_filter(lat, DISTRIBUTIVE)
    assert len(filtered) == 4
    kap = kappa(lat, DISTRIBUTIVE)
    assert all(leq_congruence(kap, t) for t in filtered)
    assert identity_congruence(lat) not in filtered


def test_class_filter_diamond_and_distributive():
    lat = m3().lattice
    assert class_filter(lat, DISTRIBUTIVE) == [full_congruence(lat)]
    square = boolean(2).lattice
    assert set(class_filter(square, DISTRIBUTIVE)) == set(all_congruences(square))


def test_class_filter_is_upset(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        for spec in (DISTRIBUTIVE, MODULAR):
            kap = kappa(lat, spec)
            filtered = set(class_filter(lat, spec, max_size=8))
            cons = all_congruences(lat, max_size=8)
            assert filtered == {t for t in cons if leq_congruence(kap, t)}


def test_dual_distributive_identity_agrees(catalog):
    for named in catalog:
        lat = named.lattice
        assert kappa(lat, DISTRIBUTIVE) == kappa(lat, DUAL_DISTRIBUTIVE)


def test_modular_kappa_below_distributive(catalog):
    for named in catalog:
        lat = named.lattice
        assert leq_congruence(kappa(lat, MODULAR), kappa(lat, DISTRIBUTIVE))


def test_theorem1_reports(small_catalog):
    for named in small_catalog:
        for spec in (DISTRIBUTIVE, MODULAR):
            report = verify_theorem1(named.lattice, spec, max_size=8)
            assert report.ok, report.details


def test_theorem1_names_a_filter_that_is_not_the_upset_of_kappa(monkeypatch):
    lat = n5().lattice
    monkeypatch.setattr(variety, "kappa", lambda lat, spec: identity_congruence(lat))
    report = verify_theorem1(lat, DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "the filter's meet {0}{a,b}{c}{1} is not kappa {0}{a}{b}{c}{1}",
        "filter size 4 of 5 congruences",
    ]


def test_theorem1_names_a_congruence_above_the_meet_outside_the_filter(monkeypatch):
    # the full congruence is dropped from n5's filter: the meet is still
    # delta, so only the up-set line fires, and it names the dropped member
    lat = n5().lattice
    in_class = variety._in_class
    monkeypatch.setattr(variety, "_in_class",
                        lambda lat, cons, spec: in_class(lat, cons, spec)[:-1])
    report = verify_theorem1(lat, DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "above the filter's meet {0}{a,b}{c}{1} but outside the filter: {0,a,b,c,1}",
        "filter size 3 of 5 congruences",
    ]


def test_theorem1_reads_an_empty_filter_as_the_full_congruence(monkeypatch):
    lat = n5().lattice
    monkeypatch.setattr(variety, "_in_class", lambda lat, cons, spec: [])
    report = verify_theorem1(lat, DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "above the filter's meet {0,a,b,c,1} but outside the filter: {0,a,b,c,1}",
        "the filter's meet {0,a,b,c,1} is not kappa {0}{a,b}{c}{1}",
        "filter size 0 of 5 congruences",
    ]


def test_theorem2_pentagon_and_edge_cases():
    lat = n5().lattice
    theta = principal_congruence(lat, "a", "b")
    assert verify_theorem2(lat, theta, DISTRIBUTIVE).ok
    assert verify_theorem2(lat, identity_congruence(lat), DISTRIBUTIVE).ok
    assert verify_theorem2(lat, full_congruence(lat), DISTRIBUTIVE).ok


def test_theorem2_joins_kappa_and_theta_as_the_union_of_their_closed_sets(monkeypatch):
    # kappa reads the identity on n5 itself only, so the pushed join is the
    # identity of L/identity, while kappa of that quotient is still delta
    lat = n5().lattice
    real = variety.kappa
    monkeypatch.setattr(variety, "kappa", lambda l, spec: identity_congruence(l) if l is lat
                        else real(l, spec))
    report = verify_theorem2(lat, identity_congruence(lat), DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "mismatch on quotient by {0}{a}{b}{c}{1}: "
        "direct {[0]}{[a],[b]}{[c]}{[1]} vs pushed {[0]}{[a]}{[b]}{[c]}{[1]}"
    ]


def test_theorem2_exhaustive():
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


def test_theorem2_over_a_list_asks_kappa_of_l_once(monkeypatch):
    lat = product(n5().lattice, m3().lattice)
    cons = all_congruences(lat, 25)
    for spec in (DISTRIBUTIVE, MODULAR):
        one_by_one = [verify_theorem2(lat, theta, spec) for theta in cons]
        real, asked = variety.kappa, []

        def counting(l, spec):
            asked.append(l)
            return real(l, spec)

        with monkeypatch.context() as patch:
            patch.setattr(variety, "kappa", counting)
            reports = verify_theorem2_each(lat, cons, spec)
        assert [(r.name, r.ok, r.details) for r in reports] == \
            [(r.name, r.ok, r.details) for r in one_by_one]
        assert all(r.ok for r in reports) and len(reports) == 10
        # kappa of L, then kappa of each of the 10 quotients
        assert len(asked) == 11 and [l is lat for l in asked].count(True) == 1
    assert verify_theorem2_each(lat, [], MODULAR) == []


def test_theorem3_pairs():
    pairs = [
        (m3().lattice, n5().lattice),
        (n5().lattice, chain(3).lattice),
        (m3().lattice, m3().lattice),
        (chain(2).lattice, chain(3).lattice),
    ]
    for l1, l2 in pairs:
        report = verify_theorem3(l1, l2, DISTRIBUTIVE)
        assert report.ok, report.details
        assert any("factored" in d for d in report.details)


def test_theorem3_diamond_pentagon_value():
    # the product kappa is full on the diamond factor, theta(a,b) on the pentagon
    l1, l2 = m3().lattice, n5().lattice
    prod = product(l1, l2)
    kap = kappa(prod, DISTRIBUTIVE)
    assert kap.num_blocks() == 4
    i = prod.index("(p,a)")
    j = prod.index("(q,b)")
    assert kap.same(i, j)  # diamond fully collapsed, a glued to b
    assert not kap.same(prod.index("(p,a)"), prod.index("(p,c)"))


def test_theorem3_singleton_factor():
    from latquot import from_covers

    lat = n5().lattice
    report = verify_theorem3(lat, from_covers(["*"], []), DISTRIBUTIVE)
    assert report.ok


def test_theorem3_names_a_wrong_kappa_of_the_product(monkeypatch):
    l1, l2 = n5().lattice, chain(2).lattice
    real = variety.kappa
    monkeypatch.setattr(variety, "kappa", lambda l, spec: identity_congruence(l)
                        if len(l) == len(l1) * len(l2) else real(l, spec))
    report = verify_theorem3(l1, l2, DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "kappa of the product is {(0,0)}{(0,1)}{(a,0)}{(a,1)}{(b,0)}{(b,1)}{(c,0)}{(c,1)}"
        "{(1,0)}{(1,1)}, product of kappas is {(0,0)}{(0,1)}{(a,0),(b,0)}{(a,1),(b,1)}"
        "{(c,0)}{(c,1)}{(1,0)}{(1,1)}",
        "factored all 10 product congruences",
    ]


def test_theorem3_names_a_product_congruence_that_does_not_factor(monkeypatch):
    # (0,1) and (1,0) differ in both coordinates, so no t x 0 or 0 x t
    # glues them alone
    l1 = l2 = chain(2).lattice
    real = variety.join_irreducible_congruences
    odd = Congruence(4, [0, 1, 1, 3])
    monkeypatch.setattr(variety, "join_irreducible_congruences",
                        lambda l: real(l) + [odd] if len(l) == 4 else real(l))
    report = verify_theorem3(l1, l2, DISTRIBUTIVE)
    assert not report.ok
    assert report.details == [
        "unfactorable product congruence: {(0,0)}{(0,1),(1,0)}{(1,1)}",
        "factored all 4 product congruences",
    ]


def test_inconsistent_identity_collapses(catalog):
    crush = ClassSpec((parse_identity("x = y", "crush"),), "crush")
    for named in catalog:
        lat = named.lattice
        assert kappa(lat, crush) == full_congruence(lat)


def test_kappa_searches_l_itself_before_the_first_closure(monkeypatch):
    # L/identity is L with the same indices, so a lattice already in the
    # class needs no quotient: one call per path (Day's relation, the
    # sweep, and the sweep below five elements)
    def no_quotient(*args):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(variety, "quotient", no_quotient)
    cube = boolean(6).lattice
    three = chain(3).lattice
    assert delta(cube) == identity_congruence(cube)
    assert kappa(cube, MODULAR) == identity_congruence(cube)
    assert kappa(three, DISTRIBUTIVE) == identity_congruence(three)
