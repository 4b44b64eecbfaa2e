import pytest

from latquot import (
    Congruence,
    all_congruences,
    chain,
    cong_join,
    cong_meet,
    congruence_from_blocks,
    full_congruence,
    identity_congruence,
    is_congruence,
    is_isomorphic,
    leq_congruence,
    m3,
    n5,
    principal_congruence,
    push_congruence,
    quotient,
)
from latquot.congruence import congruence_witness
from latquot.errors import (
    LatticeMismatch,
    MalformedPartition,
    NotAboveKernel,
    SizeLimitExceeded,
)

from conftest import all_partitions


def brute_force_congruences(lat):
    """Oracle: filter every set partition of the carrier by compatibility."""
    out = []
    for part in all_partitions(lat.elements):
        if is_congruence(lat, part) is True:
            out.append(congruence_from_blocks(lat, part))
    return out


def test_identity_and_full():
    lat = n5().lattice
    ident = identity_congruence(lat)
    assert ident.num_blocks() == 5
    full = full_congruence(m3().lattice)
    assert full.num_blocks() == 1
    single = chain(1).lattice
    assert identity_congruence(single) == full_congruence(single)


def test_is_congruence_pentagon():
    lat = n5().lattice
    assert is_congruence(lat, [["a", "b"], ["0"], ["c"], ["1"]]) is True
    witness = is_congruence(lat, [["0", "b"], ["a"], ["c"], ["1"]])
    assert witness is not True
    x, y, c, op = witness
    assert {x, y} <= {"0", "a", "b"}
    assert is_congruence(lat, [[e] for e in lat.elements]) is True


def test_malformed_partitions():
    lat = n5().lattice
    with pytest.raises(MalformedPartition):
        is_congruence(lat, [["a", "b"], ["0"], ["c"]])  # missing 1
    with pytest.raises(MalformedPartition):
        is_congruence(lat, [["a", "b"], ["b"], ["0"], ["c"], ["1"]])


def test_principal_congruence_pentagon():
    lat = n5().lattice
    theta = principal_congruence(lat, "a", "b")
    assert theta.render(lat) == "{0}{a,b}{c}{1}"
    assert principal_congruence(lat, "c", "c") == identity_congruence(lat)
    # (0,b) forces (c, b\/c) = (c,1), which forces (a/\c, a/\1) = (0,a)
    theta2 = principal_congruence(lat, "0", "b")
    assert theta2.render(lat) == "{0,a,b}{c,1}"


def test_principal_minimality(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        cons = all_congruences(lat, max_size=8)
        for i, a in enumerate(lat.elements):
            for b in lat.elements[i:]:
                pab = principal_congruence(lat, a, b)
                for theta in cons:
                    if theta.same(lat.index(a), lat.index(b)):
                        assert leq_congruence(pab, theta)


ALPHA = [["0", "a", "b"], ["c", "1"]]
BETA = [["a", "b", "1"], ["0", "c"]]


def test_cong_meet_join_pentagon():
    lat = n5().lattice
    alpha = congruence_from_blocks(lat, ALPHA)
    beta = congruence_from_blocks(lat, BETA)
    assert cong_meet(alpha, beta) == principal_congruence(lat, "a", "b")
    assert cong_join(lat, alpha, beta) == full_congruence(lat)
    assert cong_join(lat, alpha, beta) == cong_join(lat, beta, alpha)


def test_cong_bounds(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        ident, full = identity_congruence(lat), full_congruence(lat)
        for theta in all_congruences(lat, max_size=8):
            assert cong_meet(theta, ident) == ident
            assert cong_join(lat, theta, full) == full
            assert leq_congruence(ident, theta)
            assert leq_congruence(theta, full)


def test_cong_join_is_least_upper_bound(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        cons = all_congruences(lat, max_size=8)
        for t1 in cons:
            for t2 in cons:
                joined = cong_join(lat, t1, t2)
                uppers = [t for t in cons if leq_congruence(t1, t) and leq_congruence(t2, t)]
                least = min(uppers, key=lambda t: -t.num_blocks())
                assert all(leq_congruence(least, t) for t in uppers)
                assert joined == least


def test_leq_congruence_pentagon():
    lat = n5().lattice
    alpha = congruence_from_blocks(lat, ALPHA)
    beta = congruence_from_blocks(lat, BETA)
    assert leq_congruence(principal_congruence(lat, "a", "b"), alpha)
    assert not leq_congruence(alpha, beta)


def test_lattice_mismatch():
    with pytest.raises(LatticeMismatch):
        cong_meet(identity_congruence(n5().lattice), identity_congruence(chain(3).lattice))
    # two congruences of a 5-element lattice, joined on a smaller and a larger one
    pentagon = n5().lattice
    t1 = principal_congruence(pentagon, "a", "b")
    t2 = principal_congruence(pentagon, "0", "c")
    for other in (chain(4).lattice, chain(6).lattice):
        with pytest.raises(LatticeMismatch):
            cong_join(other, t1, t2)


def test_all_congruences_counts():
    assert len(all_congruences(m3().lattice)) == 2
    cons = all_congruences(n5().lattice)
    assert len(cons) == 5
    lat = n5().lattice
    rendered = {t.render(lat) for t in cons}
    assert rendered == {
        "{0}{a}{b}{c}{1}",
        "{0}{a,b}{c}{1}",
        "{0,a,b}{c,1}",
        "{0,c}{a,b,1}",
        "{0,a,b,c,1}",
    }
    for n in range(1, 6):
        assert len(all_congruences(chain(n).lattice)) == 2 ** (n - 1)


def test_all_congruences_brute_force_oracle(catalog):
    for named in catalog:
        if len(named.lattice) > 6:
            continue
        lat = named.lattice
        enumerated = set(all_congruences(lat))
        assert enumerated == set(brute_force_congruences(lat))


def test_all_congruences_cap():
    with pytest.raises(SizeLimitExceeded):
        all_congruences(n5().lattice, max_size=4)


def test_all_congruences_deterministic_order():
    cons = all_congruences(n5().lattice)
    assert cons == sorted(cons, key=lambda t: (-t.num_blocks(), t.block_of))
    assert cons[0] == identity_congruence(n5().lattice)
    assert cons[-1] == full_congruence(n5().lattice)


def test_every_result_is_compatible(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        for theta in all_congruences(lat, max_size=8):
            assert congruence_witness(lat, theta) is None


def test_congruence_lattice_axioms(small_catalog):
    # Con(L) under refinement with (cong_meet, cong_join) is a lattice
    for named in small_catalog:
        lat = named.lattice
        cons = all_congruences(lat, max_size=8)
        for t1 in cons:
            for t2 in cons:
                m = cong_meet(t1, t2)
                j = cong_join(lat, t1, t2)
                assert all(m.block_of[i] == min(block) for block in m.blocks() for i in block)
                assert m in cons and j in cons
                assert leq_congruence(m, t1) and leq_congruence(m, t2)
                assert leq_congruence(t1, j) and leq_congruence(t2, j)
                assert cong_meet(t1, j) == t1  # absorption
                assert cong_join(lat, t1, m) == t1


def test_quotient_pentagon():
    lat = n5().lattice
    qmap = quotient(lat, principal_congruence(lat, "a", "b"))
    assert len(qmap.target) == 4
    from latquot import boolean, is_distributive

    assert is_distributive(qmap.target)
    assert is_isomorphic(qmap.target, boolean(2).lattice)
    assert qmap.apply("a") == qmap.apply("b") == "[a]"


def test_quotient_trivial_cases():
    lat = m3().lattice
    assert is_isomorphic(quotient(lat, identity_congruence(lat)).target, lat)
    assert len(quotient(lat, full_congruence(lat)).target) == 1


def test_quotient_map_is_homomorphism(small_catalog):
    for named in small_catalog:
        lat = named.lattice
        for theta in all_congruences(lat, max_size=8):
            qmap = quotient(lat, theta)
            for x in lat.elements:
                for y in lat.elements:
                    assert qmap.apply(lat.meet(x, y)) == qmap.target.meet(
                        qmap.apply(x), qmap.apply(y)
                    )
                    assert qmap.apply(lat.join(x, y)) == qmap.target.join(
                        qmap.apply(x), qmap.apply(y)
                    )


def test_push_congruence_pentagon():
    lat = n5().lattice
    theta = principal_congruence(lat, "a", "b")
    qmap = quotient(lat, theta)
    assert push_congruence(qmap, theta) == identity_congruence(qmap.target)
    assert push_congruence(qmap, full_congruence(lat)) == full_congruence(qmap.target)
    phi = congruence_from_blocks(lat, ALPHA)
    pushed = push_congruence(qmap, phi)
    assert pushed.render(qmap.target) == "{[0],[a]}{[c],[1]}"


def test_push_congruence_requires_containment():
    lat = n5().lattice
    theta = congruence_from_blocks(lat, ALPHA)
    qmap = quotient(lat, theta)
    with pytest.raises(NotAboveKernel):
        push_congruence(qmap, congruence_from_blocks(lat, BETA))


def test_quotient_correspondence(small_catalog):
    # L/phi is isomorphic to (L/theta)/(phi/theta) whenever theta <= phi
    for named in small_catalog:
        lat = named.lattice
        cons = all_congruences(lat, max_size=8)
        for theta in cons:
            qmap = quotient(lat, theta)
            for phi in cons:
                if not leq_congruence(theta, phi):
                    continue
                twice = quotient(qmap.target, push_congruence(qmap, phi)).target
                once = quotient(lat, phi).target
                assert is_isomorphic(twice, once)
