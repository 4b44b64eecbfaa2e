import pytest
from hypothesis import given
from hypothesis import strategies as st

from latquot import (
    boolean,
    chain,
    from_covers,
    is_distributive,
    is_isomorphic,
    is_modular,
    m3,
    n5,
    product,
    restrict,
    sublattice_closure,
)
from latquot.errors import (
    CycleDetected,
    DuplicateElement,
    EmptyGeneratorSet,
    LatticeError,
    NotALattice,
    SizeLimitExceeded,
    UnknownElement,
)

N5_ELEMENTS = ["0", "a", "b", "c", "1"]
N5_COVERS = [("0", "b"), ("b", "a"), ("a", "1"), ("0", "c"), ("c", "1")]


def test_from_covers_pentagon():
    lat = from_covers(N5_ELEMENTS, N5_COVERS)
    assert len(lat) == 5
    assert lat.leq("b", "a")
    assert not lat.leq("a", "b")
    assert lat.meet("a", "c") == "0"
    assert lat.join("a", "c") == "1"


def test_from_covers_singleton():
    lat = from_covers(["x"], [])
    assert lat.meet("x", "x") == "x"
    assert lat.join("x", "x") == "x"


def test_from_covers_missing_top():
    with pytest.raises(NotALattice) as exc:
        from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b")])
    assert exc.value.which in ("meet", "join")
    assert set(exc.value.witness) <= {"0", "a", "b", "1"}
    # (a, b) in particular has no least upper bound
    with pytest.raises(NotALattice):
        from_covers(["0", "a", "b"], [("0", "a"), ("0", "b")])


def test_from_covers_duplicate_and_unknown():
    with pytest.raises(DuplicateElement):
        from_covers(["x", "x"], [])
    with pytest.raises(UnknownElement):
        from_covers(["x"], [("x", "y")])


def test_from_covers_cycle():
    with pytest.raises(CycleDetected):
        from_covers(["x", "y"], [("x", "y"), ("y", "x")])


@pytest.mark.parametrize("bad", ["p<q", "p q", "p\tq", "p\n", ""])
def test_from_covers_rejects_identifiers_the_text_format_cannot_carry(bad):
    # "p<q" used to be accepted, and its dump then failed to re-parse
    with pytest.raises(LatticeError):
        from_covers([bad, "r"], [(bad, "r")])


def test_leq_reflexive_everywhere(catalog):
    for named in catalog:
        lat = named.lattice
        for e in lat.elements:
            assert lat.leq(e, e)


def test_leq_unknown_element():
    with pytest.raises(UnknownElement):
        n5().lattice.leq("zz", "a")


def test_m3_atoms_incomparable():
    lat = m3().lattice
    assert not lat.leq("p", "q")
    assert not lat.leq("q", "p")


def test_meet_join_are_bounds(catalog):
    # glb/lub property, exhaustively on every catalog lattice
    for named in catalog:
        lat = named.lattice
        n = len(lat)
        for i in range(n):
            for j in range(n):
                m = lat.meet_table[i][j]
                assert lat.leq_i(m, i) and lat.leq_i(m, j)
                u = lat.join_table[i][j]
                assert lat.leq_i(i, u) and lat.leq_i(j, u)
                for z in range(n):
                    if lat.leq_i(z, i) and lat.leq_i(z, j):
                        assert lat.leq_i(z, m)
                    if lat.leq_i(i, z) and lat.leq_i(j, z):
                        assert lat.leq_i(u, z)


def test_absorption(catalog):
    for named in catalog:
        lat = named.lattice
        for x in lat.elements:
            for y in lat.elements:
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.join(x, lat.meet(x, y)) == x


def test_covers_round_trip(catalog):
    for named in catalog:
        lat = named.lattice
        rebuilt = from_covers(lat.elements, lat.covers())
        assert rebuilt.elements == lat.elements
        assert rebuilt.meet_table == lat.meet_table
        assert rebuilt.join_table == lat.join_table


def test_product_square():
    square = product(chain(2).lattice, chain(2).lattice)
    assert len(square) == 4
    assert is_isomorphic(square, boolean(2).lattice)


def test_product_sizes_and_names():
    prod = product(m3().lattice, n5().lattice)
    assert len(prod) == 25
    assert "(p,a)" in prod.elements


def test_product_identity_factor():
    lat = n5().lattice
    prod = product(lat, from_covers(["*"], []))
    assert is_isomorphic(prod, lat)


def test_product_componentwise(catalog):
    l1, l2 = m3().lattice, chain(3).lattice
    prod = product(l1, l2)
    for p in l1.elements:
        for q in l2.elements:
            for r in l1.elements:
                for s in l2.elements:
                    a, b = f"({p},{q})", f"({r},{s})"
                    assert prod.meet(a, b) == f"({l1.meet(p, r)},{l2.meet(q, s)})"
                    assert prod.join(a, b) == f"({l1.join(p, r)},{l2.join(q, s)})"


def test_product_of_comma_identifiers():
    # "(x,y,z)" used to name both ("x", "y,z") and ("x,y", "z")
    l1 = from_covers(["x", "x,y"], [("x", "x,y")])
    l2 = from_covers(["y,z", "z"], [("y,z", "z")])
    prod = product(l1, l2)
    assert len(set(prod.elements)) == 4
    assert prod.meet("(x,z)", "{3:x,y,y,z}") == "{1:x,y,z}"
    assert prod.join("(x,z)", "{3:x,y,y,z}") == "{3:x,y,z}"
    assert is_isomorphic(prod, boolean(2).lattice)


def test_product_names_of_nesting_identifiers_are_unchanged():
    pair = product(chain(2).lattice, m3().lattice)
    nested = product(pair, from_covers(["{x,y}", "[a,(b)]"], [("{x,y}", "[a,(b)]")]))
    assert nested.elements[:4] == ("((0,0),{x,y})", "((0,0),[a,(b)])", "((0,p),{x,y})",
                                    "((0,p),[a,(b)])")


identifiers = st.text(alphabet="a,()[]{}", min_size=1, max_size=6)


@given(st.lists(identifiers, min_size=1, max_size=4, unique=True),
       st.lists(identifiers, min_size=1, max_size=4, unique=True))
def test_product_names_are_injective(names1, names2):
    l1 = from_covers(names1, list(zip(names1, names1[1:])))
    l2 = from_covers(names2, list(zip(names2, names2[1:])))
    prod = product(l1, l2)
    assert len(set(prod.elements)) == len(names1) * len(names2)
    again = product(prod, l1)
    assert len(set(again.elements)) == len(prod) * len(l1)


@given(identifiers, identifiers, identifiers)
def test_product_names_of_one_string_split_two_ways(a, b, c):
    # "(p,q)" reads "a,b,c" for both (a, "b,c") and ("a,b", c)
    l1 = from_covers([a, f"{a},{b}"], [(a, f"{a},{b}")])
    l2 = from_covers([f"{b},{c}", c], [(f"{b},{c}", c)])
    assert len(set(product(l1, l2).elements)) == 4


def test_distributivity_classifications():
    assert not is_distributive(m3().lattice)
    assert not is_distributive(n5().lattice)
    for n in range(1, 6):
        assert is_distributive(chain(n).lattice)


def test_modularity_classifications():
    assert not is_modular(n5().lattice)
    assert is_modular(m3().lattice)


def test_distributive_implies_modular(catalog):
    for named in catalog:
        if is_distributive(named.lattice):
            assert is_modular(named.lattice)


def test_forbidden_sublattice_oracle(small_catalog):
    # Classical criterion: distributive iff no 5-generated sublattice
    # closes to a copy of the diamond or the pentagon.
    from itertools import combinations

    diamond, pentagon = m3().lattice, n5().lattice
    for named in small_catalog:
        lat = named.lattice
        found = False
        for subset in combinations(lat.elements, 5):
            closed = sublattice_closure(lat, subset)
            if len(closed) == 5:
                sub = restrict(lat, closed)
                if is_isomorphic(sub, diamond) or is_isomorphic(sub, pentagon):
                    found = True
                    break
        assert found != is_distributive(lat)


def test_closure_trivial_cases():
    lat = n5().lattice
    assert sublattice_closure(lat, ["a"]) == ["a"]
    assert sublattice_closure(lat, lat.elements) == list(lat.elements)
    with pytest.raises(EmptyGeneratorSet):
        sublattice_closure(lat, [])


def test_isomorphism_basics():
    assert is_isomorphic(n5().lattice, n5().lattice)
    assert not is_isomorphic(m3().lattice, n5().lattice)
    assert not is_isomorphic(chain(3).lattice, chain(4).lattice)


def test_isomorphism_size_cap():
    lat = boolean(3).lattice
    with pytest.raises(SizeLimitExceeded):
        is_isomorphic(lat, lat, max_size=4)
    assert is_isomorphic(lat, lat, max_size=8)


def test_restrict_requires_closed_subset():
    from latquot.errors import LatticeError

    with pytest.raises(LatticeError):
        restrict(n5().lattice, ["a", "c"])  # meet(a,c)=0 missing
