import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kappa_differential import lattices

from latquot import (
    all_congruences,
    congruence_from_blocks,
    delta,
    dump_lattice_text,
    free_modular_3,
    from_covers,
    is_isomorphic,
    n5,
    parse_congruence_text,
    parse_lattice_text,
    quotient,
    to_dot,
)
from latquot.errors import LatticeError, NotALattice
from latquot.core import is_identifier


def test_parse_basic_file():
    lat = parse_lattice_text(
        "# the pentagon\n"
        "elements: 0 a b c 1\n"
        "\n"
        "covers: 0<b b<a a<1 0<c c<1\n"
    )
    assert lat.elements == ("0", "a", "b", "c", "1")
    assert lat.meet("a", "c") == "0"


def test_parse_singleton_and_antichain():
    assert len(parse_lattice_text("elements: x\ncovers:\n")) == 1
    with pytest.raises(NotALattice):
        parse_lattice_text("elements: x y\ncovers:\n")


def test_parse_rejects_garbage():
    with pytest.raises(LatticeError):
        parse_lattice_text("covers: a<b\n")
    with pytest.raises(LatticeError):
        parse_lattice_text("elements: a b\nedges: a<b\n")
    with pytest.raises(LatticeError):
        parse_lattice_text("elements: a b\ncovers: a<b<c\n")


def test_dump_round_trip_catalog(catalog):
    for named in catalog:
        text = dump_lattice_text(named.lattice)
        assert dump_lattice_text(parse_lattice_text(text)) == text


def test_congruence_block_notation():
    assert parse_congruence_text("{a,b}{0}{c}{1}") == [["a", "b"], ["0"], ["c"], ["1"]]


def test_congruence_block_notation_nested_names():
    # product ids carry commas/parens, fd ids carry braces
    blocks = parse_congruence_text("{(p,a),(p,b)}{(q,c)}")
    assert blocks == [["(p,a)", "(p,b)"], ["(q,c)"]]
    blocks = parse_congruence_text("{{x}{y,z},{x}}{{y}}")
    assert blocks == [["{x}{y,z}", "{x}"], ["{y}"]]


def test_congruence_render_round_trip():
    lat = free_modular_3().lattice
    theta = delta(lat)
    assert congruence_from_blocks(lat, parse_congruence_text(theta.render(lat))) == theta


def test_congruence_notation_errors():
    with pytest.raises(LatticeError):
        parse_congruence_text("a,b")
    with pytest.raises(LatticeError):
        parse_congruence_text("{a,b")
    with pytest.raises(LatticeError):
        parse_congruence_text("")


def test_dot_plain():
    text = to_dot(n5().lattice)
    assert text.startswith("digraph")
    assert "rankdir=BT" in text
    assert text.count("->") == 5


def test_dot_singleton():
    from latquot import chain

    text = to_dot(chain(1).lattice)
    assert "->" not in text


def test_dot_highlight_clusters():
    lat = n5().lattice
    text = to_dot(lat, highlight=delta(lat))
    assert "subgraph cluster_0" in text
    assert text.count("fillcolor") == 2


def test_dot_highlight_fm3_cluster_count():
    lat = free_modular_3().lattice
    text = to_dot(lat, highlight=delta(lat))
    # six doubletons plus the five-element diamond block
    assert sum(1 for line in text.splitlines() if "subgraph cluster_" in line) == 7


def test_dot_escapes_quotes_and_backslashes():
    # a diamond with a '"' and a backslash in two atoms; delta collapses it
    atoms = ['say"hi"', "back\\slash", "c"]
    lat = from_covers(["0", *atoms, "1"], [(x, y) for a in atoms for x, y in (("0", a), (a, "1"))])
    text = to_dot(lat)
    assert '[label="say\\"hi\\""];' in text
    assert '[label="back\\\\slash"];' in text
    highlighted = to_dot(lat, highlight=delta(lat), name='my "graph"')
    assert highlighted.startswith('digraph "my \\"graph\\"" {')
    assert '[label="say\\"hi\\"", style=filled' in highlighted


@pytest.mark.parametrize("bad", ["a(", "a}", ")a(", "{a", "(a))", "[a", "a]"])
def test_parse_rejects_identifiers_block_notation_cannot_carry(bad):
    # "a(" used to render as {0,a(}{b,1}, and that failed with "unbalanced braces"
    text = f"elements: 0 {bad} b 1\ncovers: 0<{bad} 0<b {bad}<1 b<1\n"
    with pytest.raises(LatticeError, match="unbalanced brackets"):
        parse_lattice_text(text)


@pytest.mark.parametrize("name", ["(a}", "{a)", "f(x)", "{}", "[a,b]", "(x,[y)]"])
def test_balanced_identifiers_round_trip_through_block_notation(name):
    from latquot import principal_congruence

    lat = parse_lattice_text(f"elements: 0 {name} b 1\ncovers: 0<{name} 0<b {name}<1 b<1\n")
    theta = principal_congruence(lat, "0", name)
    assert parse_congruence_text(theta.render(lat)) == [["0", name], ["b", "1"]]


def test_catalog_identifiers_balance(catalog):
    for named in catalog:
        text = dump_lattice_text(named.lattice)
        assert parse_lattice_text(text).elements == named.lattice.elements


_names = st.text(alphabet="ab1_,()[]{}", min_size=1, max_size=5).filter(is_identifier)


def _renamed(lat, data):
    """``lat`` with its elements renamed to distinct identifiers drawn by ``data``."""
    names = data.draw(st.lists(_names, min_size=len(lat), max_size=len(lat), unique=True))
    renamed = dict(zip(lat.elements, names))
    return from_covers(names, [(renamed[a], renamed[b]) for a, b in lat.covers()])


@settings(max_examples=100, deadline=None)
@given(lattices(), st.data())
def test_parse_of_dump_is_isomorphic(lat, data):
    lat = _renamed(lat, data)
    again = parse_lattice_text(dump_lattice_text(lat))
    assert again.elements == lat.elements
    assert is_isomorphic(again, lat)


@settings(max_examples=40, deadline=None)
@given(lattices(), st.data())
def test_every_congruence_round_trips_through_block_notation(lat, data):
    lat = _renamed(lat, data)
    for theta in all_congruences(lat):
        assert congruence_from_blocks(lat, parse_congruence_text(theta.render(lat))) == theta
        assert all(is_identifier(name) for name in quotient(lat, theta).target.elements)
