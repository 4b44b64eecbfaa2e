import pytest
from hypothesis import given
from hypothesis import strategies as st

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    ClassSpec,
    Identity,
    Join,
    Meet,
    Var,
    chain,
    eval_term,
    m3,
    n5,
    parse_identity_file,
    parse_term,
    render_term,
    satisfies,
)
from latquot.errors import TermSyntaxError, UnboundVariable
from latquot.terms import MAX_DEPTH, variables


def test_parse_basic():
    assert parse_term(r"a /\ (b \/ c)") == Meet(Var("a"), Join(Var("b"), Var("c")))


def test_parse_median_term():
    t = parse_term(r"(y\/z)/\(z\/x)/\(x\/y)")
    assert t == Meet(
        Meet(Join(Var("y"), Var("z")), Join(Var("z"), Var("x"))),
        Join(Var("x"), Var("y")),
    )


def test_parse_precedence():
    assert parse_term(r"a \/ b /\ c") == Join(Var("a"), Meet(Var("b"), Var("c")))


def test_parse_errors_have_positions():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(r"a /\ ")
    assert exc.value.position == 5
    with pytest.raises(TermSyntaxError):
        parse_term("(a")
    with pytest.raises(TermSyntaxError):
        parse_term("a @ b")
    with pytest.raises(TermSyntaxError):
        parse_term("a b")


def test_deep_nesting_is_a_syntax_error():
    # both used to overflow the recursion limit: the parser on the parentheses,
    # the term walks (variables, render, hash) on the operator chain
    with pytest.raises(TermSyntaxError):
        parse_term("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(TermSyntaxError):
        parse_term("x" + r" /\ x" * 3000)
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert exc.value.position == MAX_DEPTH
    with pytest.raises(TermSyntaxError):
        parse_term("x" + r" \/ x" * (MAX_DEPTH + 1))


def test_nesting_at_the_limit_parses():
    assert parse_term("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Var("x")
    chain_term = parse_term("x" + r" /\ y" * MAX_DEPTH)
    assert variables(chain_term) == ["x", "y"]
    assert parse_term(render_term(chain_term)) == chain_term


def test_terms_built_in_code_take_any_depth():
    # the parser caps its terms at MAX_DEPTH; a term built with Meet has no cap,
    # and the walks over it must not recurse
    term = Var("x")
    for _ in range(3000):
        term = Meet(term, Var("y"))
    x_and_y = Meet(Var("x"), Var("y"))
    lat = n5().lattice
    assert variables(term) == ["x", "y"]
    for x in lat.elements:
        for y in lat.elements:
            env = {"x": x, "y": y}
            assert eval_term(lat, term, env) == eval_term(lat, x_and_y, env)
    assert satisfies(lat, ClassSpec((Identity(term, x_and_y),))) is True
    assert render_term(term) == "x" + r" /\ y" * 3000


names = st.sampled_from(["x", "y", "z", "w"])
terms = st.recursive(
    names.map(Var),
    lambda sub: st.tuples(sub, sub).map(lambda p: Meet(*p))
    | st.tuples(sub, sub).map(lambda p: Join(*p)),
    max_leaves=12,
)


@given(terms)
def test_render_parse_round_trip(term):
    assert parse_term(render_term(term)) == term


def test_eval_median_on_diamond():
    lat = m3().lattice
    env = {"x": "p", "y": "q", "z": "r"}
    assert eval_term(lat, parse_term(r"(y\/z)/\(z\/x)/\(x\/y)"), env) == "1"
    assert eval_term(lat, parse_term(r"(y/\z)\/(z/\x)\/(x/\y)"), env) == "0"


def test_eval_variable_and_unbound():
    lat = chain(3).lattice
    assert eval_term(lat, Var("x"), {"x": "1"}) == "1"
    with pytest.raises(UnboundVariable):
        eval_term(lat, Var("x"), {})


def test_eval_distributivity_on_chain():
    lat = chain(4).lattice
    lhs = parse_term(r"a /\ (b \/ c)")
    rhs = parse_term(r"(a /\ b) \/ (a /\ c)")
    for a in lat.elements:
        for b in lat.elements:
            for c in lat.elements:
                env = {"a": a, "b": b, "c": c}
                assert eval_term(lat, lhs, env) == eval_term(lat, rhs, env)


def test_variables_order():
    t = parse_term(r"(y \/ x) /\ y /\ z")
    assert variables(t) == ["y", "x", "z"]


def test_builtin_specs():
    assert len(DISTRIBUTIVE.identities) == 1
    assert len(MODULAR.identities) == 1
    assert DISTRIBUTIVE.name == "distributive"


def test_parse_identity_file():
    spec = parse_identity_file("# comment\n\nx = y\na /\\ b = b /\\ a  # trailing\n")
    assert len(spec.identities) == 2
    assert spec.identities[0].lhs == Var("x")


def test_parse_identity_needs_one_equals():
    with pytest.raises(TermSyntaxError):
        parse_identity_file("x = y = z\n")
