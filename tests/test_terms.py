from dataclasses import make_dataclass

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
    parse_identity,
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
    # the parser recurses once per parenthesis, so parentheses are capped
    with pytest.raises(TermSyntaxError):
        parse_term("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert exc.value.position == MAX_DEPTH


def test_operator_chains_parse_at_any_depth():
    # operators nest without parentheses to any depth: no walk over a term recurses
    for text in ("x" + r" /\ x" * 3000, "x" + r" \/ x" * (MAX_DEPTH + 1)):
        term = parse_term(text)
        assert render_term(term) == text
        assert parse_term(render_term(term)) == term


def test_nesting_at_the_limit_parses():
    assert parse_term("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Var("x")
    chain_term = parse_term("x" + r" /\ y" * MAX_DEPTH)
    assert variables(chain_term) == ["x", "y"]
    assert parse_term(render_term(chain_term)) == chain_term


def deep_chain():
    r"""x /\ y /\ ... /\ y, 3000 meets deep, built with Meet."""
    term = Var("x")
    for _ in range(3000):
        term = Meet(term, Var("y"))
    return term


def test_terms_built_in_code_take_any_depth():
    # a term built with Meet has no cap, and the walks over it must not recurse
    term = deep_chain()
    x_and_y = Meet(Var("x"), Var("y"))
    lat = n5().lattice
    assert variables(term) == ["x", "y"]
    for x in lat.elements:
        for y in lat.elements:
            env = {"x": x, "y": y}
            assert eval_term(lat, term, env) == eval_term(lat, x_and_y, env)
    assert satisfies(lat, ClassSpec((Identity(term, x_and_y),))) is True
    assert render_term(term) == "x" + r" /\ y" * 3000


def test_deep_terms_compare_hash_and_print():
    # 3000 nested dataclasses overflow the recursion limit in a recursive
    # __eq__, __hash__ or __repr__
    built, twin = deep_chain(), deep_chain()
    assert built is not twin and built == twin and hash(built) == hash(twin)
    assert built != Join(built.left, built.right)
    assert built != twin.left
    assert repr(built) == "Meet(left=" * 3000 + "Var(name='x')" + ", right=Var(name='y'))" * 3000
    assert {built: 1}[twin] == 1 and twin in {built}
    ident = Identity(built, Var("x"))
    spec = ClassSpec((ident,), "deep")
    assert ident == Identity(twin, Var("x")) and hash(ident) == hash(Identity(twin, Var("x")))
    assert spec in {ClassSpec((Identity(twin, Var("x")),), "deep")}
    assert repr(spec).startswith("ClassSpec(identities=(Identity(lhs=Meet(left=Meet(left=")
    parsed = parse_term("x" + r" /\ y" * 3000)
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert len({built, twin, parsed}) == 1
    assert spec == ClassSpec((parse_identity("x" + r" /\ y" * 3000 + " = x"),), "deep")


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


# the recursive frozen dataclasses that Var, Meet and Join once were
RefVar = make_dataclass("Var", ["name"], frozen=True)
RefMeet = make_dataclass("Meet", ["left", "right"], frozen=True)
RefJoin = make_dataclass("Join", ["left", "right"], frozen=True)


def reference(term):
    if isinstance(term, Var):
        return RefVar(term.name)
    kind = RefMeet if isinstance(term, Meet) else RefJoin
    return kind(reference(term.left), reference(term.right))


@given(terms, terms)
def test_terms_compare_hash_and_print_as_recursive_dataclasses(a, b):
    for s, t in ((a, b), (a, parse_term(render_term(a))), (Meet(a, b), Join(a, b))):
        assert (s == t) == (reference(s) == reference(t))
        assert (s != t) == (reference(s) != reference(t))
        assert repr(s) == repr(reference(s))
        if s == t:
            assert hash(s) == hash(t)


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
