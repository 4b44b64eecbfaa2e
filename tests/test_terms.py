import ast
import os
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latquot.terms
import latquot.textfmt
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
from latquot.terms import variables


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


def test_deep_nesting_parses():
    # the reader keeps its pending parentheses on a list, not on the call stack
    assert parse_term("(" * 10_000 + "x" + ")" * 10_000) == Var("x")
    text = "(" * 10_000 + "x" + ")" * 9_999
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert exc.value.position == len(text)
    assert str(exc.value) == f"expected ')' (at position {len(text)})"


def test_operator_chains_parse_at_any_depth():
    # operators nest without parentheses to any depth: no walk over a term recurses
    for text in ("x" + r" /\ x" * 3000, "x" + r" \/ x" * 101):
        term = parse_term(text)
        assert render_term(term) == text
        assert parse_term(render_term(term)) == term


def test_right_nested_term_round_trips_at_any_depth():
    term = Var("x")
    for level in range(3000):
        term = Meet(Var("xy"[level % 2]), term)
    text = render_term(term)
    assert text == (r"y /\ (x /\ (" * 1500)[:-1] + "x" + ")" * 2999
    parsed = parse_term(text)
    assert parsed == term and variables(parsed) == ["y", "x"]
    assert render_term(parsed) == text


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


@st.composite
def right_nested_chains(draw):
    """A right-nested chain up to 3000 operators deep, each level's operator
    and left operand drawn from a short cycle."""
    kinds = draw(st.lists(st.sampled_from([Meet, Join]), min_size=1, max_size=4))
    lefts = draw(st.lists(terms, min_size=1, max_size=3))
    term = draw(terms)
    for level in range(draw(st.integers(min_value=1, max_value=3000))):
        term = kinds[level % len(kinds)](lefts[level % len(lefts)], term)
    return term


@given(terms)
def test_render_parse_round_trip(term):
    assert parse_term(render_term(term)) == term


@settings(max_examples=30, deadline=None)
@given(right_nested_chains())
def test_deep_chains_render_parse_round_trip(term):
    assert parse_term(render_term(term)) == term


soups = st.lists(st.sampled_from(["x", "y", "(", ")", "/\\", "\\/", "=", " ", "\t"]),
                 max_size=24).map("".join)


@settings(max_examples=500)
@given(soups)
def test_token_soups_round_trip_or_fail_inside_the_text(text):
    # every input either reads back as it renders, or fails at a position in it
    for read, render in ((parse_term, render_term), (parse_identity, Identity.render)):
        try:
            parsed = read(text)
        except TermSyntaxError as exc:
            assert 0 <= exc.position <= len(text)
            assert str(exc).endswith(f" (at position {exc.position})")
        else:
            assert read(render(parsed)) == parsed


# one row or more for each error the reader raises: the first error in
# reading order, at its position in the text (in a file, in its line)
SYNTAX_ERRORS = [
    (parse_term, "a @ b", "unexpected character '@'", 2),
    (parse_term, "a = b", "unexpected character '='", 2),
    (parse_term, "", "expected a variable or '('", 0),
    (parse_term, r"a /\ ", "expected a variable or '('", 5),
    (parse_term, r"(\/ a)", "expected a variable or '('", 1),
    (parse_term, ")", "expected a variable or '('", 0),
    (parse_term, "a b", "unexpected 'b'", 2),
    (parse_term, "a (b)", "unexpected '('", 2),
    (parse_term, "(a b)", "expected ')'", 3),
    (parse_term, r"(a /\ b (c))", "expected ')'", 8),
    (parse_term, "a)", "unexpected ')'", 1),
    (parse_term, "(a", "expected ')'", 2),
    (parse_term, "a b @", "unexpected 'b'", 2),
    (parse_identity, "a b = c d", "unexpected 'b'", 2),
    (parse_identity, "(a = b", "expected ')'", 3),
    (parse_identity, "a = (b", "expected ')'", 6),
    (parse_identity, "a = = b", "expected a variable or '('", 4),
    (parse_identity, "= a", "expected a variable or '('", 0),
    (parse_identity, "a =", "expected a variable or '('", 3),
    (parse_identity, "a @ = b", "unexpected character '@'", 2),
    (parse_identity, r"a /\ b", "an identity needs exactly one '='", 6),
    (parse_identity, "a = b = c", "an identity needs exactly one '='", 6),
    (parse_identity_file, "x = x\n\n(x /\\ y = y\n", "line 3: expected ')'", 8),
    (parse_identity_file, "    x = (x\n", "line 1: expected ')'", 10),
    (parse_identity_file, "x = (x  # note\n", "line 1: expected ')'", 8),
    (parse_identity_file, "x = y\n  a = b = c", "line 2: an identity needs exactly one '='", 8),
]


@pytest.mark.parametrize("read, text, message, position", SYNTAX_ERRORS)
def test_syntax_errors_are_pinned(read, text, message, position):
    with pytest.raises(TermSyntaxError) as exc:
        read(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def call_cycles(source):
    """The functions of a module's source that reach themselves through calls
    by name: ``f()``, or ``obj.f()`` for a method ``f``."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callees = calls.setdefault(node.name, set())
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    callee = call.func
                    callees.add(getattr(callee, "id", getattr(callee, "attr", None)))
    cyclic = set()
    for start in calls:
        seen, stack = set(), list(calls[start])
        while stack:
            name = stack.pop()
            if name == start:
                cyclic.add(start)
                break
            if name in calls and name not in seen:
                seen.add(name)
                stack.extend(calls[name])
    return cyclic


def test_the_readers_of_outside_text_do_not_recurse():
    for module in (latquot.terms, latquot.textfmt):
        assert call_cycles(Path(module.__file__).read_text()) == set(), module.__name__
    # a recursive descent through methods is a cycle
    descent = "class P:\n def term(self):\n  return self.atom()\n def atom(self):\n  return P().term()\n"
    assert call_cycles(descent) == {"term", "atom"}


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


_REIMPORT = """
import gc, sys, weakref
import latquot
old_var = weakref.ref(latquot.terms.Var)
for name in [m for m in sys.modules if m == "latquot" or m.startswith("latquot.")]:
    del sys.modules[name]
import latquot
gc.collect()
print("alive" if old_var() is not None else "collected")
"""


def test_a_reimport_frees_the_earlier_term_classes():
    # typing.Union[...] is memoised in typing's cache, which would hold the
    # old classes and, through their methods' globals, the old module
    src = os.path.dirname(os.path.dirname(latquot.terms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "collected"), proc.stderr
