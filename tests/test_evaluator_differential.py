"""The compiled identity evaluator against a naive recursive interpreter.

``satisfies`` and ``eval_term`` both run through the compiler in
``latquot.terms``; here every result is recomputed by walking the term once
per assignment, the way the evaluator worked before it was compiled.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kappa_differential import lattices

from latquot import (
    ClassSpec,
    Identity,
    Join,
    Meet,
    Var,
    chain,
    eval_term,
    kappa,
    m3,
    n5,
    parse_identity,
    parse_term,
    satisfies,
)
from latquot.terms import MAX_DEPTH, IdentitySweep

NAMES = ("x", "y", "z", "w")


def naive_eval(lat, term, env):
    """Index-level value of ``term`` under ``env`` (name -> index)."""
    if isinstance(term, Var):
        return env[term.name]
    left = naive_eval(lat, term.left, env)
    right = naive_eval(lat, term.right, env)
    table = lat.meet_table if isinstance(term, Meet) else lat.join_table
    return table[left][right]


def naive_variables(term, out):
    if isinstance(term, Var):
        if term.name not in out:
            out.append(term.name)
    else:
        naive_variables(term.left, out)
        naive_variables(term.right, out)
    return out


def naive_first_failure(lat, ident):
    """(indices, lhs, rhs) of the first failure in lexicographic order of the
    sweep order, or None."""
    names = naive_variables(ident.rhs, naive_variables(ident.lhs, []))
    for combo in itertools.product(range(len(lat)), repeat=len(names)):
        env = dict(zip(names, combo))
        left, right = naive_eval(lat, ident.lhs, env), naive_eval(lat, ident.rhs, env)
        if left != right:
            return combo, left, right
    return None


def naive_satisfies(lat, spec):
    """True, or the first failure in lexicographic order of the sweep order."""
    for ident in spec.identities:
        failure = naive_first_failure(lat, ident)
        if failure is not None:
            names = naive_variables(ident.rhs, naive_variables(ident.lhs, []))
            return ident, {v: lat.elements[i] for v, i in zip(names, failure[0])}
    return True


def terms(depth):
    leaf = st.sampled_from(NAMES).map(Var)
    if depth == 0:
        return leaf
    sub = terms(depth - 1)
    return st.one_of(leaf, st.builds(Meet, sub, sub), st.builds(Join, sub, sub))


identities = st.builds(Identity, terms(6), terms(6), st.just("random"))


@settings(max_examples=100, deadline=None)
@given(lattices(), st.lists(identities, min_size=1, max_size=2))
def test_satisfies_matches_naive_sweep(lat, idents):
    spec = ClassSpec(tuple(idents), "random")
    assert satisfies(lat, spec) == naive_satisfies(lat, spec)
    # the failing assignment and both side values, which kappa reads
    for ident in idents:
        assert IdentitySweep(ident).first_failure(lat) == naive_first_failure(lat, ident)


@settings(max_examples=100, deadline=2000)
@given(lattices(), terms(6), st.data())
def test_eval_term_matches_naive(lat, term, data):
    indices = st.integers(min_value=0, max_value=len(lat) - 1)
    env = {name: data.draw(indices) for name in NAMES}
    assignment = {name: lat.elements[i] for name, i in env.items()}
    assert eval_term(lat, term, assignment) == lat.elements[naive_eval(lat, term, env)]


def test_fixed_identities_match_naive_sweep():
    # one side free of the innermost variable, a repeated variable, x = x, two
    # vectors paired; on 1 and 2 elements, and each side by eval_term too
    for text in (r"x = x /\ (x \/ y)", r"x /\ y = y", r"y \/ x = x", r"x /\ x = x", "x = x",
                 r"(x \/ y) /\ z = y \/ (z /\ x)", r"(x /\ z) \/ (y /\ z) = z"):
        ident = parse_identity(text)
        spec = ClassSpec((ident,), text)
        names = naive_variables(ident.rhs, naive_variables(ident.lhs, []))
        for lat in (chain(1).lattice, chain(2).lattice, chain(3).lattice, m3().lattice,
                    n5().lattice):
            assert satisfies(lat, spec) == naive_satisfies(lat, spec)
            for combo in itertools.product(range(len(lat)), repeat=len(names)):
                env = dict(zip(names, combo))
                assignment = {name: lat.elements[i] for name, i in env.items()}
                for term in (ident.lhs, ident.rhs):
                    expected = lat.elements[naive_eval(lat, term, env)]
                    assert eval_term(lat, term, assignment) == expected


def test_max_depth_identity_compiles_and_evaluates():
    chained = "x" + r" /\ y \/ z" * (MAX_DEPTH // 2)
    nested = "(" * (MAX_DEPTH - 1) + r"x /\ y" + ")" * (MAX_DEPTH - 1)
    lat = n5().lattice
    for text in (chained, nested):
        term = parse_term(text)
        env = {"x": 1, "y": 2, "z": 3}
        assignment = {name: lat.elements[i] for name, i in env.items()}
        assert eval_term(lat, term, assignment) == lat.elements[naive_eval(lat, term, env)]
        spec = ClassSpec((Identity(term, Var("x")),), "deep")
        assert satisfies(lat, spec) == naive_satisfies(lat, spec)
        kappa(lat, spec)


@pytest.mark.parametrize("name", ["M", "J", "R", "n", "lambda", "__import__", "a0"])
def test_variable_names_are_not_code(name):
    lat = m3().lattice
    term = parse_term(rf"({name} \/ q) /\ {name}")
    for value in lat.elements:
        assert eval_term(lat, term, {name: value, "q": "p"}) == value
    spec = ClassSpec((parse_identity(rf"{name} \/ q = q"),), "names")
    ident, env = satisfies(lat, spec)
    assert env == {name: "p", "q": "0"}
