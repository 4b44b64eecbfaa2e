r"""Lattice terms, identities, and the identity-file syntax.

Concrete syntax: "/\" is meet, "\/" is join; meet binds tighter, both
associate left; parentheses group; names match [A-Za-z_][A-Za-z0-9_]*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import TermSyntaxError, UnboundVariable


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Join:
    left: "Term"
    right: "Term"


Term = Union[Var, Meet, Join]


def variables(term):
    """Variable names of a term, in first-occurrence order."""
    out = []

    def walk(t):
        if isinstance(t, Var):
            if t.name not in out:
                out.append(t.name)
        else:
            walk(t.left)
            walk(t.right)

    walk(term)
    return out


def eval_term(lat, term, assignment):
    """Evaluate a term in ``lat`` under a name -> identifier assignment."""
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise UnboundVariable(f"variable {term.name!r} unbound") from None
    left = eval_term(lat, term.left, assignment)
    right = eval_term(lat, term.right, assignment)
    if isinstance(term, Meet):
        return lat.meet(left, right)
    return lat.join(left, right)


def render_term(term, _level=0):
    """Pretty-print; parse(render(t)) == t."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Meet):
        s = f"{render_term(term.left, 1)} /\\ {render_term(term.right, 2)}"
        return f"({s})" if _level >= 2 else s
    s = f"{render_term(term.left, 0)} \\/ {render_term(term.right, 1)}"
    return f"({s})" if _level >= 1 else s


_TOKEN = re.compile(r"\s*(/\\|\\/|\(|\)|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise TermSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


# Deepest parenthesis nesting and deepest operator nesting a term may have.
# Terms are walked recursively, so this keeps every walk far below Python's
# recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (node, operator depth)."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.parens = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def here(self):
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.text)

    def too_deep(self):
        return TermSyntaxError(f"term nested deeper than {MAX_DEPTH} levels", self.here())

    def combine(self, cls, left, right):
        depth = 1 + max(left[1], right[1])
        if depth > MAX_DEPTH:
            raise self.too_deep()
        return cls(left[0], right[0]), depth

    def term(self):
        node = self.factor()
        while self.peek() == "\\/":
            self.advance()
            node = self.combine(Join, node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        while self.peek() == "/\\":
            self.advance()
            node = self.combine(Meet, node, self.atom())
        return node

    def atom(self):
        tok = self.peek()
        if tok == "(":
            if self.parens == MAX_DEPTH:
                raise self.too_deep()
            self.parens += 1
            self.advance()
            node = self.term()
            if self.peek() != ")":
                raise TermSyntaxError("expected ')'", self.here())
            self.advance()
            self.parens -= 1
            return node
        if tok is None or tok in ("/\\", "\\/", ")"):
            raise TermSyntaxError("expected a variable or '('", self.here())
        self.advance()
        return Var(tok), 0


def parse_term(text):
    parser = _Parser(text)
    node, _ = parser.term()
    if parser.peek() is not None:
        raise TermSyntaxError(f"unexpected {parser.peek()!r}", parser.here())
    return node


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    name: str = ""

    def render(self):
        return f"{render_term(self.lhs)} = {render_term(self.rhs)}"


@dataclass(frozen=True)
class ClassSpec:
    """An equational class of lattices given by a list of identities."""

    identities: tuple
    name: str = ""


def parse_identity(line, name=""):
    if line.count("=") != 1:
        raise TermSyntaxError("an identity needs exactly one '='", line.find("=") + 1)
    lhs, rhs = line.split("=")
    offset = len(lhs) + 1
    try:
        right = parse_term(rhs)
    except TermSyntaxError as exc:
        raise TermSyntaxError(str(exc).rsplit(" (at", 1)[0], exc.position + offset) from None
    return Identity(parse_term(lhs), right, name)


def parse_identity_file(text, name="custom"):
    """One identity per line; '#' starts a comment; blank lines ignored."""
    identities = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        identities.append(parse_identity(line, name=f"{name}:{lineno}"))
    return ClassSpec(tuple(identities), name)


DISTRIBUTIVE = ClassSpec(
    (parse_identity(r"a /\ (b \/ c) = (a /\ b) \/ (a /\ c)", "distributive"),),
    "distributive",
)

# a <= c folded in by substituting a /\ c for a
MODULAR = ClassSpec(
    (parse_identity(r"(a /\ c) \/ (b /\ c) = ((a /\ c) \/ b) /\ c", "modular"),),
    "modular",
)

BUILTIN_CLASSES = {"distributive": DISTRIBUTIVE, "modular": MODULAR}
