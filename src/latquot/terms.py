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
    program = _Program([term], variables(term), vector=False)
    point = []
    for name in program.names:
        try:
            point.append(lat.index(assignment[name]))
        except KeyError:
            raise UnboundVariable(f"variable {name!r} unbound") from None
    return lat.elements[program.evaluate(lat, point)[0]]


# Slot operations of a lowered term.  A row is a meet or join table row,
# a vector is the values of a term over the innermost variable's range.
_ROW = "row"  # env[out] = table[env[a]]
_AT = "at"  # env[out] = env[a][env[b]], env[a] a row
_AT2 = "at2"  # env[out] = table[env[a]][env[b]]
_MAP = "map"  # vector: env[a] (a row) at each entry of vector env[b]
_ZIP = "zip"  # vector: table[x][y] for x, y paired from vectors env[a], env[b]
_TZIP = "tzip"  # vector: table[x][y] for x the innermost variable, y in env[b]
_FILL = "fill"  # vector: env[a] at every entry


class _Program:
    """Terms lowered to slot operations, each hoisted to the loop level of
    the deepest variable it depends on.

    ``names`` fixes the loop order: variable ``names[i]`` lives in slot
    ``i`` and is the loop at level ``i``.  Subterms are shared.  With
    ``vector`` set, the program is a sweep: a table row ``M[x]`` is fetched
    once, at the level where ``x`` is known, and the innermost variable
    runs as one pass over its whole range, so every subterm that depends
    on it, and every output, is a vector, and a row applied to the
    innermost variable itself is just that row.  Without it, every slot
    holds one index and the program evaluates at one point.

    ``levels[i]`` lists the operations run whenever variable ``i`` takes a
    new value; ``outputs`` are the slots of the lowered terms.  The program
    holds no tables, so one program serves any number of lattices.
    """

    def __init__(self, terms, names, vector):
        self.names = list(names)
        k = len(self.names)
        position = {name: i for i, name in enumerate(self.names)}
        inner = k - 1 if vector else None
        self.levels = [[] for _ in range(k)]
        self.nslots = k
        nodes = {}  # (table, a, level of a, b, level of b) -> (slot, level)
        rows = {}  # (table, a) -> slot of the row table[a]

        def emit(level, code, table, a, b):
            out = self.nslots
            self.nslots += 1
            self.levels[level].append((code, out, table, a, b))
            return out

        def combine(table, left, right):
            # meet and join commute: put the shallower operand first
            (a, la), (b, lb) = left, right
            if (lb, b) < (la, a):
                (a, la), (b, lb) = right, left
            key = (table, a, la, b, lb)
            if key in nodes:
                return nodes[key]
            if la < lb and vector:
                if (table, a) not in rows:
                    rows[table, a] = emit(la, _ROW, table, a, None)
                row = rows[table, a]
                if lb != inner:
                    out = emit(lb, _AT, table, row, b)
                elif b == inner:
                    out = row
                else:
                    out = emit(lb, _MAP, table, row, b)
            elif lb != inner:
                out = emit(lb, _AT2, table, a, b)
            elif a == inner:
                out = emit(lb, _TZIP, table, None, b)
            else:
                out = emit(lb, _ZIP, table, a, b)
            nodes[key] = (out, lb)
            return nodes[key]

        self.outputs = []
        for term in terms:
            # post-order walk with an explicit stack
            values = []
            stack = [(term, False)]
            while stack:
                node, expanded = stack.pop()
                if isinstance(node, Var):
                    values.append((position[node.name], position[node.name]))
                elif expanded:
                    right = values.pop()
                    left = values.pop()
                    values.append(combine(int(isinstance(node, Join)), left, right))
                else:
                    stack.extend(((node, True), (node.right, False), (node.left, False)))
            out, level = values.pop()
            if vector and level != inner:
                out = emit(inner, _FILL, None, out, None)
            self.outputs.append(out)

    def _bind(self, tables, env):
        """The operations as closures over ``tables`` and ``env``, by level."""
        n = len(tables[0])

        def closure(code, out, table, a, b):
            rows = tables[table] if table is not None else None
            if code == _ROW:
                def op():
                    env[out] = rows[env[a]]
            elif code == _AT:
                def op():
                    env[out] = env[a][env[b]]
            elif code == _AT2:
                def op():
                    env[out] = rows[env[a]][env[b]]
            elif code == _MAP:
                def op():
                    row = env[a]
                    env[out] = [row[y] for y in env[b]]
            elif code == _ZIP:
                def op():
                    env[out] = [rows[x][y] for x, y in zip(env[a], env[b])]
            elif code == _TZIP:
                def op():
                    env[out] = [row[y] for row, y in zip(rows, env[b])]
            else:
                def op():
                    env[out] = [env[a]] * n
            return op

        return [[closure(*operation) for operation in ops] for ops in self.levels]

    def evaluate(self, lat, point):
        """The outputs' values (indices) with variable ``i`` at ``point[i]``."""
        env = list(point) + [None] * (self.nslots - len(point))
        for ops in self._bind((lat.meet_table, lat.join_table), env):
            for op in ops:
                op()
        return [env[slot] for slot in self.outputs]


def sweep_order(identity):
    """Variables of an identity: the lhs's in order, then the rhs's new ones."""
    names = variables(identity.lhs)
    return names + [v for v in variables(identity.rhs) if v not in names]


class IdentitySweep:
    """An identity compiled for sweeping every assignment of a lattice.

    The variables are swept in ``names`` order (``sweep_order``), the first
    variable outermost.  The program is independent of the lattice, so one
    compilation serves every lattice it is run on.
    """

    def __init__(self, identity):
        self.identity = identity
        self.names = sweep_order(identity)
        self._program = _Program((identity.lhs, identity.rhs), self.names, vector=True)

    def first_failure(self, lat):
        """The first assignment, in lexicographic order of the variables'
        indices, where the two sides differ, as (indices, lhs, rhs); or None.
        """
        n = len(lat)
        k = len(self.names)
        env = [None] * self._program.nslots
        env[k - 1] = list(range(n))
        # list rows, so that a row used as a vector compares equal to a list
        tables = (list(map(list, lat.meet_table)), list(map(list, lat.join_table)))
        *outer, inner = self._program._bind(tables, env)
        lhs, rhs = self._program.outputs

        def innermost():
            for op in inner:
                op()
            left, right = env[lhs], env[rhs]
            if left == right:
                return None
            i = next(i for i in range(n) if left[i] != right[i])
            return tuple(env[: k - 1]) + (i,), left[i], right[i]

        if not outer:
            return innermost()
        # odometer over the outer variables, the first one outermost
        iters = [iter(range(n))] + [None] * (k - 2)
        level = 0
        while level >= 0:
            value = next(iters[level], None)
            if value is None:
                level -= 1
                continue
            env[level] = value
            for op in outer[level]:
                op()
            if level < k - 2:
                level += 1
                iters[level] = iter(range(n))
                continue
            failure = innermost()
            if failure is not None:
                return failure
        return None


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
