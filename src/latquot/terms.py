r"""Lattice terms, identities, and the identity-file syntax.

Concrete syntax: "/\" is meet, "\/" is join; meet binds tighter, both
associate left; parentheses group; names match [A-Za-z_][A-Za-z0-9_]*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import getitem, itemgetter
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
    program = _Program([term], variables(term))
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
    """Terms lowered to a sweep of slot operations, each hoisted to the loop
    level of the deepest variable it depends on.

    ``names`` fixes the loop order: variable ``names[i]`` lives in slot
    ``i`` and is the loop at level ``i``.  Subterms are shared.  A table
    row ``M[x]`` is fetched once, at the level where ``x`` is known, and
    the innermost variable runs as one pass over its whole range, so every
    subterm that depends on it, and every output, is a vector, and a row
    applied to the innermost variable itself is just that row.

    ``levels[i]`` lists the operations run whenever variable ``i`` takes a
    new value; ``outputs`` are the slots of the lowered terms.  The program
    holds no tables, so one program serves any number of lattices.  Bound to
    a lattice (``_bind``), each operation is a closure whose per-element
    work runs in C builtins: vectors are tuples, like the table rows they
    are gathered from.
    """

    def __init__(self, terms, names):
        self.names = list(names)
        k = len(self.names)
        position = {name: i for i, name in enumerate(self.names)}
        inner = k - 1
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
            if la < lb:
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
            if level != inner:
                out = emit(inner, _FILL, None, out, None)
            self.outputs.append(out)

    def _bind(self, tables, env):
        """The operations as closures over ``tables`` and ``env``, by level.

        The tables are taken as they are, tuples of row tuples, and every
        vector is built as a tuple in C: a row gathered at a vector's
        entries by ``itemgetter``, two vectors paired by
        ``map(getitem, ...)``.  A gather of one entry returns the entry
        itself, not a 1-tuple, so the one-element lattice is left to the
        callers.
        """
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
                    env[out] = itemgetter(*env[b])(env[a])
            elif code == _ZIP:
                def op():
                    env[out] = tuple(map(getitem, itemgetter(*env[a])(rows), env[b]))
            elif code == _TZIP:
                def op():
                    env[out] = tuple(map(getitem, rows, env[b]))
            else:
                def op():
                    env[out] = (env[a],) * n
            return op

        return [[closure(*operation) for operation in ops] for ops in self.levels]

    def evaluate(self, lat, point):
        """The outputs' values (indices) with variable ``i`` at ``point[i]``:
        one pass of the innermost variable over its range, read at
        ``point[-1]``.  In the one-element lattice every term is its one
        element."""
        if len(lat) == 1:
            return [0] * len(self.outputs)
        env = list(point[:-1]) + [range(len(lat))] + [None] * (self.nslots - len(point))
        for ops in self._bind((lat.meet_table, lat.join_table), env):
            for op in ops:
                op()
        return [env[slot][point[-1]] for slot in self.outputs]


def sweep_order(identity):
    """Variables of an identity: the lhs's in order, then the rhs's new ones."""
    names = variables(identity.lhs)
    return names + [v for v in variables(identity.rhs) if v not in names]


class IdentitySweep:
    """An identity compiled for sweeping every assignment of a lattice.

    The variables are swept in ``names`` order (``sweep_order``), the first
    variable outermost.  The program is independent of the lattice, so one
    compilation serves every lattice it is run on, bound to its meet and
    join tables as they are, without a copy.  The innermost variable is a
    whole vector; the last outer one is a flat loop that runs its own and
    the innermost operations and compares the two sides' vectors; an
    odometer drives the variables above it.
    """

    def __init__(self, identity):
        self.identity = identity
        self.names = sweep_order(identity)
        self._program = _Program((identity.lhs, identity.rhs), self.names)

    def first_failure(self, lat):
        """The first assignment, in lexicographic order of the variables'
        indices, where the two sides differ, as (indices, lhs, rhs); or None.
        """
        n = len(lat)
        if n == 1:
            return None  # every identity holds in the one-element lattice
        k = len(self.names)
        env = [None] * self._program.nslots
        # a tuple, as the table rows are, so a row used as a vector compares equal
        env[k - 1] = tuple(range(n))
        *outer, inner = self._program._bind((lat.meet_table, lat.join_table), env)
        lhs, rhs = self._program.outputs

        def failure():
            left, right = env[lhs], env[rhs]
            i = next(i for i in range(n) if left[i] != right[i])
            return tuple(env[: k - 1]) + (i,), left[i], right[i]

        if not outer:
            for op in inner:
                op()
            return failure() if env[lhs] != env[rhs] else None
        last = k - 2
        ops = outer[last] + inner

        def sweep_last():
            for value in range(n):
                env[last] = value
                for op in ops:
                    op()
                if env[lhs] != env[rhs]:
                    return failure()
            return None

        if last == 0:
            return sweep_last()
        iters = [iter(range(n))] + [None] * (last - 1)
        level = 0
        while level >= 0:
            value = next(iters[level], None)
            if value is None:
                level -= 1
                continue
            env[level] = value
            for op in outer[level]:
                op()
            if level < last - 1:
                level += 1
                iters[level] = iter(range(n))
                continue
            found = sweep_last()
            if found is not None:
                return found
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

    @cached_property
    def sweeps(self):
        """Each identity compiled (``IdentitySweep``), in spec order.

        Compiled on first use and kept on the spec: ``cached_property``
        writes the instance's ``__dict__`` directly, past the frozen
        ``__setattr__``, and a compiled identity depends on the identity
        alone, which cannot change (the identities are a tuple of frozen
        ``Identity`` objects).  It is not a field, so equality, hashing and
        ``repr`` ignore it.
        """
        return tuple(IdentitySweep(ident) for ident in self.identities)


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
