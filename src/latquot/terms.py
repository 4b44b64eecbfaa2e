r"""Lattice terms, identities, and the identity-file syntax.

Concrete syntax: "/\" is meet, "\/" is join; meet binds tighter, both
associate left; parentheses group; names match [A-Za-z_][A-Za-z0-9_]*.
An identity is two terms joined by one "=".  Operators and parentheses
nest to any depth: the reader is one left-to-right pass with explicit
stacks, as every walk over a term is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from operator import getitem, itemgetter

from .errors import TermSyntaxError, UnboundVariable


class _Node:
    """Equality, hashing and ``repr`` of Var, Meet and Join, by one walk with
    an explicit stack, so a term of any depth works.  The ``repr`` is the
    dataclass one, and it spells out the whole tree: two terms of one type
    are equal, and hash alike, exactly when their reprs are."""

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, Var):
                out.append(f"{type(t).__qualname__}(name={t.name!r})")
            else:
                out.append(f"{type(t).__qualname__}(left=")
                stack += ")", t.right, ", right=", t.left
        return "".join(out)

    def __eq__(self, other):
        return repr(self) == repr(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(repr(self))


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Meet(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Node):
    left: "Term"
    right: "Term"


# not typing.Union: its cache would keep these classes, and through them
# this module, alive after a re-import
Term = Var | Meet | Join


def _fold(term, leaf, node):
    """Fold a term bottom-up with an explicit stack, so any depth works:
    ``leaf(name)`` at each variable, and ``node(is_join, left, right)`` at
    each meet (``is_join`` 0) or join (1) on its operands' values.  Leaves
    are reached left to right."""
    values = []
    stack = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if isinstance(t, Var):
            values.append(leaf(t.name))
        elif expanded:
            right = values.pop()
            values.append(node(int(isinstance(t, Join)), values.pop(), right))
        else:
            stack.extend(((t, True), (t.right, False), (t.left, False)))
    return values.pop()


def variables(term):
    """Variable names of a term, in first-occurrence order."""
    names = {}
    _fold(term, names.setdefault, lambda is_join, left, right: None)
    return list(names)


def eval_term(lat, term, assignment):
    """Evaluate a term in ``lat`` under a name -> identifier assignment:
    one table lookup per operation, at that one point."""
    tables = lat.meet_table, lat.join_table

    def leaf(name):
        if name not in assignment:
            raise UnboundVariable(f"variable {name!r} unbound")
        return lat.index(assignment[name])

    return lat.elements[_fold(term, leaf, lambda is_join, a, b: tables[is_join][a][b])]


# Slot operations of a lowered term, each as its line of a generated sweep
# (``IdentitySweep``), where slot ``i`` is the local ``s<i>`` and T0, T1 are
# the meet and join tables.  A row is a meet or join table row, a vector is
# the values of a term over the innermost variable's range.
_ROW = "s{out} = T{table}[s{a}]"
_AT = "s{out} = s{a}[s{b}]"  # s{a} a row
_AT2 = "s{out} = T{table}[s{a}][s{b}]"
_MAP = "s{out} = itemgetter(*s{b})(s{a})"  # vector: row s{a} at each entry of s{b}
_ZIP = "s{out} = tuple(map(getitem, itemgetter(*s{a})(T{table}), s{b}))"  # vectors paired
_TZIP = "s{out} = tuple(map(getitem, T{table}, s{b}))"  # the innermost variable with s{b}
_FILL = "s{out} = (s{a},) * n"  # vector: s{a} at every entry


def sweep_order(identity):
    """Variables of an identity: the lhs's in order, then the rhs's new ones."""
    return variables(Meet(identity.lhs, identity.rhs))


class IdentitySweep:
    """An identity compiled for sweeping every assignment of a lattice.

    The variables are swept in ``names`` order (``sweep_order``): variable
    ``names[i]`` lives in slot ``i`` and is the loop at level ``i``, the
    first outermost.  Both sides are lowered to slot operations, each
    hoisted to the level of the deepest variable it depends on, and
    subterms are shared.  A table row ``M[x]`` is fetched once, at the
    level where ``x`` is known, and the innermost variable runs as one pass
    over its whole range, so every subterm that depends on it, and each
    side, is a vector, and a row applied to the innermost variable itself
    is just that row.  Vectors are tuples, like the table rows they are
    gathered from, so the per-element work runs in C builtins.

    The sweep holds no tables, so one compilation serves every lattice it
    is run on, given its meet and join tables as they are, without a copy.
    The last outer variable is a flat loop that runs its own and the
    innermost operations and compares the two sides' vectors; one
    ``itertools.product`` loop runs the variables above it, and all their
    operations.  So the function nests two loops for any number of
    variables, far below CPython's limit of 20 nested blocks.
    """

    def __init__(self, identity):
        self.identity = identity
        self.names = sweep_order(identity)

    @cached_property
    def _sweep(self):
        """The lowered identity as the source of one function
        ``sweep(T0, T1, n, R)``, compiled on first use and kept.  Only
        integers (slot and table numbers, ``k``) and fixed names reach the
        source, never a variable name of the identity; it runs in a fresh
        namespace that holds only the three helpers it calls."""
        k = len(self.names)
        inner = k - 1
        position = {name: i for i, name in enumerate(self.names)}
        levels = [[] for _ in range(k)]  # lines run whenever variable i takes a new value
        slots = count(k)
        nodes = {}  # (table, a, level of a, b, level of b) -> (slot, level)
        rows = {}  # (table, a) -> slot of the row table[a]

        def emit(level, op, table, a, b):
            out = next(slots)
            levels[level].append(op.format(out=out, table=table, a=a, b=b))
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

        def lower(term):
            out, level = _fold(term, lambda name: (position[name], position[name]), combine)
            return out if level == inner else emit(inner, _FILL, None, out, None)

        lhs, rhs = lower(self.identity.lhs), lower(self.identity.rhs)
        lines = ["def sweep(T0, T1, n, R):", f"    s{k - 1} = R"]
        indent = "    "
        if k > 2:
            outer = "".join(f"s{v}, " for v in range(k - 2))
            lines.append(f"    for {outer}in product(R, repeat={k - 2}):")
            indent = "        "
        for level, ops in enumerate(levels):
            if level == k - 2:
                lines.append(f"{indent}for s{level} in R:")
                indent += "    "
            lines += [indent + op for op in ops]
        point = "".join(f"s{v}, " for v in range(k - 1))
        lines += [f"{indent}if s{lhs} != s{rhs}:",
                  f"{indent}    for i in R:",
                  f"{indent}        if s{lhs}[i] != s{rhs}[i]:",
                  f"{indent}            return ({point}i,), s{lhs}[i], s{rhs}[i]"]
        namespace = {"itemgetter": itemgetter, "getitem": getitem, "product": product}
        exec(compile("\n".join(lines), "<identity sweep>", "exec"), namespace)
        return namespace["sweep"]

    def first_failure(self, lat):
        """The first assignment, in lexicographic order of the variables'
        indices, where the two sides differ, as (indices, lhs, rhs); or None.
        """
        n = len(lat)
        if n == 1:
            return None  # every identity holds in the one-element lattice
        # a tuple, as the table rows are, so a row used as a vector compares equal
        return self._sweep(lat.meet_table, lat.join_table, n, tuple(range(n)))


def render_term(term):
    """Pretty-print; parse(render(t)) == t.  An operand is parenthesised
    when it binds more loosely than its operator, or, on the right, as
    loosely: precedence is join 0, meet 1, variable 2."""
    def node(is_join, left, right):
        prec = 1 - is_join
        ltext = left[0] if left[1] >= prec else f"({left[0]})"
        rtext = right[0] if right[1] > prec else f"({right[0]})"
        return ltext + (" \\/ " if is_join else " /\\ ") + rtext, prec

    return _fold(term, lambda name: (name, 2), node)[0]


# One token per match: a name, an operator, '(', ')' or '=', any other
# character, or the end of the text, each after its blanks.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(/\\|\\/|[()=])|(\S)|\Z)")
# How tightly each pending token binds.  A token read after an operand
# applies the pending operators that bind at least as tightly as it does;
# ')', '=' and the end bind as loosely as '\/', and '(' stops them all.
_BINDS = {"(": 0, "\\/": 1, "/\\": 2}
_NODES = {"\\/": Join, "/\\": Meet}


def _read(text, sides, where=""):
    """The ``sides`` terms of ``text`` separated by '=' (1: a term, 2: an
    identity), read left to right in one pass, so any depth works.  An error
    is the first one in reading order, prefixed by ``where``."""
    operands, pending, sides_read = [], [], []  # pending: '/\', '\/' and '('
    operand = False  # the last token completed an operand
    for m in _TOKEN.finditer(text):
        name, tok, bad = m.groups()
        at = m.start(m.lastindex) if m.lastindex else m.end()
        if bad or (tok == "=" and sides == 1):
            raise TermSyntaxError(f"{where}unexpected character {bad or tok!r}", at)
        if not operand:
            if name:
                operands.append(Var(name))
                operand = True
            elif tok == "(":
                pending.append(tok)
            else:
                raise TermSyntaxError(f"{where}expected a variable or '('", at)
            continue
        if name or tok == "(":
            message = "expected ')'" if "(" in pending else f"unexpected {name or tok!r}"
            raise TermSyntaxError(where + message, at)
        binds = _BINDS.get(tok, 1)
        while pending and _BINDS[pending[-1]] >= binds:
            right = operands.pop()
            operands[-1] = _NODES[pending.pop()](operands[-1], right)
        if tok in _NODES:
            pending.append(tok)
            operand = False
        elif tok == ")":
            if not pending:
                raise TermSyntaxError(f"{where}unexpected ')'", at)
            pending.pop()
        elif pending:
            raise TermSyntaxError(f"{where}expected ')'", at)
        else:  # '=' or the end closes a side; the end must close the last one
            sides_read.append(operands.pop())
            if (tok is None) != (len(sides_read) == sides):
                raise TermSyntaxError(f"{where}an identity needs exactly one '='", at)
            if tok is None:
                return sides_read
            operand = False


def parse_term(text):
    return _read(text, 1)[0]


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
    return Identity(*_read(line, 2), name)


def parse_identity_file(text, name="custom"):
    """One identity per line; '#' starts a comment; blank lines ignored.  An
    error names its line, and its position counts from the line's start."""
    identities = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            sides = _read(line, 2, f"line {lineno}: ")
            identities.append(Identity(*sides, f"{name}:{lineno}"))
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
