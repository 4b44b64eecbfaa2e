"""Reference answers computed by the benchmark's own code.

Nothing here calls the library.  Terms are nested tuples: ``"x"`` is a
variable, ``("meet", s, t)`` and ``("join", s, t)`` are the operations.
Congruences are canonical ``block_of`` tuples: entry ``i`` is the smallest
index in the block of element ``i``, the same normal form the library's
``Congruence.block_of`` uses, so the two compare with ``==``.
"""

from __future__ import annotations

import functools

from .inputs import Table

# -- identities -------------------------------------------------------------

X, Y, Z, W = "x", "y", "z", "w"


def M(s, t):
    return ("meet", s, t)


def J(s, t):
    return ("join", s, t)


# a /\ (b \/ c) = (a /\ b) \/ (a /\ c)
DISTRIBUTIVE = (M(X, J(Y, Z)), J(M(X, Y), M(X, Z)))
# (a /\ c) \/ (b /\ c) = ((a /\ c) \/ b) /\ c
MODULAR = (J(M(X, Z), M(Y, Z)), M(J(M(X, Z), Y), Z))
# x /\ (y \/ (z /\ w)) = (x /\ y) \/ (x /\ z /\ w); w = z gives distributivity,
# so this 4-variable class is the distributive class.
FOUR_VAR = (M(X, J(Y, M(Z, W))), J(M(X, Y), M(M(X, Z), W)))
FOUR_VAR_TEXT = r"x /\ (y \/ (z /\ w)) = (x /\ y) \/ (x /\ z /\ w)"


def variables(term, out=None):
    out = [] if out is None else out
    if isinstance(term, str):
        if term not in out:
            out.append(term)
    else:
        variables(term[1], out)
        variables(term[2], out)
    return out


def _expr(term):
    if isinstance(term, str):
        return "v_" + term
    table = "MT" if term[0] == "meet" else "JT"
    return f"{table}[{_expr(term[1])}][{_expr(term[2])}]"


def _compile_sweep(identity):
    """Source of a function returning every (lhs, rhs) value pair that differs."""
    lhs, rhs = identity
    names = variables(lhs)
    names += [v for v in variables(rhs) if v not in names]
    lines = ["def sweep(MT, JT, R):", "    pairs = set()"]
    indent = "    "
    for v in names:
        lines.append(f"{indent}for v_{v} in R:")
        indent += "    "
    lines.append(f"{indent}l = {_expr(lhs)}")
    lines.append(f"{indent}r = {_expr(rhs)}")
    lines.append(f"{indent}if l != r:")
    lines.append(f"{indent}    pairs.add((l, r) if l < r else (r, l))")
    lines.append("    return pairs")
    return "\n".join(lines)


@functools.cache
def _sweep(identity):
    scope = {}
    exec(_compile_sweep(identity), scope)
    return scope["sweep"]


def failing_pairs(table: Table, identity):
    """Distinct value pairs (lhs, rhs) that differ, over all assignments."""
    return _sweep(identity)(table.meet, table.join, range(len(table)))


def satisfies(table: Table, identities):
    return all(not failing_pairs(table, ident) for ident in identities)


# -- congruences ------------------------------------------------------------


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    """Merge the classes of x and y; True if they were distinct."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


def _canonical(parent):
    return tuple(_find(parent, i) for i in range(len(parent)))


def closure(table: Table, pairs):
    """Least congruence collapsing every index pair in ``pairs``."""
    n = len(table)
    parent = list(range(n))
    meet, join = table.meet, table.join
    work = list(pairs)
    while work:
        x, y = work.pop()
        if _union(parent, x, y):
            mx, my, jx, jy = meet[x], meet[y], join[x], join[y]
            for c in range(n):
                work.append((mx[c], my[c]))
                work.append((jx[c], jy[c]))
    return _canonical(parent)


def kappa(table: Table, identities):
    """Least congruence with quotient in the class: the closure of every
    value pair an identity fails on (each must be collapsed, and collapsing
    them all puts the quotient in the class)."""
    pairs = set()
    for ident in identities:
        pairs |= failing_pairs(table, ident)
    return closure(table, pairs)


def identity_congruence(n):
    return tuple(range(n))


def full_congruence(n):
    return (0,) * n


def join_partitions(a, b):
    """Transitive closure of the union of two partitions."""
    parent = list(range(len(a)))
    for block_of in (a, b):
        for i, r in enumerate(block_of):
            _union(parent, i, r)
    return _canonical(parent)


def meet_partitions(a, b):
    low = {}
    return tuple(low.setdefault((a[i], b[i]), i) for i in range(len(a)))


def refines(a, b):
    """True iff every block of ``a`` lies inside a block of ``b``."""
    return all(b[i] == b[a[i]] for i in range(len(a)))


def leq(table: Table, i, j):
    return table.meet[i][j] == i


def covers(table: Table):
    """Cover pairs (i, j), i below j, from the meet table alone."""
    n = len(table)
    out = []
    for i in range(n):
        above = [j for j in range(n) if j != i and leq(table, i, j)]
        for j in above:
            if not any(k != j and leq(table, k, j) for k in above):
                out.append((i, j))
    return out


def congruences(table: Table):
    """Con(L): all joins of the principal congruences of the covers.

    Every congruence of a finite lattice is the join of the principal
    congruences of the covers it collapses.  Sorted like the library's
    ``all_congruences``: more blocks first, then by ``block_of``.
    """
    gens = {closure(table, [pair]) for pair in covers(table)}
    seen = {identity_congruence(len(table))}
    work = list(seen)
    while work:
        theta = work.pop()
        for gen in gens:
            joined = join_partitions(theta, gen)
            if joined not in seen:
                seen.add(joined)
                work.append(joined)
    return sorted(seen, key=lambda t: (-len(set(t)), t))


def class_filter(table: Table, identities):
    """Congruences with quotient in the class: the up-set of kappa."""
    kap = kappa(table, identities)
    return [t for t in congruences(table) if refines(kap, t)]


def product_congruence(a, n_b, b):
    """theta_a x theta_b on a product whose element (i, j) is i * n_b + j."""
    return tuple(a[i] * n_b + b[j] for i in range(len(a)) for j in range(n_b))


# -- brute force, for lattices of a few elements -----------------------------


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[head] + part[k]] + part[k + 1:]
        yield [[head]] + part


def _block_of(partition, n):
    out = [0] * n
    for block in partition:
        low = min(block)
        for i in block:
            out[i] = low
    return tuple(out)


def is_compatible(table: Table, block_of):
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            if block_of[i] != block_of[j]:
                continue
            for c in range(n):
                if block_of[table.meet[i][c]] != block_of[table.meet[j][c]]:
                    return False
                if block_of[table.join[i][c]] != block_of[table.join[j][c]]:
                    return False
    return True


def brute_congruences(table: Table):
    """Every compatible set partition (exponential: a few elements only)."""
    n = len(table)
    found = {_block_of(p, n) for p in _partitions(list(range(n)))}
    return sorted((t for t in found if is_compatible(table, t)), key=lambda t: (-len(set(t)), t))


def quotient_table(table: Table, block_of) -> Table:
    """L/theta on the block representatives, named ``[rep]`` like the library."""
    reps = sorted(set(block_of))
    pos = {r: k for k, r in enumerate(reps)}
    meet = tuple(tuple(pos[block_of[table.meet[a][b]]] for b in reps) for a in reps)
    join = tuple(tuple(pos[block_of[table.join[a][b]]] for b in reps) for a in reps)
    return Table(tuple(f"[{table.names[r]}]" for r in reps), meet, join)


def brute_kappa(table: Table, identities):
    """Meet of every congruence whose quotient satisfies the identities."""
    result = full_congruence(len(table))
    for theta in brute_congruences(table):
        if satisfies(quotient_table(table, theta), identities):
            result = meet_partitions(result, theta)
    return result


# -- conversions -----------------------------------------------------------


def blocks_to_block_of(table: Table, blocks):
    """Name-level blocks (lists of names) to a canonical block_of, or None."""
    index = {name: i for i, name in enumerate(table.names)}
    out = [-1] * len(table)
    for block in blocks:
        try:
            idxs = [index[name] for name in block]
        except KeyError:
            return None
        for i in idxs:
            out[i] = min(idxs)
    return None if -1 in out else tuple(out)


def block_sizes(block_of):
    sizes = {}
    for r in block_of:
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values())
