"""Finite lattices: construction, validation, and order/meet/join primitives.

A lattice is stored densely: an ordered tuple of element identifiers, the
order relation as per-element bitsets, and total meet/join tables built once
at construction.  All public operations take and return identifiers; indices
are internal.  Instances are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateElement,
    EmptyGeneratorSet,
    LatticeError,
    NotALattice,
    SizeLimitExceeded,
    UnknownElement,
)


class Lattice:
    """A finite lattice on named elements.

    Use :func:`from_covers` (or the constructors in :mod:`latquot.catalog`)
    rather than building instances by hand.  ``down[i]`` and ``up[i]`` are
    bitsets of the indices below / above element ``i`` (inclusive).
    """

    __slots__ = ("elements", "_index", "down", "up", "meet_table", "join_table")

    def __init__(self, elements, down, up, meet_table, join_table, validate=True):
        self.elements = tuple(elements)
        if not self.elements:
            raise LatticeError("empty carrier is not a lattice")
        if len(set(self.elements)) != len(self.elements):
            raise DuplicateElement("duplicate element identifiers")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.down = tuple(down)
        self.up = tuple(up)
        self.meet_table = tuple(tuple(row) for row in meet_table)
        self.join_table = tuple(tuple(row) for row in join_table)
        if validate:
            self._validate()

    # -- index plumbing -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def leq_i(self, i, j):
        return bool(self.up[i] >> j & 1)

    # -- public operations (identifier-level) ---------------------------

    def leq(self, x, y):
        """True iff x <= y."""
        return self.leq_i(self.index(x), self.index(y))

    def meet(self, x, y):
        return self.elements[self.meet_table[self.index(x)][self.index(y)]]

    def join(self, x, y):
        return self.elements[self.join_table[self.index(x)][self.index(y)]]

    def bottom(self):
        return self.elements[min(range(len(self)), key=lambda i: bin(self.down[i]).count("1"))]

    def top(self):
        return self.elements[min(range(len(self)), key=lambda i: bin(self.up[i]).count("1"))]

    def covers_i(self):
        """Cover pairs (i, j) with i covered by j, sorted by index."""
        n = len(self)
        out = []
        for i in range(n):
            for j in range(n):
                if i != j and self.leq_i(i, j):
                    between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                    if between == 0:
                        out.append((i, j))
        return out

    def covers(self):
        return [(self.elements[i], self.elements[j]) for i, j in self.covers_i()]

    def interval(self, lo, hi):
        """Identifiers z with lo <= z <= hi, in carrier order."""
        i, j = self.index(lo), self.index(hi)
        band = self.up[i] & self.down[j]
        return [self.elements[k] for k in range(len(self)) if band >> k & 1]

    # -- validation -----------------------------------------------------

    def _validate(self):
        n = len(self)
        for i in range(n):
            if not (self.down[i] >> i & 1 and self.up[i] >> i & 1):
                raise LatticeError(f"order not reflexive at {self.elements[i]}")
        for i in range(n):
            for j in range(n):
                if i != j and self.leq_i(i, j) and self.leq_i(j, i):
                    raise CycleDetected(
                        f"{self.elements[i]} and {self.elements[j]} are order-equivalent"
                    )
                if self.leq_i(i, j):
                    # transitivity: everything above j is above i
                    if self.up[j] & ~self.up[i]:
                        raise LatticeError("order not transitive")
                if (self.down[i] >> j & 1) != (self.up[j] >> i & 1):
                    raise LatticeError("down/up bitsets disagree")
        for i in range(n):
            for j in range(n):
                lower = self.down[i] & self.down[j]
                m = self.meet_table[i][j]
                if not (lower >> m & 1) or self.down[m] != lower:
                    raise NotALattice(self.elements[i], self.elements[j], "meet")
                upper = self.up[i] & self.up[j]
                jn = self.join_table[i][j]
                if not (upper >> jn & 1) or self.up[jn] != upper:
                    raise NotALattice(self.elements[i], self.elements[j], "join")


def _tables_from_order(elements, down, up):
    """Compute meet/join tables from order bitsets, or raise NotALattice.

    The glb of (i, j) is the unique m with down[m] == down[i] & down[j];
    dually for lub.
    """
    n = len(elements)
    down_index = {}
    up_index = {}
    for k in range(n):
        down_index.setdefault(down[k], k)
        up_index.setdefault(up[k], k)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lower = down[i] & down[j]
            m = down_index.get(lower)
            if m is None:
                raise NotALattice(elements[i], elements[j], "meet")
            meet[i][j] = m
            upper = up[i] & up[j]
            u = up_index.get(upper)
            if u is None:
                raise NotALattice(elements[i], elements[j], "join")
            join[i][j] = u
    return meet, join


def from_covers(elements, covers):
    """Build a validated lattice from its Hasse data.

    ``covers`` is an iterable of (lower, upper) identifier pairs; the order
    is the reflexive-transitive closure of the cover relation.  Raises
    DuplicateElement, UnknownElement, CycleDetected, or NotALattice (with a
    witness pair) when the data does not describe a lattice, and
    LatticeError for an identifier the text format cannot carry: one that
    is empty or contains '<' or whitespace.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement("duplicate element identifiers")
    if not elements:
        raise LatticeError("empty carrier is not a lattice")
    for e in elements:
        if e.split() != [e] or "<" in e:
            raise LatticeError(f"identifier {e!r} is empty or contains '<' or whitespace")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        if lo not in index:
            raise UnknownElement(f"unknown element {lo!r} in cover")
        if hi not in index:
            raise UnknownElement(f"unknown element {hi!r} in cover")
        up[index[lo]] |= 1 << index[hi]
    # Warshall closure over the bitset rows
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise CycleDetected(
                    f"cycle through {elements[i]} and {elements[j]}"
                )
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[j] >> i & 1:
                down[i] |= 1 << j
    meet, join = _tables_from_order(elements, down, up)
    return Lattice(elements, down, up, meet, join, validate=False)


def _nests(name):
    """True iff the brackets ``([{`` / ``)]}`` in ``name``, counted as one kind,
    balance and every comma lies inside a bracket."""
    depth = 0
    for ch in name:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                return False
        elif ch == "," and depth == 0:
            return False
    return depth == 0


def _pair_names(names1, names2):
    """Product identifiers of all pairs, row-major; injective over all
    identifiers.

    When p and q both nest, (p, q) is named "(p,q)": split at its only
    comma outside brackets, it gives back p and q, and it nests again, so
    products of products keep this form.  Otherwise the name is
    "{len(p):p,q}": it starts with "{", so it never equals the first form,
    and the length gives back p.
    """
    nests2 = [_nests(q) for q in names2]
    out = []
    for p in names1:
        nests1 = _nests(p)
        for q, nests in zip(names2, nests2):
            out.append(f"({p},{q})" if nests1 and nests else f"{{{len(p)}:{p},{q}}}")
    return out


def product(l1, l2):
    """Direct product with componentwise order; ids are "(p,q)" strings
    (see ``_pair_names`` for factor ids with stray commas or brackets)."""
    elements = _pair_names(l1.elements, l2.elements)
    n2 = len(l2)

    def enc(i, j):
        return i * n2 + j

    n = len(l1) * n2
    down = [0] * n
    up = [0] * n
    for i1 in range(len(l1)):
        for j1 in range(n2):
            a = enc(i1, j1)
            d = u = 0
            for i2 in range(len(l1)):
                row_d = l1.down[i1] >> i2 & 1
                row_u = l1.up[i1] >> i2 & 1
                if not (row_d or row_u):
                    continue
                for j2 in range(n2):
                    if row_d and l2.down[j1] >> j2 & 1:
                        d |= 1 << enc(i2, j2)
                    if row_u and l2.up[j1] >> j2 & 1:
                        u |= 1 << enc(i2, j2)
            down[a], up[a] = d, u
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i1 in range(len(l1)):
        for j1 in range(n2):
            a = enc(i1, j1)
            for i2 in range(len(l1)):
                mrow = l1.meet_table[i1][i2]
                jrow = l1.join_table[i1][i2]
                for j2 in range(n2):
                    b = enc(i2, j2)
                    meet[a][b] = enc(mrow, l2.meet_table[j1][j2])
                    join[a][b] = enc(jrow, l2.join_table[j1][j2])
    return Lattice(elements, down, up, meet, join, validate=False)


def is_distributive(lat):
    """Exhaustive triple scan of a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c)."""
    n = len(lat)
    meet, join = lat.meet_table, lat.join_table
    for a in range(n):
        ma = meet[a]
        for b in range(n):
            ab = ma[b]
            for c in range(n):
                if ma[join[b][c]] != join[ab][ma[c]]:
                    return False
    return True


def is_modular(lat):
    """a \\/ (b /\\ c) = (a \\/ b) /\\ c for all a <= c and all b."""
    n = len(lat)
    meet, join = lat.meet_table, lat.join_table
    for a in range(n):
        for c in range(n):
            if not lat.leq_i(a, c):
                continue
            ja = join[a]
            for b in range(n):
                if ja[meet[b][c]] != meet[ja[b]][c]:
                    return False
    return True


def sublattice_closure(lat, generators: Iterable):
    """Least superset of ``generators`` closed under meet and join.

    Returns identifiers in carrier order.  Raises EmptyGeneratorSet.
    """
    idxs = {lat.index(g) for g in generators}
    if not idxs:
        raise EmptyGeneratorSet("need at least one generator")
    closed = set(idxs)
    frontier = list(idxs)
    while frontier:
        nxt = []
        for i in frontier:
            for j in closed.copy():
                for k in (lat.meet_table[i][j], lat.join_table[i][j]):
                    if k not in closed:
                        closed.add(k)
                        nxt.append(k)
        frontier = nxt
    return [lat.elements[i] for i in sorted(closed)]


def restrict(lat, members: Sequence):
    """The sublattice on ``members``, which must be meet/join closed."""
    idxs = sorted(lat.index(m) for m in members)
    pos = {old: new for new, old in enumerate(idxs)}
    for i in idxs:
        for j in idxs:
            if lat.meet_table[i][j] not in pos or lat.join_table[i][j] not in pos:
                raise LatticeError("subset is not closed under meet and join")
    n = len(idxs)
    down = [0] * n
    up = [0] * n
    for a, i in enumerate(idxs):
        for b, j in enumerate(idxs):
            if lat.leq_i(i, j):
                up[a] |= 1 << b
                down[b] |= 1 << a
    meet = [[pos[lat.meet_table[i][j]] for j in idxs] for i in idxs]
    join = [[pos[lat.join_table[i][j]] for j in idxs] for i in idxs]
    return Lattice([lat.elements[i] for i in idxs], down, up, meet, join, validate=False)


def _refine_signatures(lat, rounds=3):
    n = len(lat)
    covers = lat.covers_i()
    upper = [[] for _ in range(n)]
    lower = [[] for _ in range(n)]
    for i, j in covers:
        upper[i].append(j)
        lower[j].append(i)
    sig = [
        (bin(lat.down[i]).count("1"), bin(lat.up[i]).count("1"), len(lower[i]), len(upper[i]))
        for i in range(n)
    ]
    for _ in range(rounds):
        sig = [
            (sig[i], tuple(sorted(sig[j] for j in lower[i])), tuple(sorted(sig[j] for j in upper[i])))
            for i in range(n)
        ]
    return sig


def is_isomorphic(l1, l2, max_size=64):
    """Order-isomorphism test by backtracking with signature pruning.

    For lattices an order isomorphism is automatically a lattice
    isomorphism, so only <= is checked.  Refuses carriers above
    ``max_size`` (backtracking is exponential in the worst case).
    """
    if len(l1) != len(l2):
        return False
    if len(l1) > max_size:
        raise SizeLimitExceeded(f"isomorphism search capped at {max_size} elements")
    sig1 = _refine_signatures(l1)
    sig2 = _refine_signatures(l2)
    if sorted(sig1) != sorted(sig2):
        return False
    n = len(l1)
    candidates = [[j for j in range(n) if sig2[j] == sig1[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    mapping = [-1] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for i2 in (order[t] for t in range(k)):
                j2 = mapping[i2]
                if l1.leq_i(i, i2) != l2.leq_i(j, j2) or l1.leq_i(i2, i) != l2.leq_i(j2, j):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return extend(0)
