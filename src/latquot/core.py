"""Finite lattices: construction, validation, and order/meet/join primitives.

A lattice is stored densely: an ordered tuple of element identifiers and
total meet/join tables of indices.  The tables are the data; the order is
derived from the meet table once, at construction, as per-element bitsets.
All public operations take and return identifiers; indices are internal.
Instances are immutable after construction.

``is_identifier`` is the one rule for element identifiers, so that the
text format and block notation can carry every one of them.
``from_covers``, and through it every lattice file, enforces it; the
constructions that derive new identifiers from old ones (``product``,
``restrict``, ``congruence.quotient``) keep them identifiers.
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

OPENING = "([{"
CLOSING = ")]}"


def is_identifier(name):
    """True iff ``name`` can identify an element: it is non-empty, has no
    whitespace and no '<', its brackets ``OPENING`` / ``CLOSING``, counted
    as one kind, balance, and every comma lies inside a bracket."""
    if name.split() != [name] or "<" in name:
        return False
    depth = 0
    for ch in name:
        if ch in OPENING:
            depth += 1
        elif ch in CLOSING:
            depth -= 1
            if depth < 0:
                return False
        elif ch == "," and depth == 0:
            return False
    return depth == 0


class Lattice:
    """A finite lattice on named elements, given by its meet and join tables.

    ``meet_table[i][j]`` and ``join_table[i][j]`` are the indices of
    ``i /\\ j`` and ``i \\/ j``.  The order is derived from the meet:
    ``i <= j`` iff ``i /\\ j == i``.  ``down[i]`` and ``up[i]`` are bitsets of
    the indices below / above element ``i`` (inclusive).  The tables are
    trusted; ``_validate`` checks the lattice axioms on them.  The
    identifiers are trusted as well: ``is_identifier`` is checked by
    ``from_covers``, not here.  Use
    :func:`from_covers` (or the constructors in :mod:`latquot.catalog`) to
    build a lattice from Hasse data.
    """

    __slots__ = ("elements", "_index", "down", "up", "meet_table", "join_table", "_day")

    def __init__(self, elements, meet_table, join_table):
        self.elements = tuple(elements)
        if not self.elements:
            raise LatticeError("empty carrier is not a lattice")
        if len(set(self.elements)) != len(self.elements):
            raise DuplicateElement("duplicate element identifiers")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.meet_table = tuple(tuple(row) for row in meet_table)
        self.join_table = tuple(tuple(row) for row in join_table)
        # row a of the meet table holds a exactly at the b above a
        n = len(self.elements)
        up = [0] * n
        down = [0] * n
        for a, row in enumerate(self.meet_table):
            for b in range(n):
                if row[b] == a:
                    up[a] |= 1 << b
                    down[b] |= 1 << a
        self.up = tuple(up)
        self.down = tuple(down)
        self._day = None

    def day(self):
        """J(L) and Day's dependency relation on it (``DayRelation``),
        built on the first call and kept."""
        if self._day is None:
            self._day = DayRelation(self)
        return self._day

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
        """Cover pairs (i, j) with i covered by j, sorted by index.

        ``j`` covers ``i`` iff ``j`` is the only member of ``i``'s strict
        up-set that lies below ``j``; the candidates ``j`` are the set bits
        of that up-set, taken in index order.
        """
        down = self.down
        out = []
        for i, up in enumerate(self.up):
            above = up & ~(1 << i)
            for j in _bits(above):
                if above & down[j] == 1 << j:
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
            if not self.up[i] >> i & 1:
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


class DayRelation:
    """The join-irreducibles of a lattice and Day's relation D on them.

    Sets of join-irreducibles are bitmasks over their positions ``t`` in
    ``joins``, the join-irreducibles in index order; ``lower[t]`` is the
    one lower cover j_* of ``j = joins[t]``.  ``below[x]`` is the set
    of join-irreducibles at or below element ``x``.  ``pred[t]`` is
    the set of D-predecessors of ``joins[t]``: i D k iff i != k and some p
    has i <= k \\/ p but not i <= k_* \\/ p (Freese, Jezek and Nation,
    *Free Lattices*, ch. 2).

    x is join-irreducible iff its strict down-set has a greatest element,
    j_*, so J(L) takes one dictionary lookup per element.  For each k, the
    i with k \\/ p above them and k_* \\/ p not are ``below[k \\/ p]``
    without ``below[k_* \\/ p]``, so D takes O(|J| n) mask operations,
    one per distinct pair (k \\/ p, k_* \\/ p).
    """

    __slots__ = ("joins", "lower", "below", "pred")

    def __init__(self, lat):
        down, up, join = lat.down, lat.up, lat.join_table
        principal = {mask: x for x, mask in enumerate(down)}
        joins, lower = [], []
        for x, mask in enumerate(down):
            star = principal.get(mask & ~(1 << x))
            if star is not None:  # the bottom's strict down-set is empty
                joins.append(x)
                lower.append(star)
        below = [0] * len(lat)
        for t, j in enumerate(joins):
            for x in _bits(up[j]):
                below[x] |= 1 << t
        pred = []
        for t, (k, star) in enumerate(zip(joins, lower)):
            mask = 0
            for hi, lo in set(zip(join[k], join[star])):
                mask |= below[hi] & ~below[lo]
            pred.append(mask & ~(1 << t))
        self.joins, self.lower = tuple(joins), tuple(lower)
        self.below, self.pred = tuple(below), tuple(pred)


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
    LatticeError for a name that is not ``is_identifier``.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement("duplicate element identifiers")
    if not elements:
        raise LatticeError("empty carrier is not a lattice")
    for e in elements:
        if not is_identifier(e):
            raise LatticeError(
                f"identifier {e!r} is empty, or has whitespace, '<', unbalanced brackets "
                "or a comma outside brackets"
            )
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
    return Lattice(elements, meet, join)


def product(l1, l2):
    """Direct product with componentwise order; ids are "(p,q)" strings.

    Split at its only comma directly inside the outer brackets, "(p,q)"
    gives back p and q, so the names are distinct; they are identifiers
    again.
    """
    elements = [f"({p},{q})" for p in l1.elements for q in l2.elements]
    n2 = len(l2)
    # (i1, j1) is index i1 * n2 + j1, so rows pair up row-major as well
    meet = [[x * n2 + y for x in r1 for y in r2] for r1 in l1.meet_table for r2 in l2.meet_table]
    join = [[x * n2 + y for x in r1 for y in r2] for r1 in l1.join_table for r2 in l2.join_table]
    return Lattice(elements, meet, join)


def _bits(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def distributive_failure(lat):
    """None if ``lat`` is distributive, else an index pair (j, r), j != r,
    that the distributive law forces together.

    A finite lattice is distributive iff every join-irreducible is
    join-prime (Birkhoff).  ``j`` is join-irreducible when its strictly
    lower elements join to an element below ``j``, and join-prime when
    ``j <= a \\/ b`` implies ``j <= a`` or ``j <= b``.  For each
    join-irreducible ``j`` in index order, ``join`` is folded over the
    elements ``x`` with ``j`` not below ``x``, in index order; if ``j`` is
    not join-prime, the join of all of them lies above ``j``, and the
    first fold ``acc \\/ x`` that does gives the failure.  The assignment
    (j, acc, x) then breaks x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z): the
    left side is ``j``, the right side ``r = (j /\\ acc) \\/ (j /\\ x)``
    joins two elements strictly below ``j``, so it lies below the join of
    everything strictly below ``j``, which is not ``j``.  O(n^2).
    """
    n = len(lat)
    meet, join, up, down = lat.meet_table, lat.join_table, lat.up, lat.down
    everything = (1 << n) - 1
    for j in range(n):
        lower = _bits(down[j] & ~(1 << j))
        acc = next(lower, None)
        if acc is None:  # the bottom
            continue
        for x in lower:
            acc = join[acc][x]
        if acc == j:  # j is the join of its lower elements
            continue
        outside = _bits(everything & ~up[j])
        acc = next(outside)  # the bottom is not above j
        for x in outside:
            joined = join[acc][x]
            if up[j] >> joined & 1:
                return j, join[meet[j][acc]][meet[j][x]]
            acc = joined
    return None


def is_distributive(lat):
    """True iff a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c) for all a, b, c;
    decided by ``distributive_failure``."""
    return distributive_failure(lat) is None


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
    meet = [[pos[lat.meet_table[i][j]] for j in idxs] for i in idxs]
    join = [[pos[lat.join_table[i][j]] for j in idxs] for i in idxs]
    return Lattice([lat.elements[i] for i in idxs], meet, join)


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
