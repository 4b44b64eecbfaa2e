"""Finite lattices: construction, validation, and order/meet/join primitives.

A lattice is stored densely: an ordered tuple of element identifiers and
total meet/join tables of indices.  The tables are the data; the order is
derived from the meet table once, at construction, as per-element bitsets,
unless the builder already holds them (``from_covers``).
All public operations take and return identifiers; indices are internal.
Instances are immutable after construction.  Each order fact is decided
in one place: ``from_covers`` closes the order and finds cycles in one
topological pass, ``_tables_from_order`` is the one lattice test,
``_lower_stars`` the one lookup of J(L) and each j_*, and
``Lattice.cover_lists`` the one build of each element's covers.

``is_identifier`` is the one rule for element identifiers, so that the
text format and block notation can carry every one of them.
``from_covers``, and through it every lattice file, enforces it; the
constructions that derive new identifiers from old ones (``product``,
``restrict``, ``congruence.quotient``) keep them identifiers.
"""

from __future__ import annotations

from itertools import permutations
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
    the indices below / above element ``i`` (inclusive), derived unless a
    builder that already holds them passes them as ``_order=(down, up)``.
    Day's relation (``day``) and the cover lists (``cover_lists``) are
    built on first use and kept.  The tables are trusted, and so are given
    bitsets; ``_validate`` checks the lattice axioms on them.  The
    identifiers are trusted as well: ``is_identifier`` is checked by
    ``from_covers``, not here.  Use :func:`from_covers` (or the
    constructors in :mod:`latquot.catalog`) to build a lattice from Hasse
    data.
    """

    __slots__ = ("elements", "_index", "down", "up", "meet_table", "join_table", "_day",
                 "_covers")

    def __init__(self, elements, meet_table, join_table, *, _order=None):
        self.elements = tuple(elements)
        if not self.elements:
            raise LatticeError("empty carrier is not a lattice")
        if len(set(self.elements)) != len(self.elements):
            raise DuplicateElement("duplicate element identifiers")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.meet_table = tuple(tuple(row) for row in meet_table)
        self.join_table = tuple(tuple(row) for row in join_table)
        if _order is None:
            # row a of the meet table holds a exactly at the b above a
            n = len(self.elements)
            up, down = [0] * n, [0] * n
            for a, row in enumerate(self.meet_table):
                for b in range(n):
                    if row[b] == a:
                        up[a] |= 1 << b
                        down[b] |= 1 << a
            _order = down, up
        self.down, self.up = tuple(_order[0]), tuple(_order[1])
        self._day = self._covers = None

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

    def cover_lists(self):
        """Each element's upper covers and lower covers, as tuples of
        indices in index order, built from ``covers_i`` on the first call
        and kept."""
        if self._covers is None:
            upper, lower = [[] for _ in self.elements], [[] for _ in self.elements]
            for i, j in self.covers_i():
                upper[i].append(j)
                lower[j].append(i)
            self._covers = tuple(map(tuple, upper)), tuple(map(tuple, lower))
        return self._covers

    def covers(self):
        """Cover pairs (lower, upper) of identifiers, in ``covers_i`` order."""
        return [(self.elements[i], self.elements[j])
                for i, above in enumerate(self.cover_lists()[0]) for j in above]

    def interval(self, lo, hi):
        """Identifiers z with lo <= z <= hi, in carrier order."""
        i, j = self.index(lo), self.index(hi)
        band = self.up[i] & self.down[j]
        return [self.elements[k] for k in range(len(self)) if band >> k & 1]

    # -- validation -----------------------------------------------------

    def _validate(self):
        """Check the lattice axioms: the order is reflexive, antisymmetric
        (else CycleDetected) and transitive, and the tables equal the glb
        and lub tables that ``_tables_from_order`` derives from it (else
        NotALattice at the first pair that differs, meet before join)."""
        elements, down, up = self.elements, self.down, self.up
        for i, (below, above) in enumerate(zip(down, up)):
            if not above >> i & 1:
                raise LatticeError(f"order not reflexive at {elements[i]}")
            if below & above != 1 << i:
                j = next(_bits(below & above & ~(1 << i)))
                raise CycleDetected(f"{elements[i]} and {elements[j]} are order-equivalent")
            if any(up[j] & ~above for j in _bits(above)):
                raise LatticeError("order not transitive")
        tables = self.meet_table, self.join_table
        _first_wrong_pair(elements, tables, _tables_from_order(down, up))


class DayRelation:
    """The join-irreducibles of a lattice and Day's relation D on them.

    Sets of join-irreducibles are bitmasks over their positions ``t`` in
    ``joins``, the join-irreducibles in index order; ``lower[t]`` is the
    one lower cover j_* of ``j = joins[t]``.  ``below[x]`` is the set
    of join-irreducibles at or below element ``x``.  ``pred[t]`` is
    the set of D-predecessors of ``joins[t]``: i D k iff i != k and some p
    has i <= k \\/ p but not i <= k_* \\/ p (Freese, Jezek and Nation,
    *Free Lattices*, ch. 2).  ``sources`` is the union of ``pred``, the
    set of D's sources: the D-closed set of delta(L) (``variety.kappa``).

    J(L) and j_* are read off ``_lower_stars``.  For each k, the
    i with k \\/ p above them and k_* \\/ p not are ``below[k \\/ p]``
    without ``below[k_* \\/ p]``, so D takes O(|J| n) mask operations,
    one per distinct pair (k \\/ p, k_* \\/ p).
    """

    __slots__ = ("joins", "lower", "below", "pred", "sources")

    def __init__(self, lat):
        up, join = lat.up, lat.join_table
        stars = _lower_stars(lat)
        joins = [x for x, star in enumerate(stars) if star is not None]
        lower = [stars[j] for j in joins]
        below = [0] * len(lat)
        for t, j in enumerate(joins):
            for x in _bits(up[j]):
                below[x] |= 1 << t
        pred, sources = [], 0
        for t, (k, star) in enumerate(zip(joins, lower)):
            mask = 0
            for hi, lo in set(zip(join[k], join[star])):
                mask |= below[hi] & ~below[lo]
            mask &= ~(1 << t)
            pred.append(mask)
            sources |= mask
        self.joins, self.lower = tuple(joins), tuple(lower)
        self.below, self.pred, self.sources = tuple(below), tuple(pred), sources


def _lower_stars(lat):
    """Each element's j_*, the greatest element strictly below it, or None:
    x is join-irreducible iff its strict down-set (empty for the bottom)
    has a greatest element, one dictionary lookup per element."""
    principal = {mask: x for x, mask in enumerate(lat.down)}
    return [principal.get(mask & ~(1 << x)) for x, mask in enumerate(lat.down)]


def _tables_from_order(down, up):
    """The glb and lub tables of an antisymmetric order's bitsets: m with
    down[m] == down[i] & down[j] at (i, j), dually for the lub, or None."""
    meet_of = {mask: k for k, mask in enumerate(down)}
    join_of = {mask: k for k, mask in enumerate(up)}
    return ([tuple([meet_of.get(a & b) for b in down]) for a in down],
            [tuple([join_of.get(a & b) for b in up]) for a in up])


def _first_wrong_pair(elements, tables, derived):
    """Raise NotALattice at the first pair, row-major and meet before join,
    where the ``derived`` (meet, join) is None or differs from ``tables``."""
    for i, rows in enumerate(zip(*tables, *derived)):
        if None in rows[2] or None in rows[3] or rows[:2] != rows[2:]:
            for j, (m, jn, dm, dj) in enumerate(zip(*rows)):
                if dm is None or m != dm:
                    raise NotALattice(elements[i], elements[j], "meet")
                if dj is None or jn != dj:
                    raise NotALattice(elements[i], elements[j], "join")


def from_covers(elements, covers):
    """Build a validated lattice from its Hasse data.

    ``covers`` is an iterable of (lower, upper) identifier pairs whose
    reflexive-transitive closure is the order; ``(a, a)`` is ignored.  The
    closure takes one pass of Kahn's algorithm, O(n + |covers|) bitset ORs.
    Raises DuplicateElement, UnknownElement, CycleDetected (naming two
    elements of one cycle), or NotALattice (at the first pair in row-major
    order without a glb or lub, meet before join), and LatticeError for a
    name that is not ``is_identifier``.
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
    above = [[] for _ in range(n)]
    waiting = [0] * n  # lower covers not yet placed
    for lo, hi in covers:
        for e in (lo, hi):
            if e not in index:
                raise UnknownElement(f"unknown element {e!r} in cover")
        if lo != hi:
            above[index[lo]].append(index[hi])
            waiting[index[hi]] += 1
    # Kahn's algorithm: ``placed`` grows into a linear extension while it is
    # read, and each element's down-set is final by the time it is placed
    down = [1 << i for i in range(n)]
    placed = [i for i in range(n) if not waiting[i]]
    for i in placed:
        for j in above[i]:
            down[j] |= down[i]
            waiting[j] -= 1
            if not waiting[j]:
                placed.append(j)
    if len(placed) < n:
        # each element left has a lower cover left: |left| steps down reach a cycle
        left = set(range(n)).difference(placed)
        lower = {j: i for i in left for j in above[i] if j in left}
        x = min(left)
        for _ in left:
            x = lower[x]
        raise CycleDetected(f"cycle through {elements[x]} and {elements[lower[x]]}")
    up = [1 << i for i in range(n)]
    for i in reversed(placed):
        for j in above[i]:
            up[i] |= up[j]
    meet, join = _tables_from_order(down, up)
    _first_wrong_pair(elements, (meet, join), (meet, join))  # raises at a missing glb or lub
    return Lattice(elements, meet, join, _order=(down, up))


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
    lower elements have a greatest element (``_lower_stars``), and
    join-prime when ``j <= a \\/ b`` implies ``j <= a`` or ``j <= b``.
    For each join-irreducible ``j`` in index order, ``join`` is folded over
    the elements ``x`` with ``j`` not below ``x``, in index order; if ``j``
    is not join-prime, the join of all of them lies above ``j``, and the
    first fold ``acc \\/ x`` that does gives the failure.  The assignment
    (j, acc, x) then breaks x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z): the
    left side is ``j``, the right side ``r = (j /\\ acc) \\/ (j /\\ x)``
    joins two elements strictly below ``j``, so it lies below the join of
    everything strictly below ``j``, which is not ``j``.  O(n^2).
    """
    meet, join, up = lat.meet_table, lat.join_table, lat.up
    everything = (1 << len(lat)) - 1
    for j, star in enumerate(_lower_stars(lat)):
        if star is None:  # the bottom, or the join of its lower elements
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


def modular_failure(lat):
    """None if ``lat`` is modular, else an index triple (a, b, c) with
    a < c, a \\/ (b /\\ c) = a and (a \\/ b) /\\ c = c.

    A finite lattice is modular iff it is upper and lower semimodular
    (Birkhoff; Gratzer, *Lattice Theory: Foundation*, 2011): if a and b
    cover u, a \\/ b covers both, and dually.  So each element's ordered
    pairs of upper, then lower covers are scanned.  If a and b cover u and
    c is the element of least index strictly between a and a \\/ b, then
    u <= b /\\ c <= b, and b /\\ c != b (else a \\/ b <= c), so
    b /\\ c = u <= a.  Dually, if u covers a and b and x lies strictly
    between a /\\ b and a, then x \\/ b = u >= a, and the triple is
    (x, b, a).  O(sum of the squared cover degrees) mask operations, on
    the kept ``Lattice.cover_lists``.
    """
    upper, lower = lat.cover_lists()
    meet, join, up, down = lat.meet_table, lat.join_table, lat.up, lat.down
    for u in range(len(lat)):
        for a, b in permutations(upper[u], 2):
            between = up[a] & down[join[a][b]] & ~(1 << a | 1 << join[a][b])
            if between:
                return a, b, next(_bits(between))
        for a, b in permutations(lower[u], 2):
            between = up[meet[a][b]] & down[a] & ~(1 << a | 1 << meet[a][b])
            if between:
                return next(_bits(between)), b, a
    return None


def is_modular(lat):
    """True iff a \\/ (b /\\ c) = (a \\/ b) /\\ c for all a <= c and all b;
    decided by ``modular_failure``."""
    return modular_failure(lat) is None


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
    meet, join = [], []
    try:  # a meet or join outside the subset is not in pos
        for i in idxs:
            meet.append([pos[lat.meet_table[i][j]] for j in idxs])
            join.append([pos[lat.join_table[i][j]] for j in idxs])
    except KeyError:
        raise LatticeError("subset is not closed under meet and join") from None
    return Lattice([lat.elements[i] for i in idxs], meet, join)


_SIGNATURE_ROUNDS = 3  # refinements of each signature by its covers' signatures


def _refine_signatures(lat):
    n = len(lat)
    upper, lower = lat.cover_lists()
    sig = [
        (bin(lat.down[i]).count("1"), bin(lat.up[i]).count("1"), len(lower[i]), len(upper[i]))
        for i in range(n)
    ]
    for _ in range(_SIGNATURE_ROUNDS):
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
