"""Congruences of finite lattices and quotient construction.

A congruence is stored as a canonical partition: ``block_of[i]`` is the
smallest index in the block of element ``i``.  ``Congruence`` relabels its
input so: a key per element whose equal keys make one block.  The one
builder that skips it is ``_canonical_congruence``, which wraps the labels
of ``DayRelation.labels``, the least index of each key by construction.
A congruence is computed from its D-closed set (Freese, "Computing
congruences efficiently", Algebra Universalis 59, 2008; Freese, Jezek and
Nation, *Free Lattices*, 1995, ch. 2).  A congruence theta is determined
by the set
S = {j in J(L) : j_* theta j} of join-irreducibles it collapses onto
their lower covers, and x theta y iff the join-irreducibles below x and
below y agree outside S, so the partition is one pass that keys each x
by J(x) \\ S.  The sets S that occur are exactly those closed under
D-predecessors (``core.DayRelation``): i D k makes con(i_*, i) lie below
con(k_*, k).  The congruence generated by theta and a pair (a, b) has the
D-closure of S and J(a \\/ b) \\ J(a /\\ b) as its set.  ``cong_join``
is the same closure, seeded with each element paired with its block's
minimum in either partition; for two congruences it gives the union of
their sets.  ``congruence_from_blocks`` checks its input for
compatibility with meet and join, and ``cong_join`` still re-checks its
result; ``quotient`` trusts its congruence and does not re-validate
L/theta.

When D has no edge, that is when L is distributive, every subset of J(L)
is D-closed, and ``Con(L)`` is listed as the congruences of the
2^|J(L)| subsets with no join, or refused by that length before any is
built.  Any other ``Con(L)`` is the join-closure
of the distinct congruences ``con(j_*, j)``, one for each
join-irreducible ``j`` with its one lower cover ``j_*``.  The closure
skips a generator for a congruence theta that already collapses its pair
``(j_*, j)``: the generator is the least congruence doing so, so it lies
below theta and their join is theta itself.
"""

from __future__ import annotations

from itertools import combinations

from .core import Lattice, _bits
from .errors import (
    LatticeMismatch,
    MalformedPartition,
    NotACongruence,
    NotAboveKernel,
    SizeLimitExceeded,
)


class Congruence:
    """A meet/join-compatible partition of a lattice's carrier.  Any
    hashable labels may name the blocks: each is relabelled by its least
    index."""

    __slots__ = ("lattice_size", "block_of")

    def __init__(self, lattice_size, block_of):
        least = {}
        self.lattice_size = lattice_size
        self.block_of = tuple([least.setdefault(label, i) for i, label in enumerate(block_of)])
        if len(self.block_of) != lattice_size:
            raise MalformedPartition(f"{len(self.block_of)} labels for {lattice_size} elements")

    def __eq__(self, other):
        return (
            isinstance(other, Congruence)
            and self.lattice_size == other.lattice_size
            and self.block_of == other.block_of
        )

    def __hash__(self):
        return hash((self.lattice_size, self.block_of))

    def __repr__(self):
        return f"Congruence({list(self.block_of)})"

    def same(self, i, j):
        return self.block_of[i] == self.block_of[j]

    def blocks(self):
        """Blocks as sorted index lists, ordered by minimal member."""
        by_rep = {}
        for i, r in enumerate(self.block_of):
            by_rep.setdefault(r, []).append(i)
        return [by_rep[r] for r in sorted(by_rep)]

    def num_blocks(self):
        return len(set(self.block_of))

    def render(self, lat):
        """Block notation, e.g. "{0}{a,b}{c}{1}"."""
        parts = []
        for block in self.blocks():
            parts.append("{" + ",".join(lat.elements[i] for i in block) + "}")
        return "".join(parts)


def identity_congruence(lat):
    return Congruence(len(lat), range(len(lat)))


def full_congruence(lat):
    return Congruence(len(lat), [0] * len(lat))


def congruence_from_blocks(lat, blocks):
    """Build a Congruence from id-level blocks, checking compatibility.

    Raises MalformedPartition if the blocks do not partition the carrier,
    NotACongruence (with witness) if the partition is incompatible.
    """
    n = len(lat)
    block_of = [-1] * n
    for k, block in enumerate(blocks):
        idxs = [lat.index(x) for x in block]
        if not idxs:
            raise MalformedPartition("empty block")
        for i in idxs:
            if block_of[i] != -1:
                raise MalformedPartition(f"element {lat.elements[i]} appears twice")
            block_of[i] = k
    if -1 in block_of:
        missing = lat.elements[block_of.index(-1)]
        raise MalformedPartition(f"element {missing} missing from partition")
    theta = Congruence(n, block_of)
    witness = congruence_witness(lat, theta)
    if witness is not None:
        raise NotACongruence(witness)
    return theta


def congruence_witness(lat, theta):
    """None if theta is compatible; else a witness (x, y, c, op).

    It tests the C(|B|, 2) pairs of each block B against every c, blocks in
    order of their minima, and returns the witness a scan of all pairs
    i < j in index order would: the first separated pair of either scan
    starts at its block's minimum m, since a c that separates i and j also
    separates m from i or from j.
    """
    n = len(lat)
    for block in theta.blocks():
        for i, j in combinations(block, 2):
            for c in range(n):
                if not theta.same(lat.meet_table[i][c], lat.meet_table[j][c]):
                    return (lat.elements[i], lat.elements[j], lat.elements[c], "meet")
                if not theta.same(lat.join_table[i][c], lat.join_table[j][c]):
                    return (lat.elements[i], lat.elements[j], lat.elements[c], "join")
    return None


def is_congruence(lat, blocks):
    """True, or the witness (x, y, c, op), for id-level ``blocks``."""
    try:
        congruence_from_blocks(lat, blocks)
        return True
    except NotACongruence as exc:
        return exc.witness


def _congruence_closure(lat, closed, pairs):
    """The D-closed set of the least congruence above the one of
    ``closed`` (a D-closed set) that collapses every index pair in
    ``pairs``.

    The pair (a, b) collapses exactly the join-irreducibles in
    J(a \\/ b) \\ J(a /\\ b): such a j is j /\\ (a \\/ b), congruent to
    j /\\ (a /\\ b) <= j_*, and once they are collapsed a /\\ b and
    a \\/ b have the same key.  Each round adds the D-predecessors of the
    join-irreducibles added in the round before.
    """
    day = lat.day()
    below, pred = day.below, day.pred
    meet, join = lat.meet_table, lat.join_table
    new = 0
    for a, b in pairs:
        new |= below[join[a][b]] & ~below[meet[a][b]]
    new &= ~closed
    while new:
        closed |= new
        grown = 0
        for t in _bits(new):
            grown |= pred[t]
        new = grown & ~closed
    return closed


def _canonical_congruence(labels):
    """A new Congruence holding the tuple ``labels``, which must already be
    canonical (each the least index of its block), so that it skips the
    relabelling pass that ``Congruence(n, labels)`` gives every other
    input.  Congruences are immutable, so the tuple may be shared."""
    theta = object.__new__(Congruence)
    theta.lattice_size = len(labels)
    theta.block_of = labels
    return theta


def _mask_congruence(lat, closed):
    """The congruence of the D-closed set ``closed``: x and y share a block
    iff the join-irreducibles below them agree outside ``closed``, labelled
    in one pass by ``DayRelation.labels``."""
    return _canonical_congruence(lat.day().labels(closed))


def _closed_set(lat, theta):
    """The D-closed set of ``theta``: the positions of the join-irreducibles
    j with j_* theta j."""
    day, block_of = lat.day(), theta.block_of
    closed = 0
    for t, (j, star) in enumerate(zip(day.joins, day.lower)):
        if block_of[j] == block_of[star]:
            closed |= 1 << t
    return closed


def principal_generator(lat, theta):
    """The first pair (a, b) in index order with theta(a, b) == theta, or
    None; congruences are compared by their D-closed sets."""
    closed = _closed_set(lat, theta)
    n = len(lat)
    for i in range(n):
        for j in range(i, n):
            if theta.same(i, j) and _congruence_closure(lat, 0, [(i, j)]) == closed:
                return (lat.elements[i], lat.elements[j])
    return None


def principal_congruence(lat, a, b):
    """theta(a, b): the least congruence identifying a and b."""
    return generated_congruence(lat, [(a, b)])


def generated_congruence(lat, pairs):
    """Least congruence containing every (a, b) identifier pair."""
    pairs = [(lat.index(a), lat.index(b)) for a, b in pairs]
    return _mask_congruence(lat, _congruence_closure(lat, 0, pairs))


def _check_same_lattice(t1, t2):
    if t1.lattice_size != t2.lattice_size:
        raise LatticeMismatch("congruences live on different lattices")


def cong_meet(t1, t2):
    """Common refinement (intersection of the relations): each element is
    keyed by its pair of labels."""
    _check_same_lattice(t1, t2)
    return Congruence(t1.lattice_size, zip(t1.block_of, t2.block_of))


def cong_join(lat, t1, t2):
    """Least congruence above both partitions, congruences or not: the
    D-closure of the join-irreducibles either one collapses, read from each
    element paired with its block's minimum.
    """
    _check_same_lattice(t1, t2)
    if t1.lattice_size != len(lat):
        raise LatticeMismatch("congruence is for a different lattice")
    pairs = [(i, r) for theta in (t1, t2) for i, r in enumerate(theta.block_of) if i != r]
    joined = _mask_congruence(lat, _congruence_closure(lat, 0, pairs))
    # always None; the O(n^3) re-check goes once the benchmark's Record bounds
    # its memory (ROADMAP item 2)
    witness = congruence_witness(lat, joined)
    if witness is not None:
        raise NotACongruence(witness)
    return joined


def leq_congruence(t1, t2):
    """True iff t1 refines t2 (every t1-block lies inside a t2-block)."""
    _check_same_lattice(t1, t2)
    seen = {}
    for i in range(t1.lattice_size):
        r = seen.setdefault(t1.block_of[i], t2.block_of[i])
        if r != t2.block_of[i]:
            return False
    return True


def _generator_pairs(lat):
    """Each distinct con(j_*, j) mapped to the pair (j_*, j) of its least
    join-irreducible ``j`` (an element with exactly one lower cover
    ``j_*``), in index order of ``j``.  The pair collapses j alone, so
    the generator's D-closed set is the D-closure of {j}."""
    day = lat.day()
    pairs = {}
    for pair in zip(day.lower, day.joins):
        pairs.setdefault(_congruence_closure(lat, 0, [pair]), pair)
    return {_mask_congruence(lat, closed): pair for closed, pair in pairs.items()}


def join_irreducible_congruences(lat):
    """The distinct congruences con(j_*, j), one for each join-irreducible
    ``j`` (an element with exactly one lower cover ``j_*``), in index
    order of ``j`` with repeats dropped.

    They are the distinct principal congruences of the cover pairs: for a
    cover a < b and a minimal j <= b not below a, every element strictly
    below j lies below a, so j is join-irreducible with j_* <= a, and then
    j \\/ a = b and j /\\ a = j_*, whence con(a, b) = con(j_*, j).
    """
    return list(_generator_pairs(lat))


def all_congruences(lat, max_size=12, max_count=None):
    """The whole congruence lattice Con(L), enumerated exactly.

    When Day's relation D has no edge (``day.sources == 0``), L is
    distributive and Con(L) is the Boolean lattice of all subsets S of
    J(L): each S is D-closed, so theta_S is a congruence, and
    S = {j : j_* theta_S j} recovers S, so the 2^|J(L)| congruences are
    distinct, and every congruence is some theta_S.  D has no edge exactly
    when L is distributive, that is, when every join-irreducible is
    join-prime.  A join-prime j has no D-successor: j <= k \\/ p gives
    j <= p or j < k, and either way j <= k_* \\/ p.  A join-irreducible
    j <= a \\/ b below neither a nor b is a D-source: of the k in J(a) and
    p >= b with j <= k \\/ p and j not <= p, a minimal k has j not
    <= k_* \\/ p, and k != j since k <= a.

    Every other Con(L) is the join-closure of
    ``join_irreducible_congruences``: every congruence of a finite lattice
    is the join of the principal congruences of the covers it collapses,
    and each of those is some con(j_*, j).  A generator is not joined to a
    theta that already collapses its pair (j_*, j): the generator is the
    least congruence collapsing that pair, so it lies below theta, and
    theta \\/ con(j_*, j) = theta is already found.  Output is sorted by
    (block count descending, canonical labeling) for determinism.

    SizeLimitExceeded is raised when |L| exceeds ``max_size``, or when
    |Con L| exceeds ``max_count`` (None: no cap).  A distributive Con(L) is
    refused by its length 2^|J(L)| before any congruence is built; the join
    closure is refused once it has found one congruence more than the cap.
    """
    if len(lat) > max_size:
        raise SizeLimitExceeded(
            f"|L| = {len(lat)} exceeds the enumeration cap {max_size}"
        )
    day = lat.day()
    if day.sources == 0:
        count = 1 << len(day.joins)
        if max_count is not None and count > max_count:
            raise SizeLimitExceeded(f"|Con L| = {count} exceeds the count cap {max_count}")
        seen = [_mask_congruence(lat, s) for s in range(count)]
    else:
        generators = _generator_pairs(lat).items()
        seen = {identity_congruence(lat)}
        work = list(seen)
        while work:
            theta = work.pop()
            block_of = theta.block_of
            for gen, (lo, j) in generators:
                if block_of[lo] == block_of[j]:
                    continue
                merged = cong_join(lat, theta, gen)
                if merged not in seen:
                    seen.add(merged)
                    if max_count is not None and len(seen) > max_count:
                        raise SizeLimitExceeded(
                            f"|Con L| exceeds the count cap {max_count}")
                    work.append(merged)
    return sorted(seen, key=lambda t: (-t.num_blocks(), t.block_of))


class QuotientMap:
    """The canonical surjection L -> L/theta.

    ``target`` is the quotient lattice; its element ids are
    "[m]" where m is the block's minimal source element.
    """

    __slots__ = ("source", "theta", "target", "index_map")

    def __init__(self, source, theta, target, index_map):
        self.source = source
        self.theta = theta
        self.target = target
        self.index_map = tuple(index_map)

    def apply(self, x):
        return self.target.elements[self.index_map[self.source.index(x)]]


def quotient(lat, theta):
    """Quotient lattice with meet/join induced via block representatives.

    ``theta`` must be a congruence; L/theta is then a lattice, so the
    target is not re-validated (nor would ``_validate`` catch a bad theta).
    """
    if theta.lattice_size != len(lat):
        raise LatticeMismatch("congruence is for a different lattice")
    blocks = theta.blocks()
    reps = [b[0] for b in blocks]
    pos = {r: k for k, r in enumerate(reps)}
    index_map = [pos[theta.block_of[i]] for i in range(len(lat))]
    elements = [f"[{lat.elements[r]}]" for r in reps]
    meet = [[index_map[lat.meet_table[ra][rb]] for rb in reps] for ra in reps]
    join = [[index_map[lat.join_table[ra][rb]] for rb in reps] for ra in reps]
    target = Lattice(elements, meet, join)
    return QuotientMap(lat, theta, target, index_map)


def push_congruence(qmap, phi):
    """The congruence phi/theta on L/theta, for theta <= phi.

    Each element is labelled by phi's label of the elements that map to it.
    """
    theta = qmap.theta
    if phi.lattice_size != theta.lattice_size:
        raise LatticeMismatch("congruence is for a different lattice")
    if not leq_congruence(theta, phi):
        raise NotAboveKernel("congruence does not contain the quotient kernel")
    block_of = [0] * len(qmap.target)
    for image, label in zip(qmap.index_map, phi.block_of):
        block_of[image] = label
    return Congruence(len(block_of), block_of)
