"""Congruences of finite lattices and quotient construction.

A congruence is stored as a canonical partition: ``block_of[i]`` is the
smallest index in the block of element ``i``.  Congruences are generated
on a ``_Partition``, the same label array plus the member list of each
block, grown in place: a merge relabels the members of the block with the
larger label, so the labels stay block minima and the closure's result
needs no relabelling pass.  ``congruence_from_blocks`` and ``cong_join``
check compatibility with meet and join; ``quotient`` trusts its
congruence and does not re-validate L/theta.

``Con(L)`` is the join-closure of the distinct congruences
``con(j_*, j)``, one for each join-irreducible ``j`` with its one lower
cover ``j_*`` (Freese, "Computing congruences efficiently", 2008).  The
closure skips a generator for a congruence theta that already collapses
its pair ``(j_*, j)``: the generator is the least congruence doing so, so
it lies below theta and their join is theta itself.
"""

from __future__ import annotations

from .core import Lattice
from .errors import (
    LatticeMismatch,
    MalformedPartition,
    NotACongruence,
    NotAboveKernel,
    SizeLimitExceeded,
)


class Congruence:
    """A meet/join-compatible partition of a lattice's carrier."""

    __slots__ = ("lattice_size", "block_of")

    def __init__(self, lattice_size, block_of):
        self.lattice_size = lattice_size
        self.block_of = tuple(block_of)

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


class _Partition:
    """A partition of the indices 0..n-1, grown in place by merging blocks.

    ``block_of[i]`` is the least index of ``i``'s block and ``members[r]``
    lists the block labelled ``r`` (empty once merged away).  A merge
    relabels the block with the larger label, so ``block_of`` stays
    canonical and is a ``Congruence``'s labelling as it stands.
    """

    __slots__ = ("block_of", "members")

    def __init__(self, n):
        self.block_of = list(range(n))
        self.members = [[i] for i in range(n)]

    def merge(self, x, y):
        """Merge the blocks of x and y, which must be distinct."""
        block_of, members = self.block_of, self.members
        keep, gone = block_of[x], block_of[y]
        if gone < keep:
            keep, gone = gone, keep
        for i in members[gone]:
            block_of[i] = keep
        members[keep] += members[gone]
        members[gone] = []


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
    for block in blocks:
        idxs = [lat.index(x) for x in block]
        if not idxs:
            raise MalformedPartition("empty block")
        rep = min(idxs)
        for i in idxs:
            if block_of[i] != -1:
                raise MalformedPartition(f"element {lat.elements[i]} appears twice")
            block_of[i] = rep
    if -1 in block_of:
        missing = lat.elements[block_of.index(-1)]
        raise MalformedPartition(f"element {missing} missing from partition")
    theta = Congruence(n, block_of)
    witness = congruence_witness(lat, theta)
    if witness is not None:
        raise NotACongruence(witness)
    return theta


def congruence_witness(lat, theta):
    """None if theta is compatible; else a witness (x, y, c, op)."""
    n = len(lat)
    for i in range(n):
        for j in range(i + 1, n):
            if not theta.same(i, j):
                continue
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


def _congruence_closure(lat, part, seed_pairs):
    """Least congruence above the partition ``part`` that merges every seed
    pair (index-level); ``part`` is extended in place.

    Worklist closure under the unary translations t -> t /\\ c and
    t -> t \\/ c; partition merging supplies symmetry and transitivity,
    and for lattices the unary translations imply full compatibility.
    Only the seed pairs and the merges they cause are translated, so
    ``part`` must already be a congruence: a fresh one, or the result of
    an earlier closure.
    """
    block_of = part.block_of
    work = []
    for a, b in seed_pairs:
        if block_of[a] != block_of[b]:
            part.merge(a, b)
            work.append((a, b))
    meet, join = lat.meet_table, lat.join_table
    while work:
        x, y = work.pop()
        for row_x, row_y in ((meet[x], meet[y]), (join[x], join[y])):
            for p, q in zip(row_x, row_y):
                if block_of[p] != block_of[q]:
                    part.merge(p, q)
                    work.append((p, q))
    return Congruence(len(lat), block_of)


def principal_congruence(lat, a, b):
    """theta(a, b): the least congruence identifying a and b."""
    return _congruence_closure(lat, _Partition(len(lat)), [(lat.index(a), lat.index(b))])


def generated_congruence(lat, pairs):
    """Least congruence containing every (a, b) identifier pair."""
    pairs = [(lat.index(a), lat.index(b)) for a, b in pairs]
    return _congruence_closure(lat, _Partition(len(lat)), pairs)


def _check_same_lattice(t1, t2):
    if t1.lattice_size != t2.lattice_size:
        raise LatticeMismatch("congruences live on different lattices")


def cong_meet(t1, t2):
    """Common refinement (intersection of the relations).  Each element is
    labelled by the least index with its pair of labels: its block's minimum."""
    _check_same_lattice(t1, t2)
    n = t1.lattice_size
    rep = {}
    block_of = [0] * n
    for i in range(n):
        key = (t1.block_of[i], t2.block_of[i])
        block_of[i] = rep.setdefault(key, i)
    return Congruence(n, block_of)


def cong_join(lat, t1, t2):
    """Least congruence above both: merge intersecting blocks to fixpoint.

    For congruences the transitive closure of the union is again a
    congruence; this is re-checked on every call rather than trusted.
    """
    _check_same_lattice(t1, t2)
    if t1.lattice_size != len(lat):
        raise LatticeMismatch("congruence is for a different lattice")
    n = t1.lattice_size
    part = _Partition(n)
    block_of = part.block_of
    for theta in (t1, t2):
        for i, r in enumerate(theta.block_of):
            if block_of[i] != block_of[r]:
                part.merge(i, r)
    joined = Congruence(n, block_of)
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
    ``j_*``), in index order of ``j``."""
    n = len(lat)
    lower = [[] for _ in range(n)]
    for i, j in lat.covers_i():
        lower[j].append(i)
    pairs = {}
    for j, below in enumerate(lower):
        if len(below) == 1:
            gen = _congruence_closure(lat, _Partition(n), [(below[0], j)])
            pairs.setdefault(gen, (below[0], j))
    return pairs


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


def all_congruences(lat, max_size=12):
    """The whole congruence lattice Con(L), enumerated exactly.

    Join-closure of ``join_irreducible_congruences``: every congruence of
    a finite lattice is the join of the principal congruences of the
    covers it collapses, and each of those is some con(j_*, j).  A
    generator is not joined to a theta that already collapses its pair
    (j_*, j): the generator is the least congruence collapsing that pair,
    so it lies below theta, and theta \\/ con(j_*, j) = theta is already
    found.  Output is sorted by (block count descending, canonical
    labeling) for determinism.
    """
    if len(lat) > max_size:
        raise SizeLimitExceeded(
            f"|L| = {len(lat)} exceeds the enumeration cap {max_size}"
        )
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

    Each element is labelled by the image of its phi-block's minimum,
    which is the least index in its block, as quotient blocks are ordered
    by their minima.
    """
    theta = qmap.theta
    if phi.lattice_size != theta.lattice_size:
        raise LatticeMismatch("congruence is for a different lattice")
    if not leq_congruence(theta, phi):
        raise NotAboveKernel("congruence does not contain the quotient kernel")
    m = len(qmap.target)
    block_of = [0] * m
    for i in range(theta.lattice_size):
        block_of[qmap.index_map[i]] = qmap.index_map[phi.block_of[i]]
    return Congruence(m, block_of)
