"""Seeded inputs for the benchmark, and independent lattice tables.

Random lattices come from intersection-closed families of subsets of a small
ground set that contain the full set: every such family is a lattice under
inclusion (meet is intersection, join is the least member above the union),
and every finite lattice arises this way.  The generator only produces
element names and cover pairs; the library builds and validates the lattice.

``Table`` is the benchmark's own dense form of a lattice (names, meet and
join index tables).  The reference checks in ``reference.py`` run on tables
built here from the set families, never on tables the library computed,
except for ``fd-3`` and ``fm-3``, whose tables are taken from the library
and pinned down by hand-written expectations instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    names: tuple
    meet: tuple
    join: tuple

    def __len__(self):
        return len(self.names)


def random_family(rng: random.Random, ground: int, size: int):
    """Intersection-closed family of ``size`` subsets of ``range(ground)``.

    Subsets are bitmasks.  The full set is always a member.  Random subsets
    are added together with their intersections with the members so far,
    skipping any that would overshoot ``size``.  Sorted by (cardinality,
    mask), so the least member comes first.
    """
    full = (1 << ground) - 1
    if not 1 <= size <= 1 << ground:
        raise ValueError(f"cannot draw {size} subsets of a {ground}-point set")
    family = {full}
    for _ in range(20000):
        if len(family) == size:
            break
        s = rng.randrange(full)
        new = {s} | {s & a for a in family}
        if len(family | new) <= size:
            family |= new
    if len(family) != size:
        raise ValueError(f"no family of size {size} found on {ground} points")
    return sorted(family, key=lambda m: (bin(m).count("1"), m))


def family_names(family):
    width = max(2, (max(family).bit_length() + 3) // 4)
    return [f"s{m:0{width}x}" for m in family]


def family_covers(family, names):
    """Cover pairs (lower, upper) of the family under inclusion."""
    index = {m: i for i, m in enumerate(family)}
    covers = []
    for i, a in enumerate(family):
        above = [b for b in family if b != a and a & b == a]
        for b in above:
            if not any(c != b and c & b == c for c in above):
                covers.append((names[i], names[index[b]]))
    return covers


def family_table(family, names):
    index = {m: i for i, m in enumerate(family)}
    full = max(family)
    # least member above each subset of the ground set
    least = {}
    for u in range(full + 1):
        acc = full
        for m in family:
            if m & u == u:
                acc &= m
        least[u] = acc
    meet = tuple(tuple(index[a & b] for b in family) for a in family)
    join = tuple(tuple(index[least[a | b]] for b in family) for a in family)
    return Table(tuple(names), meet, join)


def lattice_text(names, covers):
    """The library's text format: an elements line and a covers line."""
    return (
        "elements: " + " ".join(names) + "\n"
        + "covers: " + " ".join(f"{a}<{b}" for a, b in covers) + "\n"
    )


@dataclass(frozen=True)
class RandomLattice:
    """A seeded random lattice: its set family and Hasse data."""

    family: tuple
    names: tuple
    covers: tuple

    def text(self):
        return lattice_text(self.names, self.covers)

    def table(self):
        return family_table(self.family, self.names)


def random_lattice(rng: random.Random, size: int) -> RandomLattice:
    """A random lattice of exactly ``size`` elements on a 5-8 point ground set."""
    smallest = max(5, (size - 1).bit_length())
    ground = rng.randint(smallest, max(smallest, 8))
    family = random_family(rng, ground, size)
    names = family_names(family)
    return RandomLattice(tuple(family), tuple(names), tuple(family_covers(family, names)))


# -- independent tables of the stock lattices -----------------------------
#
# Each is a set family whose element names follow the catalog's naming, so a
# library lattice can be compared with it element by element.

_ATOMS = "pqrstuvw"


def chain_table(k):
    family = [(1 << i) - 1 for i in range(k)]
    return family_table(family, [str(i) for i in range(k)])


def boolean_table(k):
    family = list(range(1 << k))
    names = ["".join(_ATOMS[i] for i in range(k) if m >> i & 1) or "0" for m in family]
    return family_table(family, names)


def n5_table():
    # 0 = {}, a = {1,2}, b = {1}, c = {3}, 1 = {1,2,3}
    return family_table([0b000, 0b011, 0b001, 0b100, 0b111], ["0", "a", "b", "c", "1"])


def m3_table():
    return family_table([0b000, 0b001, 0b010, 0b100, 0b111], ["0", "p", "q", "r", "1"])


def product_table(t1: Table, t2: Table) -> Table:
    """Componentwise product; element (i, j) has index i * len(t2) + j."""
    n2 = len(t2)
    names = tuple(f"({p},{q})" for p in t1.names for q in t2.names)
    meet = tuple(
        tuple(t1.meet[i1][i2] * n2 + t2.meet[j1][j2] for i2 in range(len(t1)) for j2 in range(n2))
        for i1 in range(len(t1)) for j1 in range(n2)
    )
    join = tuple(
        tuple(t1.join[i1][i2] * n2 + t2.join[j1][j2] for i2 in range(len(t1)) for j2 in range(n2))
        for i1 in range(len(t1)) for j1 in range(n2)
    )
    return Table(names, meet, join)


def library_table(lat) -> Table:
    """A table copied from a library lattice (only for fd-3 and fm-3)."""
    return Table(tuple(lat.elements), tuple(lat.meet_table), tuple(lat.join_table))


def table_mismatch(lat, table: Table):
    """None if the library lattice equals the table element by element."""
    if tuple(lat.elements) != table.names:
        return "element lists differ"
    n = len(table)
    for i in range(n):
        mrow, jrow = lat.meet_table[i], lat.join_table[i]
        for j in range(n):
            if mrow[j] != table.meet[i][j] or jrow[j] != table.join[i][j]:
                return f"meet/join of ({table.names[i]}, {table.names[j]}) differ"
    return None
