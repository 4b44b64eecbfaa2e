"""Stock lattices: chains, Booleans, the diamond and pentagon, and the
free distributive / free modular lattices on up to three generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Lattice, from_covers, product, restrict, sublattice_closure
from .errors import UnsupportedRank
from .terms import eval_term, parse_term


@dataclass(frozen=True)
class NamedLattice:
    lattice: Lattice
    name: str
    distinguished: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, elem in self.distinguished.items():
            self.lattice.index(elem)  # raises UnknownElement on a bad entry


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1, for 1 <= n <= 256."""
    if n < 1:
        raise UnsupportedRank("a chain needs at least one element")
    if n > 256:  # the carrier of boolean-8, the largest Boolean lattice
        raise UnsupportedRank("a chain has at most 256 elements")
    elements = [str(i) for i in range(n)]
    covers = [(str(i), str(i + 1)) for i in range(n - 1)]
    return NamedLattice(from_covers(elements, covers), f"chain-{n}")


_ATOM_LETTERS = "pqrstuvw"


def boolean(n):
    """The Boolean lattice on n atoms (carrier 2^n); atoms are letters."""
    if n < 0 or n > len(_ATOM_LETTERS):
        raise UnsupportedRank(f"boolean rank must be between 0 and {len(_ATOM_LETTERS)}")

    def name(mask):
        s = "".join(_ATOM_LETTERS[i] for i in range(n) if mask >> i & 1)
        return s or "0"

    elements = [name(mask) for mask in range(1 << n)]
    covers = []
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1:
                covers.append((name(mask), name(mask | 1 << i)))
    lat = from_covers(elements, covers)
    return NamedLattice(lat, f"boolean-{n}", {_ATOM_LETTERS[i]: _ATOM_LETTERS[i] for i in range(n)})


def m3():
    """The diamond: bottom, three incomparable atoms p, q, r, top."""
    lat = from_covers(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
    )
    return NamedLattice(lat, "m3", {"p": "p", "q": "q", "r": "r"})


def n5():
    """The pentagon {0, a, b, c, 1} with b < a and c incomparable to both."""
    lat = from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "b"), ("b", "a"), ("a", "1"), ("0", "c"), ("c", "1")],
    )
    return NamedLattice(lat, "n5", {"a": "a", "b": "b", "c": "c"})


_VAR_NAMES = ("x", "y", "z")


def _monotone_functions(n):
    """Truth tables (tuples over masks 0..2^n-1) of monotone functions."""
    tables = []
    for bits in itertools.product((0, 1), repeat=1 << n):
        ok = True
        for s in range(1 << n):
            for i in range(n):
                if not s >> i & 1 and bits[s] > bits[s | 1 << i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tables.append(bits)
    return tables


def _antichain_name(table, n):
    """Name a monotone function by its minimal true-sets, e.g. "{x}{y,z}"."""
    minimal = []
    for s in range(1 << n):
        if table[s] and not any(table[s & ~(1 << i)] for i in range(n) if s >> i & 1):
            minimal.append(s)
    keys = sorted(
        (bin(s).count("1"), tuple(i for i in range(n) if s >> i & 1)) for s in minimal
    )
    return "".join("{" + ",".join(_VAR_NAMES[i] for i in members) + "}" for _, members in keys)


def free_distributive(n):
    """The free distributive lattice on n generators (n <= 3).

    Carrier: nonconstant monotone Boolean functions on n variables,
    ordered pointwise; generators are the projections.
    """
    if n < 1 or n > 3:
        raise UnsupportedRank("free distributive lattice supported for 1 <= n <= 3 only")
    tables = [t for t in _monotone_functions(n) if 0 in t and 1 in t]
    tables.sort()
    elements = [_antichain_name(t, n) for t in tables]
    size = len(tables)
    down = [0] * size
    up = [0] * size
    for a in range(size):
        for b in range(size):
            if all(x <= y for x, y in zip(tables[a], tables[b])):
                up[a] |= 1 << b
                down[b] |= 1 << a
    meet = [[0] * size for _ in range(size)]
    join = [[0] * size for _ in range(size)]
    pos = {t: i for i, t in enumerate(tables)}
    for a in range(size):
        for b in range(size):
            meet[a][b] = pos[tuple(x & y for x, y in zip(tables[a], tables[b]))]
            join[a][b] = pos[tuple(x | y for x, y in zip(tables[a], tables[b]))]
    lat = Lattice(elements, down, up, meet, join, validate=True)
    projections = {}
    for i in range(n):
        table = tuple(1 if s >> i & 1 else 0 for s in range(1 << n))
        projections[_VAR_NAMES[i]] = elements[pos[table]]
    return NamedLattice(lat, f"fd-{n}", projections)


MEDIAN_UPPER = r"(y \/ z) /\ (z \/ x) /\ (x \/ y)"
MEDIAN_LOWER = r"(y /\ z) \/ (z /\ x) \/ (x /\ y)"


def free_modular_3():
    """The free modular lattice on three generators, realized concretely.

    Built as the sublattice of fd-3 x m3 generated by (x,p), (y,q), (z,r);
    the closure has 28 elements and is modular.  Distinguished elements:
    the generators x, y, z and the median-term values u (upper) and
    v (lower), the top and bottom of the diamond interval.
    """
    fd3 = free_distributive(3)
    diamond = m3()
    ambient = product(fd3.lattice, diamond.lattice)
    gens = {
        var: f"({fd3.distinguished[var]},{atom})"
        for var, atom in zip(_VAR_NAMES, ("p", "q", "r"))
    }
    members = sublattice_closure(ambient, gens.values())
    lat = restrict(ambient, members)
    distinguished = dict(gens)
    distinguished["u"] = eval_term(lat, parse_term(MEDIAN_UPPER), gens)
    distinguished["v"] = eval_term(lat, parse_term(MEDIAN_LOWER), gens)
    return NamedLattice(lat, "fm-3", distinguished)


def free_lattice_small(n):
    """The free lattice on n generators, for the finite cases n <= 2."""
    if n == 1:
        return NamedLattice(from_covers(["x"], []), "f-1", {"x": "x"})
    if n == 2:
        lat = from_covers(
            ["x/\\y", "x", "y", "x\\/y"],
            [("x/\\y", "x"), ("x/\\y", "y"), ("x", "x\\/y"), ("y", "x\\/y")],
        )
        return NamedLattice(lat, "f-2", {"x": "x", "y": "y"})
    raise UnsupportedRank("the free lattice on 3 or more generators is infinite")


def resolve(name):
    """Catalog lookup by CLI name: chain-k, boolean-k, m3, n5, fd-k, fm-3, f-k."""
    if name == "m3":
        return m3()
    if name == "n5":
        return n5()
    if name == "fm-3":
        return free_modular_3()
    for prefix, builder in (("chain-", chain), ("boolean-", boolean),
                            ("fd-", free_distributive), ("f-", free_lattice_small)):
        if name.startswith(prefix):
            try:
                rank = int(name[len(prefix):])
            except ValueError:
                break
            return builder(rank)
    raise KeyError(f"unknown catalog lattice {name!r}")


CATALOG_NAMES = (
    "chain-1", "chain-2", "chain-3", "chain-4", "chain-5",
    "boolean-0", "boolean-1", "boolean-2", "boolean-3",
    "m3", "n5", "fd-1", "fd-2", "fd-3", "fm-3", "f-1", "f-2",
)


def standard_catalog():
    """The named lattices used throughout the test and demo suites."""
    return [resolve(name) for name in CATALOG_NAMES]
