"""Stock lattices: chains, Booleans, the diamond and pentagon, and the
free distributive / free modular lattices on up to three generators.

The distributive ones are rings of sets (Birkhoff): ``_set_lattice`` builds
chains, Booleans, ``fd-n``, ``f-1`` and ``f-2`` from bitmasks closed under
``&`` (meet) and ``|`` (join), so no lattice test is needed.  ``m3`` and
``n5`` are built from their covers, ``fm-3`` inside ``fd-3 x m3``."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Lattice, from_covers, product, restrict, sublattice_closure
from .errors import UnknownLattice, UnsupportedRank
from .terms import eval_term, parse_term


@dataclass(frozen=True)
class NamedLattice:
    lattice: Lattice
    name: str
    distinguished: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, elem in self.distinguished.items():
            self.lattice.index(elem)  # raises UnknownElement on a bad entry


def _set_lattice(members, names):
    """The bitmasks ``members``, closed under ``&`` and ``|``, ordered by
    inclusion; ``names[i]`` names ``members[i]``."""
    pos = {m: i for i, m in enumerate(members)}
    meet = [[pos[a & b] for b in members] for a in members]
    join = [[pos[a | b] for b in members] for a in members]
    return Lattice(names, meet, join)


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1, for 1 <= n <= 256."""
    if n < 1:
        raise UnsupportedRank("a chain needs at least one element")
    if n > 256:  # the carrier of boolean-8, the largest Boolean lattice
        raise UnsupportedRank("a chain has at most 256 elements")
    lat = _set_lattice([(1 << i) - 1 for i in range(n)], [str(i) for i in range(n)])
    return NamedLattice(lat, f"chain-{n}")


_ATOM_LETTERS = "pqrstuvw"


def boolean(n):
    """The Boolean lattice on n atoms (carrier 2^n); atoms are letters."""
    if n < 0 or n > len(_ATOM_LETTERS):
        raise UnsupportedRank(f"boolean rank must be between 0 and {len(_ATOM_LETTERS)}")

    def name(mask):
        s = "".join(_ATOM_LETTERS[i] for i in range(n) if mask >> i & 1)
        return s or "0"

    masks = range(1 << n)
    lat = _set_lattice(masks, [name(mask) for mask in masks])
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


def _antichain_name(table, n):
    """Name a monotone function by its minimal true-sets, e.g. "{x}{y,z}";
    bit s of ``table`` is its value where the variables in s are true."""
    minimal = [s for s in range(1 << n) if table >> s & 1
               and not any(table >> (s & ~(1 << i)) & 1 for i in range(n) if s >> i & 1)]
    keys = sorted((bin(s).count("1"), [_VAR_NAMES[i] for i in range(n) if s >> i & 1])
                  for s in minimal)
    return "".join("{" + ",".join(names) + "}" for _, names in keys)


def free_distributive(n):
    """The free distributive lattice on n generators (n <= 3).

    Carrier: the closure of the projections under ``&`` and ``|``, that is
    the nonconstant monotone Boolean functions on n variables as truth
    tables, listed in the order of their value tuples; generators are the
    projections.
    """
    if n < 1 or n > 3:
        raise UnsupportedRank("free distributive lattice supported for 1 <= n <= 3 only")
    points = range(1 << n)
    projections = [sum(1 << s for s in points if s >> i & 1) for i in range(n)]
    tables, size = set(projections), 0
    while len(tables) != size:
        size = len(tables)
        tables |= {a & b for a in tables for b in tables} | {a | b for a in tables for b in tables}
    tables = sorted(tables, key=lambda t: [t >> s & 1 for s in points])
    elements = [_antichain_name(t, n) for t in tables]
    lat = _set_lattice(tables, elements)
    # redundant for a ring of sets; kept for perfbench's trace test, which
    # expects a Lattice._validate span from building fm-3
    lat._validate()
    distinguished = {_VAR_NAMES[i]: elements[tables.index(p)] for i, p in enumerate(projections)}
    return NamedLattice(lat, f"fd-{n}", distinguished)


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
    """The free lattice on n generators, for the finite cases 1 <= n <= 2."""
    if n < 1:
        raise UnsupportedRank("the free lattice needs at least one generator")
    if n == 1:
        return NamedLattice(_set_lattice([0], ["x"]), "f-1", {"x": "x"})
    if n == 2:  # x /\ y, x, y, x \/ y as the subsets of {x, y}
        lat = _set_lattice(range(4), ["x/\\y", "x", "y", "x\\/y"])
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
            rank = name[len(prefix):]
            if not (rank.isascii() and rank.isdigit()):
                break
            try:
                rank = int(rank)
            except ValueError:  # more digits than int() converts
                break
            return builder(rank)
    raise UnknownLattice(f"unknown catalog lattice {name!r}")


CATALOG_NAMES = (
    "chain-1", "chain-2", "chain-3", "chain-4", "chain-5",
    "boolean-0", "boolean-1", "boolean-2", "boolean-3",
    "m3", "n5", "fd-1", "fd-2", "fd-3", "fm-3", "f-1", "f-2",
)


def standard_catalog():
    """The named lattices used throughout the test and demo suites."""
    return [resolve(name) for name in CATALOG_NAMES]
