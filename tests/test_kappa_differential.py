"""kappa against the brute-force kappa_oracle on random lattices.

A random lattice is an intersection-closed family of subsets of a small
ground set that contains the full set, ordered by inclusion; every finite
lattice arises this way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import (
    DISTRIBUTIVE,
    MODULAR,
    from_covers,
    is_modular,
    kappa,
    kappa_oracle,
    parse_identity_file,
)

MAX_ELEMENTS = 12
FOUR_VAR = parse_identity_file(r"x /\ (y \/ (z /\ w)) = (x /\ y) \/ (x /\ z /\ w)", "four-var")


def _meet_closure(family):
    closed = set(family)
    frontier = list(closed)
    while frontier:
        new = {a & b for a in frontier for b in closed} - closed
        closed |= new
        frontier = list(new)
    return closed


def _lattice_of(family):
    """The inclusion lattice on ``family`` (sets as bitmasks), built from covers."""
    members = sorted(family, key=lambda s: (bin(s).count("1"), s))
    covers = []
    for a in members:
        above = [b for b in members if a != b and a & b == a]
        for b in above:
            if not any(c != b and c & b == c and c & a == a for c in above):
                covers.append((a, b))
    name = {s: f"s{s:x}" for s in members}
    return from_covers([name[s] for s in members], [(name[a], name[b]) for a, b in covers])


@st.composite
def lattices(draw, max_elements=MAX_ELEMENTS):
    ground = draw(st.integers(min_value=3, max_value=5))
    full = (1 << ground) - 1
    family = {full}
    subsets = st.lists(st.integers(min_value=0, max_value=full), min_size=2, max_size=10)
    for subset in draw(subsets):
        grown = _meet_closure(family | {subset})
        if len(grown) <= max_elements:
            family = grown
    return _lattice_of(family)


def test_strategy_builds_the_pentagon():
    # {} < {1} < {1,2} < {1,2,3} and {} < {3} < {1,2,3}
    lat = _lattice_of({0b000, 0b001, 0b011, 0b100, 0b111})
    assert len(lat) == 5 and len(lat.covers()) == 5
    assert not is_modular(lat)


@settings(max_examples=60, deadline=2000)
@given(lattices())
def test_kappa_matches_oracle(lat):
    for spec in (DISTRIBUTIVE, MODULAR, FOUR_VAR):
        assert kappa(lat, spec) == kappa_oracle(lat, spec, max_size=MAX_ELEMENTS)
