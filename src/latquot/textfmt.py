"""Plain-text lattice files, congruence block notation, and DOT export.

Lattice file format:
    # comments and blank lines are ignored
    elements: id1 id2 ... idn
    covers: a<b c<d ...
Identifiers follow ``core.is_identifier`` (checked by ``from_covers``): no
whitespace, no '<', brackets that balance when '([{' and ')]}' are counted
as one kind, and commas only inside brackets.  Block notation splits on
the same brackets, so it carries every identifier.
"""

from __future__ import annotations

from itertools import cycle

from .core import CLOSING, OPENING, from_covers
from .errors import LatticeError


def parse_lattice_text(text):
    elements = None
    covers = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise LatticeError(f"line {lineno}: duplicate elements line")
            elements = line[len("elements:"):].split()
        elif line.startswith("covers:"):
            if covers is not None:
                raise LatticeError(f"line {lineno}: duplicate covers line")
            covers = []
            for token in line[len("covers:"):].split():
                if token.count("<") != 1:
                    raise LatticeError(f"line {lineno}: bad cover token {token!r}")
                lo, hi = token.split("<")
                covers.append((lo, hi))
        else:
            raise LatticeError(f"line {lineno}: unrecognized line {line!r}")
    if elements is None:
        raise LatticeError("missing elements line")
    return from_covers(elements, covers or [])


def dump_lattice_text(lat):
    lines = ["elements: " + " ".join(lat.elements)]
    lines.append("covers: " + " ".join(f"{a}<{b}" for a, b in lat.covers()))
    return "\n".join(lines) + "\n"


def parse_congruence_text(text):
    """Parse block notation "{a,b}{c}..." into a list of id-lists.

    Brackets ``OPENING`` / ``CLOSING`` nest, counted as one kind, as in
    ``core.is_identifier``; a block ends at the '}' that closes its '{',
    and members are split at the commas directly inside the block.
    """
    text = text.strip()
    blocks = []
    depth = 0
    for ch in text:
        if depth == 0:
            if ch != "{":
                raise LatticeError(f"expected '{{' at {ch!r}")
            depth = 1
            current = []
            member = []
            continue
        if ch in OPENING:
            depth += 1
        elif ch in CLOSING:
            depth -= 1
            if depth == 0:
                if ch != "}":
                    raise LatticeError(f"block closed by {ch!r}, not '}}'")
                current.append("".join(member))
                blocks.append(current)
                continue
        elif ch == "," and depth == 1:
            current.append("".join(member))
            member = []
            continue
        member.append(ch)
    if depth != 0:
        raise LatticeError("unbalanced braces in congruence")
    if not blocks:
        raise LatticeError("empty congruence text")
    for block in blocks:
        if any(not m for m in block):
            raise LatticeError("empty member in congruence block")
    return blocks


_PALETTE = (
    "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
    "lightpink", "aquamarine", "sandybrown", "thistle", "lightgray",
)


def _dot_quote(text):
    """``text`` as the body of a DOT quoted string: backslash and '"' escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(lat, highlight=None, name="lattice"):
    """Hasse diagram in DOT, edges drawn bottom-to-top.

    ``highlight`` is an optional Congruence: elements of the same
    nontrivial block share a color and a cluster.
    """
    lines = [f'digraph "{_dot_quote(name)}" {{', "  rankdir=BT;", "  node [shape=ellipse];"]
    node_id = {e: f"n{i}" for i, e in enumerate(lat.elements)}
    colored = {}
    if highlight is not None:
        nontrivial = [b for b in highlight.blocks() if len(b) > 1]
        for block, color in zip(nontrivial, cycle(_PALETTE)):
            for i in block:
                colored[i] = color
        for k, block in enumerate(nontrivial):
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append("    style=dashed;")
            for i in block:
                e = lat.elements[i]
                lines.append(
                    f'    {node_id[e]} [label="{_dot_quote(e)}", style=filled, '
                    f'fillcolor={colored[i]}];'
                )
            lines.append("  }")
    for i, e in enumerate(lat.elements):
        if i not in colored:
            lines.append(f'  {node_id[e]} [label="{_dot_quote(e)}"];')
    for a, b in lat.covers():
        lines.append(f"  {node_id[a]} -> {node_id[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
