"""CLI fuzz: argv drawn from a small grammar keeps the exit-code contract.

Whatever the command line, ``main`` returns 0, 1, 2 or 3, raises nothing
(``SystemExit`` included), prints no traceback, and only ``check`` returns
2, the code of a theorem-check FAIL.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from latquot import dump_lattice_text, resolve
from latquot.cli import main

# a lattice argument: a catalog name, good or bad, or one of the two files
sources = st.one_of(
    st.sampled_from(("catalog:n5", "catalog:m3", "catalog:chain-3", "catalog:boolean-2",
                     "catalog:f-2", "catalog:fd-2", "catalog:mystery", "catalog:chain-x",
                     "catalog:chain-300", "catalog:boolean-9", "/nonexistent/lattice.txt")),
    st.sampled_from(("LATTICE_FILE", "IDS_FILE")),
)
congruences = st.sampled_from(("delta", "kappa", "{0}{a,b}{c}{1}", "{0,b}{a}{c}{1}", "{0}{a", "{}"))
# each command's positionals
SHAPES = {
    "info": (sources,),
    "delta": (sources,),
    "kappa": (sources,),
    "quotient": (sources, congruences),
    "product": (sources, sources),
    "congruences": (sources,),
    "check": (st.just("--theorem"), st.sampled_from(("1", "2", "3", "4", "x")), sources, sources),
    "dot": (sources,),
    "catalog": (st.sampled_from(("list", "dump", "mystery")),
                st.sampled_from(("n5", "m3", "fm-9", "chain-300", ""))),
    "mystery": (),
}
FLAGS = (
    ("--json",), ("--max-con", "4"), ("--max-con", "-1"), ("--max-con", "x"), ("--max-con",),
    ("--max-work", "0"), ("--max-work", "124"), ("--max-work", "100000"),
    ("--class", "modular"), ("--class", "mystery"), ("--identities", "IDS_FILE"),
    ("--identities", "LATTICE_FILE"), ("--highlight", "delta"),
    ("--highlight", "{0}{a,b}{c}{1}"), ("--help",), ("-x",),
)
LATTICE_TEXTS = tuple(dump_lattice_text(resolve(name).lattice) for name in ("n5", "m3", "chain-2"))
IDENTITY_TEXTS = ("x = y\n", r"x /\ (y \/ z) = (x /\ y) \/ (x /\ z)" "\n",
                  r"x \/ (y /\ z) = (x \/ y) /\ (x \/ z)" "\n", "x = (x\n",
                  "x = " + "(" * 200 + "x" + ")" * 200 + "\n",
                  "x = " + r"x /\ (" * 3000 + "x" + ")" * 3000 + "\n", "# none\n")

# fragments of both file formats, so that random text sometimes nearly parses
FRAGMENTS = ("elements:", "covers:", "0", "a", "b", "1", "0<a", "a<1", "0<b", "b<1", "a<a",
             "1<0", "#", "\n", " ", "\u00e9", "x", "=", "y", "(", ")", "/\\", "\\/")
file_bytes = st.one_of(
    st.sampled_from(LATTICE_TEXTS + IDENTITY_TEXTS),
    st.lists(st.sampled_from(FRAGMENTS), max_size=20).map("".join),
).map(str.encode) | st.binary(max_size=40)


@st.composite
def argvs(draw):
    """A command, its positionals (the last one sometimes dropped) and up to
    two flags."""
    command = draw(st.sampled_from(sorted(SHAPES)))
    positionals = [draw(pool) for pool in SHAPES[command]]
    if positionals and draw(st.booleans()):
        positionals.pop()
    argv = [command] + positionals
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=2)):
        argv += flag
    return argv


@settings(max_examples=120, deadline=None)
@given(argvs(), file_bytes, file_bytes)
def test_main_keeps_the_exit_code_contract(argv, lattice_bytes, ids_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"LATTICE_FILE": lattice_bytes, "IDS_FILE": ids_bytes}
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as handle:
                handle.write(data)
        argv = [os.path.join(tmp, arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                raise AssertionError(f"main raised SystemExit({exc.code})") from None
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert argv[0] == "check"
