"""Pin the CLI's outputs: the SHA-256 of (exit code, stdout, stderr) of a
fixed command matrix, run in-process, against ``cli_outputs.json``.

After a deliberate output change, regenerate the digests and review the
diff of the JSON file:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from latquot.catalog import CATALOG_NAMES
from latquot.cli import main

DIGESTS = Path(__file__).with_name("cli_outputs.json")
IDENTITIES = "IDS"  # stands for a file holding the distributive law
DISTRIBUTIVE_LAW = r"x /\ (y \/ z) = (x /\ y) \/ (x /\ z)" + "\n"

THEOREM3_PAIRS = (
    ("chain-2", "m3"), ("n5", "chain-2"), ("boolean-1", "n5"), ("m3", "chain-3"),
    # products of 40, 64 and 144 elements; the factor-wise premise checks the
    # product's join-irreducible congruences and counts 5*8 = 40, 8*8 = 64
    # and 2^11 * 2^11 congruences from the factors
    ("n5", "boolean-3"), ("boolean-3", "boolean-3"), ("chain-12", "chain-12"),
)

README = (
    "info catalog:n5",
    "delta catalog:n5",
    "kappa catalog:n5 --class modular",
    f"kappa catalog:n5 --identities {IDENTITIES}",
    "quotient catalog:n5 delta",
    "quotient catalog:n5 {0}{a,b}{c}{1}",
    "product catalog:m3 catalog:n5",
    "congruences catalog:n5",
    "check --theorem 1 catalog:boolean-2",
    "check --theorem 2 catalog:n5",
    "check --theorem 3 catalog:m3 catalog:n5",
    "dot catalog:fm-3 --highlight delta",
    "catalog list",
    "catalog dump fm-3",
)


def commands():
    """The matrix, each command as one space-separated string."""
    out = []
    for name in CATALOG_NAMES:
        src = f"catalog:{name}"
        out += [
            f"info {src}", f"info {src} --json", f"delta {src}", f"delta {src} --json",
            f"kappa {src} --class modular", f"congruences {src}", f"quotient {src} delta",
            f"dot {src} --highlight delta", f"catalog dump {name}",
            f"check --theorem 1 {src}", f"check --theorem 2 {src}",
        ]
    out += [f"check --theorem 3 catalog:{a} catalog:{b}" for a, b in THEOREM3_PAIRS]
    out += README
    return out


def digest(command, identities_path):
    argv = [identities_path if arg == IDENTITIES else arg for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest(), code, out.getvalue(), err.getvalue()


def run_matrix():
    """command -> (digest, exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "distributive.ids"
        path.write_text(DISTRIBUTIVE_LAW)
        return {command: digest(command, str(path)) for command in commands()}


def test_cli_outputs_match_the_pinned_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = run_matrix()
    assert sorted(actual) == sorted(expected), "the matrix changed: regenerate the digests"
    mismatches = []
    for command, (sha, code, out, err) in actual.items():
        if sha != expected[command]:
            mismatches.append(f"latquot {command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}")
    assert not mismatches, "\n\n".join(mismatches)


if __name__ == "__main__":
    digests = {command: result[0] for command, result in run_matrix().items()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
