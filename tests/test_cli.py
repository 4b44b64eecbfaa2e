import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import latquot
from latquot import dump_lattice_text, parse_lattice_text, resolve
from latquot.catalog import CATALOG_NAMES
from latquot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_pentagon(capsys):
    code, out, _ = run(capsys, "info", "catalog:n5")
    assert code == 0
    assert "size=5" in out
    assert "distributive=no" in out
    assert "modular=no" in out
    assert "|Con|=5" in out


def test_info_diamond_and_singleton(capsys):
    _, out, _ = run(capsys, "info", "catalog:m3")
    assert "|Con|=2" in out
    _, out, _ = run(capsys, "info", "catalog:chain-1")
    assert "size=1" in out and "distributive=yes" in out


def test_info_builds_the_cover_pairs_once(capsys, monkeypatch):
    calls = []
    covers_i = latquot.core.Lattice.covers_i
    monkeypatch.setattr(latquot.core.Lattice, "covers_i",
                        lambda lat: calls.append(lat) or covers_i(lat))
    for name, line in (("n5", "size=5 covers=5 distributive=no modular=no |Con|=5"),
                       ("boolean-3", "size=8 covers=12 distributive=yes modular=yes |Con|=8")):
        calls.clear()
        assert run(capsys, "info", f"catalog:{name}") == (0, line + "\n", "")
        assert len(calls) == 1


def test_dot_and_dump_build_the_cover_pairs_once(capsys, monkeypatch):
    calls = []
    covers_i = latquot.core.Lattice.covers_i
    monkeypatch.setattr(latquot.core.Lattice, "covers_i",
                        lambda lat: calls.append(lat) or covers_i(lat))
    for argv in (["dot", "catalog:n5"], ["dot", "catalog:n5", "--highlight", "delta"],
                 ["catalog", "dump", "m3"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


def test_the_cli_imports_no_private_name():
    tree = ast.parse(Path(latquot.cli.__file__).read_text(encoding="utf-8"))
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names for name in (alias.name, alias.asname or "")]
    assert "kappa" in names
    assert [name for name in names if name.rpartition(".")[2].startswith("_")] == []


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "catalog:n5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "size": 5,
        "covers": 5,
        "distributive": False,
        "modular": False,
        "con_size": 5,
    }


def test_delta_pentagon(capsys):
    code, out, _ = run(capsys, "delta", "catalog:n5")
    assert code == 0
    assert "kappa={0}{a,b}{c}{1}" in out
    assert "quotient_size=4" in out
    assert "principal=(a,b)" in out


def test_delta_boolean(capsys):
    _, out, _ = run(capsys, "delta", "catalog:boolean-3")
    assert "quotient_size=8" in out


def test_delta_fm3(capsys):
    code, out, _ = run(capsys, "delta", "catalog:fm-3", "--json")
    payload = json.loads(out)
    assert payload["quotient_size"] == 18
    assert payload["principal"] is not None


def test_kappa_modular(capsys):
    code, out, _ = run(capsys, "kappa", "catalog:n5", "--class", "modular")
    assert code == 0
    assert "kappa={0}{a,b}{c}{1}" in out


def test_kappa_identities_file(capsys, tmp_path):
    path = tmp_path / "crush.ids"
    path.write_text("x = y\n")
    code, out, _ = run(capsys, "kappa", "catalog:n5", "--identities", str(path))
    assert code == 0
    assert "quotient_size=1" in out
    assert "singleton" in out


# Huhn's 3-distributive law: 5 variables, and M3 and N5 satisfy it, so its
# class is not the distributive one and kappa sweeps
THREE_DISTRIBUTIVE = (r"v /\ (w \/ x \/ y \/ z) = (v /\ (x \/ y \/ z)) \/ (v /\ (w \/ y \/ z))"
                      r" \/ (v /\ (w \/ x \/ z)) \/ (v /\ (w \/ x \/ y))")


def test_kappa_work_cap_exit_code(capsys, tmp_path):
    # 28^5 ~ 17.2M assignments: refused before the sweep, not after minutes
    path = tmp_path / "five.ids"
    path.write_text(THREE_DISTRIBUTIVE + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "kappa", "catalog:fm-3", "--identities", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "size limit" in err and "17210368" in err


def test_a_wide_identity_is_refused_before_it_is_classified(capsys, tmp_path):
    # an absorption law in 15 variables holds in M3, so classifying it would
    # sweep 5^15 assignments of M3; its 2^15 + 2 * 5^15 exceed the cap, and
    # 28^15 for the sweep of fm-3 is refused at once
    path = tmp_path / "wide.ids"
    variables = [f"x{i}" for i in range(1, 16)]
    path.write_text(r"x1 /\ (" + r" \/ ".join(variables) + ") = x1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "kappa", "catalog:fm-3", "--identities", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert f"identity sweep of {28 ** 15} assignments" in err


def test_max_work_flag(capsys):
    # one 3-variable identity on n5 sweeps 5^3 = 125 assignments
    code, _, err = run(capsys, "delta", "catalog:n5", "--class", "modular", "--max-work", "124")
    assert code == 3
    assert "work cap 124" in err
    code, out, _ = run(capsys, "delta", "catalog:n5", "--class", "modular", "--max-work", "125")
    assert code == 0
    assert "kappa={0}{a,b}{c}{1}" in out
    # check charges the sweep, whatever the class
    for argv in (["quotient", "catalog:n5", "delta", "--class", "modular"],
                 ["dot", "catalog:n5", "--highlight", "delta", "--class", "modular"],
                 ["check", "--theorem", "2", "catalog:n5"]):
        code, _, _ = run(capsys, *argv, "--max-work", "124")
        assert code == 3, argv
    # theorem 3 charges kappa of the 25-element product as kappa does:
    # Day's relation, 25^2 = 625, for the distributive class ...
    theorem3 = ("check", "--theorem", "3", "catalog:m3", "catalog:n5")
    code, _, err = run(capsys, *theorem3, "--max-work", "624")
    assert code == 3
    assert "Day relation over 625 element pairs exceeds the work cap 624" in err
    code, _, _ = run(capsys, *theorem3, "--max-work", "625")
    assert code == 0
    # ... and the sweep, 25^3 = 15625, for the modular class
    code, _, err = run(capsys, *theorem3, "--class", "modular", "--max-work", "15624")
    assert code == 3
    assert "identity sweep of 15625 assignments exceeds the work cap 15624" in err
    code, _, _ = run(capsys, *theorem3, "--class", "modular", "--max-work", "15625")
    assert code == 0


def test_theorem3_fits_the_default_cap_when_kappa_does(capsys):
    # the 256-element product is charged 256^2 for Day's relation, not 256^3
    code, out, _ = run(capsys, "check", "--theorem", "3", "catalog:boolean-4", "catalog:boolean-4")
    assert code == 0
    assert "theorem 3: PASS (1 check(s))" in out


def test_theorem3_over_the_cap_exits_before_the_product_is_built(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(latquot.cli, "product", refuse)
    monkeypatch.setattr(latquot.variety, "product", refuse)
    code, out, err = run(capsys, "check", "--theorem", "3", "catalog:chain-256",
                         "catalog:chain-256")
    assert code == 3 and out == ""
    assert "Day relation over 4294967296 element pairs exceeds the work cap 10000000" in err


def test_explicit_blocks_are_charged_their_check(capsys):
    # {a,b} is one pair, checked against each of n5's 5 elements: 5 steps
    blocks = "{0}{a,b}{c}{1}"
    _, want, _ = run(capsys, "quotient", "catalog:n5", blocks)
    code, out, err = run(capsys, "quotient", "catalog:n5", blocks, "--max-work", "4")
    assert code == 3 and out == ""
    assert "block check of 5 steps exceeds the work cap 4" in err
    code, out, _ = run(capsys, "quotient", "catalog:n5", blocks, "--max-work", "5")
    assert code == 0 and out == want
    _, want, _ = run(capsys, "dot", "catalog:n5", "--highlight", blocks)
    code, out, _ = run(capsys, "dot", "catalog:n5", "--highlight", blocks, "--max-work", "4")
    assert code == 3 and out == ""
    code, out, _ = run(capsys, "dot", "catalog:n5", "--highlight", blocks, "--max-work", "5")
    assert code == 0 and out == want
    # singleton blocks charge nothing
    code, _, _ = run(capsys, "quotient", "catalog:n5", "{0}{a}{b}{c}{1}", "--max-work", "0")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["delta", "catalog:n5", "--max-work", "-1"],
    ["congruences", "catalog:n5", "--max-con", "-1"],
])
def test_a_negative_cap_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "usage:" in err and "a cap must be 0 or more" in err
    # a cap of 0 is valid, and refuses all work
    code, _, err = run(capsys, *argv[:-1], "0")
    assert code == 3 and "size limit" in err


def test_delta_of_boolean_8_fits_the_default_work_cap(capsys):
    # delta is charged 256^2 for Day's relation, not 256^3 for a sweep
    code, out, _ = run(capsys, "delta", "catalog:boolean-8")
    assert code == 0
    assert "quotient_size=256" in out
    code, _, err = run(capsys, "delta", "catalog:boolean-8", "--max-work", "65535")
    assert code == 3
    assert "65536" in err


def test_deeply_parenthesised_identity_is_read(capsys, tmp_path):
    # x = x holds in every lattice, so its kappa is the identity congruence
    path = tmp_path / "deep.ids"
    path.write_text("x = " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    code, out, err = run(capsys, "kappa", "catalog:n5", "--identities", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "kappa={0}{a}{b}{c}{1}"


@pytest.mark.parametrize("text, error", [
    ("x = x\n\n(x /\\ y = y\n", "error: line 3: expected ')' (at position 8)\n"),
    ("    x = (x\n", "error: line 1: expected ')' (at position 10)\n"),
    ("x = y\n# c\na b = c d\n", "error: line 3: unexpected 'b' (at position 2)\n"),
])
def test_identity_file_errors_name_their_line(capsys, tmp_path, text, error):
    # the position counts from the start of the line in the file
    path = tmp_path / "bad.ids"
    path.write_text(text)
    code, out, err = run(capsys, "kappa", "catalog:n5", "--identities", str(path))
    assert (code, out, err) == (1, "", error)


def test_the_package_exports_lattice_error():
    import latquot.errors

    assert latquot.LatticeError is latquot.errors.LatticeError


def test_deep_operator_chain_is_read_at_any_depth(capsys, tmp_path):
    # the distributive law with its lhs met with a 1000 more times is still it
    path = tmp_path / "padded.ids"
    path.write_text(r"a /\ (b \/ c)" + r" /\ a" * 1000 + r" = (a /\ b) \/ (a /\ c)" + "\n")
    code, out, err = run(capsys, "kappa", "catalog:n5", "--identities", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "kappa={0}{a,b}{c}{1}"


def test_quotient_delta(capsys):
    code, out, _ = run(capsys, "quotient", "catalog:n5", "delta")
    assert code == 0
    quot = parse_lattice_text(out)
    assert len(quot) == 4


def test_quotient_identity_blocks(capsys):
    code, out, _ = run(capsys, "quotient", "catalog:n5", "{0}{a}{b}{c}{1}")
    assert code == 0
    assert len(parse_lattice_text(out)) == 5


def test_quotient_diamond_collapses(capsys):
    _, out, _ = run(capsys, "quotient", "catalog:m3", "delta")
    assert len(parse_lattice_text(out)) == 1


def test_quotient_rejects_non_congruence(capsys):
    code, _, err = run(capsys, "quotient", "catalog:n5", "{0,b}{a}{c}{1}")
    assert code == 1
    assert "congruence" in err


@pytest.mark.parametrize("text, error", [
    ("elements: a b\nelements: a b\ncovers: a<b\n", "line 2: duplicate elements line"),
    ("elements: a b\ncovers: a<b\ncovers: a<b\n", "line 3: duplicate covers line"),
    ("elements:\n", "empty carrier is not a lattice"),
])
def test_malformed_lattice_files_exit_one(capsys, tmp_path, text, error):
    path = tmp_path / "bad.lat"
    path.write_text(text)
    assert run(capsys, "info", str(path)) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("blocks, error", [
    ("{a)", "block closed by ')', not '}'"),
    ("{a,}", "empty member in congruence block"),
])
def test_malformed_blocks_exit_one(capsys, blocks, error):
    assert run(capsys, "quotient", "catalog:n5", blocks) == (1, "", f"error: {error}\n")


def test_delta_names_no_generator_of_a_non_principal_kappa(capsys, tmp_path):
    # two pentagons stacked at m: delta collapses a,b and a2,b2, and no one
    # pair generates both
    path = tmp_path / "stacked.lat"
    path.write_text("elements: 0 a b c m a2 b2 c2 1\n"
                    "covers: 0<b b<a a<m 0<c c<m m<b2 b2<a2 a2<1 m<c2 c2<1\n")
    assert run(capsys, "delta", str(path)) == (
        0, "kappa={0}{a,b}{c}{m}{a2,b2}{c2}{1}\nquotient_size=7\nprincipal=no\n", "")


def test_quotient_output_revalidates(capsys):
    for name in ("n5", "m3", "fm-3"):
        code, out, _ = run(capsys, "quotient", f"catalog:{name}", "delta")
        assert code == 0
        parse_lattice_text(out)  # raises if not a lattice


def test_product_command(capsys):
    code, out, _ = run(capsys, "product", "catalog:m3", "catalog:n5")
    assert code == 0
    assert len(parse_lattice_text(out)) == 25


def test_product_work_cap(capsys):
    # boolean-3 x boolean-3 has 64 elements, so tables of 64^2 = 4096 entries
    args = ("product", "catalog:boolean-3", "catalog:boolean-3", "--max-work")
    code, out, err = run(capsys, *args, "4095")
    assert code == 3 and out == ""
    assert "product tables of 4096 entries exceed the work cap 4095" in err
    code, out, _ = run(capsys, *args, "4096")
    assert code == 0
    assert len(parse_lattice_text(out)) == 64
    # 4096^2 entries: refused under the default cap before any table is built
    start = time.perf_counter()
    code, out, err = run(capsys, "product", "catalog:boolean-6", "catalog:boolean-6")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert f"product tables of {4096 ** 2} entries" in err


def test_congruences_command(capsys):
    code, out, _ = run(capsys, "congruences", "catalog:n5")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_check_theorem1(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "1", "catalog:boolean-2")
    assert code == 0
    assert "PASS" in out


def test_check_theorem2(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "2", "catalog:n5")
    assert code == 0
    assert out.count("PASS") >= 5


def test_check_theorem3(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "3", "catalog:m3", "catalog:n5")
    assert code == 0
    assert "theorem 3: PASS" in out


def test_check_theorem3_missing_operand(capsys):
    code, _, err = run(capsys, "check", "--theorem", "3", "catalog:m3")
    assert code == 1


def test_check_theorem_1_and_2_take_one_lattice(capsys):
    for theorem in ("1", "2"):
        for other in ("catalog:m3", "/no/such/file"):
            code, out, err = run(capsys, "check", "--theorem", theorem, "catalog:n5", other)
            assert code == 1
            assert out == ""
            assert err == f"error: check --theorem {theorem} takes one lattice\n"


def test_catalog_list_takes_no_lattice_name(capsys):
    # the name used to be ignored, and the list printed with exit 0
    for name in ("n5", "/no/such/file"):
        code, out, err = run(capsys, "catalog", "list", name)
        assert code == 1
        assert out == ""
        assert err == "error: catalog list takes no lattice name\n"


def test_check_size_limit_exit_code(capsys):
    code, _, err = run(capsys, "congruences", "catalog:fm-3")
    assert code == 3
    assert "size limit" in err


def test_dot_highlight(capsys):
    code, out, _ = run(capsys, "dot", "catalog:n5", "--highlight", "delta")
    assert code == 0
    assert "subgraph cluster_0" in out


def test_catalog_list_and_dump(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "fm-3" in out.split()
    code, out, _ = run(capsys, "catalog", "dump", "n5")
    assert code == 0
    assert out.startswith("elements: 0 a b c 1")


def test_catalog_dump_round_trip(capsys):
    # dump -> parse -> dump is byte-identical for the whole catalog
    for name in CATALOG_NAMES:
        code, out, _ = run(capsys, "catalog", "dump", name)
        assert code == 0
        assert dump_lattice_text(parse_lattice_text(out)) == out


def test_oversized_chain_exits_one(capsys):
    code, out, err = run(capsys, "catalog", "dump", "chain-257")
    assert code == 1 and out == ""
    assert err == "error: a chain has at most 256 elements\n"


def test_bad_inputs_exit_one(capsys, monkeypatch):
    code, _, err = run(capsys, "info", "catalog:mystery-9")
    assert code == 1
    for argv in (["info", "catalog:nope"], ["catalog", "dump", "nope"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: unknown catalog lattice 'nope'\n"), argv
    code, _, err = run(capsys, "info", "/nonexistent/lattice.txt")
    assert code == 1
    monkeypatch.setattr("sys.stdin", None)  # as in a process started with stdin closed
    assert run(capsys, "info", "-") == (1, "", "error: stdin is closed\n")


def test_stdin_input(capsys, monkeypatch):
    import io

    text = dump_lattice_text(resolve("n5").lattice)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "info", "-")
    assert code == 0
    assert "size=5" in out


def test_non_utf8_files_exit_one(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe elements: 0 1\n")
    for argv in (["info", str(path)], ["kappa", "catalog:n5", "--identities", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "can't decode" in err
        assert "Traceback" not in err
    # stdin as the C and POSIX locales open it: a bad byte would become a
    # lone surrogate inside an identifier
    data = b"elements: a\xff b\ncovers: a\xff<b\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape"))
    code, out, err = run(capsys, "info", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: <stdin>: ") and "can't decode" in err
    assert "Traceback" not in err


def test_usage_errors_exit_one_and_help_zero(capsys):
    # exit code 2 is reserved for a theorem-check FAIL
    for argv in ([], ["info"], ["check", "--theorem", "4", "catalog:n5"], ["mystery"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "" and "usage:" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out


def test_decode_errors_name_the_file(capsys, tmp_path):
    path = tmp_path / "bytes.lat"
    path.write_bytes(b"\xff\xfe elements: 0 1\n")
    for argv in (["info", str(path)], ["kappa", "catalog:n5", "--identities", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode"), err


def _write_square(tmp_path, odd):
    # 0 < odd, c < 1: a four-element Boolean lattice with one odd identifier
    path = tmp_path / "square.lat"
    path.write_text(f"elements: 0 {odd} c 1\ncovers: 0<{odd} 0<c {odd}<1 c<1\n")
    return str(path)


def test_bracketed_comma_identifier_round_trips(capsys, tmp_path):
    # "{0,[a,b]}{c,1}" used to fail with "unknown element '[a'"
    path = _write_square(tmp_path, "[a,b]")
    code, out, _ = run(capsys, "congruences", path)
    assert code == 0
    assert "{0,[a,b]}{c,1}" in out.splitlines()
    for blocks in out.splitlines():
        code, quot, err = run(capsys, "quotient", path, blocks)
        assert code == 0, (blocks, err)
        parse_lattice_text(quot)


@pytest.mark.parametrize("odd", ["x,y", "a("])
def test_identifiers_without_a_round_trip_exit_one(capsys, tmp_path, odd):
    # "x,y" rendered as "{0,x,y}{c,1}", which read back as three elements
    path = _write_square(tmp_path, odd)
    for argv in (["info", path], ["congruences", path]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: identifier {odd!r} ")


@pytest.mark.parametrize("argv", [
    ["dot", "catalog:n5", "--json"],
    ["dot", "catalog:n5", "--max-con", "3"],
    ["catalog", "dump", "n5", "--json"],
    ["catalog", "list", "--max-con", "3"],
    ["delta", "catalog:n5", "--max-con", "3"],
    ["kappa", "catalog:n5", "--max-con", "3"],
    ["quotient", "catalog:n5", "delta", "--max-con", "3"],
    ["product", "catalog:n5", "catalog:m3", "--max-con", "3"],
])
def test_flags_that_nothing_reads_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["delta", "catalog:n5"],
    ["kappa", "catalog:n5"],
    ["quotient", "catalog:n5", "kappa"],
    ["dot", "catalog:n5", "--highlight", "kappa"],
])
def test_a_class_and_an_identity_file_together_are_a_usage_error(capsys, tmp_path, argv):
    # --identities used to win silently, whichever order the two came in
    path = tmp_path / "f.ids"
    path.write_text("x = x\n")
    for both in (["--class", "modular", "--identities", str(path)],
                 ["--identities", str(path), "--class", "modular"]):
        code, out, err = run(capsys, *argv, *both)
        assert code == 1 and out == "", both
        assert "error: argument" in err and "not allowed with argument" in err
    # either flag alone is still read
    code, out, _ = run(capsys, *argv, "--identities", str(path))
    assert code == 0 and out


@pytest.mark.parametrize("argv", [["delta", "catalog:n5"], ["congruences", "catalog:chain-12"]])
def test_a_closed_stdout_exits_zero_and_prints_nothing(argv):
    # the read end is closed before the child writes, as `| head -n 1` does
    # once it has its line; chain-12's 2048 lines overflow the buffer mid-command
    src = os.path.dirname(os.path.dirname(latquot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "latquot.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: each write, or only the flush, fails."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_in_process(capsys, monkeypatch):
    for fail_on in ("write", "flush"):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fail_on))
        assert main(["delta", "catalog:n5"]) == 0
        assert capsys.readouterr().err == ""
    # a command that finished keeps its own code; one cut short returns 0
    monkeypatch.setattr(sys, "stdout", _ClosedPipe("flush"))
    assert main(["congruences", "catalog:n5", "--max-con", "0"]) == 3
    assert capsys.readouterr().err.startswith("size limit:")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe("write"))
    assert main(["congruences", "catalog:chain-3"]) == 0
    assert main(["--help"]) == 0
    assert capsys.readouterr().err == ""
