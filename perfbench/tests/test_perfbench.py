"""Tests of the benchmark itself: inputs, references, checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import latquot as lq  # noqa: E402
import latquot.cli  # noqa: E402,F401
from perfbench import inputs as inp  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import trace, workloads  # noqa: E402
from perfbench.run import END_TO_END_UNITS, Record, run_pass  # noqa: E402


def _draw(seed, sizes=(6, 12, 64)):
    rng = random.Random(f"test/{seed}")
    return [inp.random_lattice(rng, size) for size in sizes]


def test_generator_is_deterministic_per_seed():
    assert _draw(7) == _draw(7)
    assert _draw(7) != _draw(8)


@pytest.mark.parametrize("seed", range(4))
def test_random_lattices_are_intersection_closed_and_match_the_library(seed):
    for rl, size in zip(_draw(seed), (6, 12, 64)):
        family = set(rl.family)
        assert len(family) == size
        assert max(family) in family and max(family).bit_length() >= 5
        assert all(a & b in family for a in family for b in family)
        lat = lq.from_covers(rl.names, rl.covers)
        assert inp.table_mismatch(lat, rl.table()) is None
        assert inp.table_mismatch(lq.parse_lattice_text(rl.text()), rl.table()) is None


def test_stock_tables_match_the_catalog():
    pairs = [
        (lq.n5().lattice, inp.n5_table()),
        (lq.m3().lattice, inp.m3_table()),
        (lq.chain(4).lattice, inp.chain_table(4)),
        (lq.boolean(3).lattice, inp.boolean_table(3)),
        (lq.product(lq.n5().lattice, lq.m3().lattice),
         inp.product_table(inp.n5_table(), inp.m3_table())),
    ]
    for lat, table in pairs:
        assert inp.table_mismatch(lat, table) is None


@pytest.mark.parametrize("seed", range(6))
def test_references_agree_with_brute_force(seed):
    rng = random.Random(f"brute/{seed}")
    for size in (5, 6, 7):
        table = inp.random_lattice(rng, size).table()
        assert ref.congruences(table) == ref.brute_congruences(table)
        for identity in (ref.DISTRIBUTIVE, ref.MODULAR):
            assert ref.kappa(table, [identity]) == ref.brute_kappa(table, [identity])


def test_hand_written_expectations_hold_in_the_references():
    n5 = inp.n5_table()
    assert ref.brute_kappa(n5, [ref.DISTRIBUTIVE]) == workloads._n5_delta()
    assert ref.brute_kappa(inp.m3_table(), [ref.DISTRIBUTIVE]) == ref.full_congruence(5)
    assert ref.kappa(inp.boolean_table(4), [ref.FOUR_VAR]) == ref.identity_congruence(16)
    fm3 = lq.free_modular_3()
    table = inp.library_table(fm3.lattice)
    assert ref.kappa(table, [ref.FOUR_VAR]) == workloads._fm3_delta(table, fm3)


def _job_named(jobs, name):
    return next(job for job in jobs if job.name == name)


def test_checker_flags_identity_congruence_given_as_delta_n5():
    n5 = lq.n5().lattice
    wrong = workloads._congruence_job("delta(n5)", lambda: lq.identity_congruence(n5),
                                      workloads._n5_delta)
    right = workloads._congruence_job("delta(n5)", lambda: lq.delta(n5), workloads._n5_delta)
    record = Record([wrong, right])
    run_pass(record)
    run_pass(record)
    attempted, failed, messages = record.check()
    assert (attempted, failed) == (4, 2)
    assert all(m.startswith("delta(n5)") for m in messages)


def test_checker_flags_wrong_cli_output(tmp_path):
    jobs = workloads.cli_small(lq, random.Random("cli"), str(tmp_path))
    job = _job_named(jobs, "cli delta catalog:n5")
    assert job.check(job.run()) is None
    assert job.check((0, "kappa={0}{a}{b}{c}{1}\nquotient_size=5\nprincipal=no\n")) is not None
    assert job.check((1, "")) is not None
    dump = _job_named(jobs, "cli catalog dump n5")
    code, out = dump.run()
    assert dump.check((code, out)) is None
    assert dump.check((code, out.replace("b<a", "a<b"))) is not None


def test_a_raising_job_counts_as_failed():
    def boom():
        raise lq.LatticeError("boom")

    record = Record([workloads.Job("boom", boom, lambda r: None)])
    run_pass(record)
    assert record.check()[:2] == (1, 1)


def _bindings():
    """Every (owner, attribute) -> object the tracer may rebind."""
    modules = {n: m for n, m in sys.modules.items() if n == "latquot" or n.startswith("latquot.")}
    out = {}
    for fns in trace.TRACED.values():
        for fn in fns:
            if fn.startswith("Lattice."):
                attr = fn.split(".", 1)[1]
                out[("Lattice", attr)] = lq.Lattice.__dict__[attr]
            else:
                for name, module in modules.items():
                    if fn in module.__dict__:
                        out[(name, fn)] = module.__dict__[fn]
    return out


def _small_jobs(tmp_path):
    n5, m3 = lq.n5().lattice, lq.m3().lattice
    jobs = [
        workloads.Job("kappa_oracle", lambda: lq.kappa_oracle(lq.product(n5, m3), lq.MODULAR, 25),
                      lambda r: None),
        workloads.Job("theorem2", lambda: lq.verify_theorem2(n5, lq.delta(n5), lq.MODULAR),
                      lambda r: None),
    ]
    cli_jobs = workloads.cli_small(lq, random.Random("trace"), str(tmp_path))
    return jobs + [_job_named(cli_jobs, "cli info catalog:fm-3"),
                   _job_named(cli_jobs, "cli dot catalog:n5 --highlight delta")]


def test_traced_run_restores_every_patched_name(tmp_path):
    before = _bindings()
    tracer = trace.Tracer()
    record = Record(_small_jobs(tmp_path))
    with tracer.installed():
        assert latquot.cli.kappa is not before[("latquot.cli", "kappa")]
        assert lq.variety.quotient is not before[("latquot.variety", "quotient")]
        assert lq.Lattice.covers_i is not before[("Lattice", "covers_i")]
        run_pass(record, tracer)
    assert tracer.patched() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert record.check()[1] == 0


def test_self_times_sum_to_each_jobs_traced_time(tmp_path):
    tracer = trace.Tracer()
    record = Record(_small_jobs(tmp_path))
    with tracer.installed():
        run_pass(record, tracer)
    spans = tracer.spans
    own = trace.self_times(spans)
    names = {s[0] for s in spans}
    assert {"variety.kappa_oracle", "congruence.cong_join", "cli.main", "catalog.resolve",
            "core.Lattice._validate", "terms.eval_term"} <= names
    for job_id in range(len(record.jobs)):
        members = [i for i, s in enumerate(spans) if s[4] == job_id]
        root = [i for i in members if spans[i][0] == trace.JOB]
        assert len(root) == 1
        assert sum(own[i] for i in members) == spans[root[0]][2] - spans[root[0]][1]
        assert all(own[i] >= 0 for i in members)


def test_recursive_eval_term_is_timed_at_its_outermost_call_only():
    tracer = trace.Tracer()
    with tracer.installed():
        lq.free_modular_3()
    evals = [s for s in tracer.spans if s[0] == "terms.eval_term"]
    assert len(evals) == 2  # the two median terms, each one outermost call
    assert all(s[3] is None or tracer.spans[s[3]][0] != "terms.eval_term" for s in evals)


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_run_prints_one_json_result_line(trace_flag):
    proc = _run(ROOT, "--workload", "cli-small", "--seed", "5", "--seconds", "0.1",
                "--trace", trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = trace.per_layer_units() if trace_flag == "1" else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli-small", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
