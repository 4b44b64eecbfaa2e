"""The three workloads: their inputs, job lists and correctness checks.

A job is one public call into the library (``latquot.*`` or
``latquot.cli.main(argv)`` with captured output).  Each job carries a check
against a reference that does not come from the library: a hand-written
expectation for the paper's worked examples, the product rule over
brute-forced factors, or the independent computations in ``reference.py``.
Checks run after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from . import inputs as inp
from . import reference as ref

WHY = {
    "kappa-large": (
        "kappa for distributive, modular and a 4-variable identity on 28-125 elements: the n^k "
        "sweep and quotient re-check dominate; no Con(L); 5-variable kappa on fm-3 left out (>20 s)"
    ),
    "con-enum": (
        "Con(L), class filters, kappa oracles and theorem checks on 12-28 elements: the "
        "congruence_witness re-check in cong_join dominates; all_congruences(n5^3) left out (>8 min)"
    ),
    "cli-small": (
        "hundreds of 1-60 ms cli.main calls on catalog names and random files: argparse, "
        "parsing, construction, covers_i, catalog rebuilds and output weigh as much as the kernels"
    ),
}

ROLE = {
    "kappa-large": "mechanism for ROADMAP item 3 (compiled identity evaluator); bypass for item 2",
    "con-enum": "mechanism for ROADMAP item 2 (join-irreducible Con(L)); bypass for item 3",
    "cli-small": "construction-heavy use of the same layers; shows cost moved into lattice "
                 "construction; ROADMAP item 5 shows here",
}

# layer metric -> (end-to-end metrics it should move, on which workloads)
LAYER_MAP = (
    ("variety.kappa.self_s, variety.satisfies.self_s, variety.kappa.recheck_share",
     "wall_s, cpu_s on kappa-large; neither on con-enum or cli-small"),
    ("congruence.congruence_witness.self_s, congruence.cong_join.calls, "
     "congruence.cong_join.useful_ratio, congruence.all_congruences.witness_share",
     "wall_s on con-enum; zero calls on kappa-large"),
    ("congruence._congruence_closure.self_s",
     "con-enum (generators) and kappa-large (the final closure)"),
    ("congruence.quotient.self_s, core.Lattice._validate.self_s",
     "job_p50_ms on kappa-large and cli-small"),
    ("core.from_covers, core.product, core.restrict, catalog.resolve",
     "setup_s on all workloads; job_p50_ms/job_p90_ms on cli-small"),
    ("core.Lattice.covers_i.calls_per_job, core.is_distributive, core.is_modular, "
     "textfmt.*, cli.main.self_s",
     "job_p50_ms/job_p90_ms on cli-small"),
)

EXCLUDED = (
    ("all_congruences(n5^3)", "more than 8 min at the seed; added after ROADMAP item 2"),
    ("kappa(fm-3) with an uncapped 5-variable identity",
     "more than 20 s at the seed; added after ROADMAP item 3"),
)


@dataclass
class Job:
    """One timed call, its result signature and its correctness check."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], object]  # error message or None
    signature: Callable[[object], object] = field(default=lambda r: r)


def _congruence_sig(theta):
    return theta.block_of


def _congruence_list_sig(thetas):
    return tuple(t.block_of for t in thetas)


def _report_sig(report):
    return (report.ok, tuple(report.details))


def _expect(actual, expected, what):
    if actual != expected:
        return f"{what}: got {actual!r}, expected {expected!r}"
    return None


def _lazy(compute):
    """A zero-argument function that computes ``compute()`` once."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


def _congruence_job(name, run, expected):
    """A job returning a Congruence, checked against ``expected()`` block_of."""
    return Job(name, run, lambda theta: _expect(theta.block_of, expected(), name),
               _congruence_sig)


def _congruence_list_job(name, run, expected):
    return Job(name, run, lambda thetas: _expect(_congruence_list_sig(thetas), tuple(expected()),
                                                 name), _congruence_list_sig)


def _n5_delta():
    """Hand-written: delta(n5) = theta(a, b) = {0}{a,b}{c}{1}."""
    return (0, 1, 1, 3, 4)


def _fm3_delta(table, named):
    """Hand-written: delta(fm-3) = theta(u, v), 11 singletons, six doubletons,
    one 5-element block.  u and v are the median terms of the generators."""
    index = {name: i for i, name in enumerate(table.names)}
    x, y, z = (index[named.distinguished[v]] for v in "xyz")
    meet, join = table.meet, table.join
    u = meet[meet[join[y][z]][join[z][x]]][join[x][y]]
    v = join[join[meet[y][z]][meet[z][x]]][meet[x][y]]
    theta = ref.closure(table, [(u, v)])
    sizes = ref.block_sizes(theta)
    if sizes != [1] * 11 + [2] * 6 + [5]:
        raise AssertionError(f"theta(u, v) on fm-3 has block sizes {sizes}")
    return theta


# -- kappa-large -------------------------------------------------------------


def kappa_large(lq, rng, workdir):
    D, Mo = lq.DISTRIBUTIVE, lq.MODULAR
    four = lq.parse_identity_file(ref.FOUR_VAR_TEXT, name="four-var")
    n5 = lq.n5().lattice
    boolean6 = lq.boolean(6).lattice
    n5_cubed = lq.product(lq.product(n5, n5), n5)
    fd3 = lq.free_distributive(3).lattice
    fd3_m3 = lq.product(fd3, lq.m3().lattice)
    fm3 = lq.free_modular_3()
    rand_a, rand_b = (inp.random_lattice(rng, 64) for _ in range(2))
    lat_a = lq.from_covers(rand_a.names, rand_a.covers)
    lat_b = lq.from_covers(rand_b.names, rand_b.covers)

    def n5_cubed_delta():
        # product rule over the hand-written factor: kappa(A x B) = kappa(A) x kappa(B)
        square = ref.product_congruence(_n5_delta(), 5, _n5_delta())
        return ref.product_congruence(square, 5, _n5_delta())

    def fd3_m3_delta():
        # fd-3 is distributive (identity); m3 collapses fully (hand), brute-forced too
        m3_delta = ref.brute_kappa(inp.m3_table(), [ref.DISTRIBUTIVE])
        if m3_delta != ref.full_congruence(5):
            raise AssertionError("brute-force delta(m3) is not the full congruence")
        return ref.product_congruence(ref.identity_congruence(18), 5, m3_delta)

    # Boolean lattices are distributive, so kappa of any class containing them is the identity
    return [
        _congruence_job("delta(boolean-6)", lambda: lq.delta(boolean6),
                        lambda: ref.identity_congruence(64)),
        _congruence_job("kappa(n5^3, distributive)", lambda: lq.kappa(n5_cubed, D),
                        n5_cubed_delta),
        _congruence_job("kappa(boolean-6, modular)", lambda: lq.kappa(boolean6, Mo),
                        lambda: ref.identity_congruence(64)),
        _congruence_job("kappa(fd-3 x m3, distributive)", lambda: lq.kappa(fd3_m3, D),
                        _lazy(fd3_m3_delta)),
        _congruence_job("kappa(fm-3, four-var)", lambda: lq.kappa(fm3.lattice, four),
                        _lazy(lambda: _fm3_delta(inp.library_table(fm3.lattice), fm3))),
        _congruence_job("kappa(random-64a, distributive)", lambda: lq.kappa(lat_a, D),
                        _lazy(lambda: ref.kappa(rand_a.table(), [ref.DISTRIBUTIVE]))),
        _congruence_job("kappa(random-64b, modular)", lambda: lq.kappa(lat_b, Mo),
                        _lazy(lambda: ref.kappa(rand_b.table(), [ref.MODULAR]))),
    ]


# -- con-enum ----------------------------------------------------------------


def con_enum(lq, rng, workdir):
    D, Mo = lq.DISTRIBUTIVE, lq.MODULAR
    n5, m3 = lq.n5().lattice, lq.m3().lattice
    chain3, chain4 = lq.chain(3).lattice, lq.chain(4).lattice
    boolean4 = lq.boolean(4).lattice
    n5_n5, n5_m3, c3_c4 = lq.product(n5, n5), lq.product(n5, m3), lq.product(chain3, chain4)
    fm3 = lq.free_modular_3().lattice
    fd3 = lq.free_distributive(3).lattice
    rands = [inp.random_lattice(rng, size) for size in (12, 14, 16)]
    rand_lats = [lq.from_covers(r.names, r.covers) for r in rands]

    # theta(a, b) on the n5 factor, identity on m3: the congruence theorem 2 quotients by
    theta2 = ref.product_congruence(_n5_delta(), 5, ref.identity_congruence(5))
    theta2_lib = lq.Congruence(25, theta2)

    def counted(table_fn, count):
        def compute():
            cons = ref.congruences(table_fn())
            if len(cons) != count:
                raise AssertionError(f"reference |Con| is {len(cons)}, expected {count}")
            return cons
        return _lazy(compute)

    def report_job(name, run, expected_details):
        return Job(name, run, lambda rep: _expect(_report_sig(rep), (True, expected_details()),
                                                  name), _report_sig)

    jobs = [
        # |Con(A x B)| = |Con(A)| * |Con(B)|: 5 * 5 for n5 x n5
        _congruence_list_job("all_congruences(n5 x n5)", lambda: lq.all_congruences(n5_n5, 25),
                             counted(lambda: inp.product_table(inp.n5_table(), inp.n5_table()),
                                     25)),
        _congruence_list_job("all_congruences(fm-3)", lambda: lq.all_congruences(fm3, 28),
                             _lazy(lambda: ref.congruences(inp.library_table(fm3)))),
        _congruence_list_job("class_filter(n5 x m3, distributive)",
                             lambda: lq.class_filter(n5_m3, D, 25),
                             _lazy(lambda: ref.class_filter(
                                 inp.product_table(inp.n5_table(), inp.m3_table()),
                                 [ref.DISTRIBUTIVE]))),
        # products of chains and Boolean lattices are distributive: kappa is the identity
        _congruence_job("kappa_oracle(chain-3 x chain-4, modular)",
                        lambda: lq.kappa_oracle(c3_c4, Mo, 12),
                        lambda: ref.identity_congruence(12)),
        _congruence_job("kappa_oracle(boolean-4, distributive)",
                        lambda: lq.kappa_oracle(boolean4, D, 16),
                        lambda: ref.identity_congruence(16)),
        _congruence_job("kappa_oracle(boolean-4, modular)",
                        lambda: lq.kappa_oracle(boolean4, Mo, 16),
                        lambda: ref.identity_congruence(16)),
        # every congruence of a distributive lattice is in the filter; |Con(2^4)| = 16
        report_job("verify_theorem1(boolean-4, distributive)",
                   lambda: lq.verify_theorem1(boolean4, D, 16),
                   lambda: ("filter size 16 of 16 congruences",)),
        report_job("verify_theorem1(chain-3 x chain-4, modular)",
                   lambda: lq.verify_theorem1(c3_c4, Mo, 12),
                   lambda: ("filter size 32 of 32 congruences",)),
        report_job("verify_theorem2(n5 x m3, theta(a,b) x 0, modular)",
                   lambda: lq.verify_theorem2(n5_m3, theta2_lib, Mo), lambda: ()),
        # |Con(n5)| = 5 and |Con(m3)| = 2, so the product has 10 congruences
        report_job("verify_theorem3(n5, m3, distributive)",
                   lambda: lq.verify_theorem3(n5, m3, D, 12),
                   lambda: ("factored all 10 product congruences",)),
        report_job("verify_theorem3(chain-3, chain-4, modular)",
                   lambda: lq.verify_theorem3(chain3, chain4, Mo, 12),
                   lambda: ("factored all 32 product congruences",)),
        # the paper's worked example: fm-3 / delta is the free distributive lattice fd-3
        Job("is_isomorphic(fm-3 / delta, fd-3)",
            lambda: lq.is_isomorphic(lq.quotient(fm3, lq.delta(fm3)).target, fd3),
            lambda iso: _expect(iso, True, "fm-3 / delta(fm-3) isomorphic to fd-3")),
        _congruence_list_job("all_congruences(random-12)",
                             lambda: lq.all_congruences(rand_lats[0], 12),
                             _lazy(lambda: ref.congruences(rands[0].table()))),
        _congruence_job("kappa_oracle(random-14, modular)",
                        lambda: lq.kappa_oracle(rand_lats[1], Mo, 14),
                        _lazy(lambda: ref.kappa(rands[1].table(), [ref.MODULAR]))),
        _congruence_list_job("class_filter(random-16, distributive)",
                             lambda: lq.class_filter(rand_lats[2], D, 16),
                             _lazy(lambda: ref.class_filter(rands[2].table(),
                                                            [ref.DISTRIBUTIVE]))),
    ]
    return jobs


# -- cli-small ---------------------------------------------------------------


def run_cli(main, argv):
    """``main(argv)`` in-process with captured output: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _check_cli(lq, argv, table_fn, expect):
    """A CLI check: exit code 0, then ``expect(lq, table, stdout)``."""

    def check(result):
        code, out = result
        if code != 0:
            return f"{' '.join(argv)}: exit code {code}"
        try:
            return expect(lq, table_fn(), out)
        except Exception as exc:  # a parse failure is a wrong answer
            return f"{' '.join(argv)}: output does not check: {exc!r}"

    return check


def _yes(flag):
    return "yes" if flag else "no"


def _expect_info(lq, table, out):
    n = len(table)
    con = len(ref.congruences(table)) if n <= 12 else "n/a"
    expected = (
        f"size={n} covers={len(ref.covers(table))} "
        f"distributive={_yes(ref.satisfies(table, [ref.DISTRIBUTIVE]))} "
        f"modular={_yes(ref.satisfies(table, [ref.MODULAR]))} |Con|={con}"
    )
    return _expect(out.strip(), expected, "info")


def _expect_kappa(identity):
    def expect(lq, table, out):
        lines = out.splitlines()
        if not lines or not lines[0].startswith("kappa="):
            return f"no kappa line in {out[:80]!r}"
        theta = ref.blocks_to_block_of(table, lq.parse_congruence_text(lines[0][len("kappa="):]))
        wanted = ref.kappa(table, [identity])
        return (_expect(theta, wanted, "kappa")
                or _expect(lines[1], f"quotient_size={len(set(wanted))}", "quotient size"))
    return expect


def _expect_lattice(expected_table):
    """The output re-parses into exactly ``expected_table(table)``."""
    def expect(lq, table, out):
        return inp.table_mismatch(lq.parse_lattice_text(out), expected_table(table))
    return expect


def _expect_dot(highlight):
    """A DOT digraph with one node per element, one edge per cover and, with
    ``highlight``, one cluster per nontrivial block of delta."""

    def expect(lq, table, out):
        lines = [line.strip() for line in out.splitlines()]
        if lines[0] != 'digraph "lattice" {' or lines[-1] != "}":
            return "not a DOT digraph"
        wanted = set()
        if highlight:
            delta = ref.kappa(table, [ref.DISTRIBUTIVE])
            wanted = {frozenset(table.names[i] for i, r in enumerate(delta) if r == rep)
                      for rep in set(delta) if delta.count(rep) > 1}
        clusters, current, labels = set(), None, []
        for line in lines:
            if line.startswith("subgraph cluster_"):
                current = set()
            elif line == "}" and current is not None:
                clusters.add(frozenset(current))
                current = None
            elif 'label="' in line:
                labels.append(line.split('label="', 1)[1].split('"', 1)[0])
                if current is not None:
                    current.add(labels[-1])
        edges = sum(1 for line in lines if "->" in line)
        return (_expect(sorted(labels), sorted(table.names), "node labels")
                or _expect(clusters, wanted, "highlighted delta blocks")
                or _expect(edges, len(ref.covers(table)), "edge count"))

    return expect


def _expect_fm3_dump(lq, table, out):
    # hand-written: fm-3 has 28 elements and is modular but not distributive
    t = inp.library_table(lq.parse_lattice_text(out))
    got = (len(t), ref.satisfies(t, [ref.MODULAR]), ref.satisfies(t, [ref.DISTRIBUTIVE]))
    return _expect(got, (28, True, False), "fm-3 dump (size, modular, distributive)")


def cli_small(lq, rng, workdir):
    catalog = {
        "n5": inp.n5_table, "m3": inp.m3_table,
        "boolean-2": lambda: inp.boolean_table(2), "boolean-3": lambda: inp.boolean_table(3),
        "chain-4": lambda: inp.chain_table(4),
        "fm-3": _lazy(lambda: inp.library_table(lq.free_modular_3().lattice)),
    }
    sources = {f"catalog:{name}": fn for name, fn in catalog.items()}

    def random_file(size):
        rl = inp.random_lattice(rng, size)
        path = os.path.join(workdir, f"random-{len(sources)}-{size}.lat")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rl.text())
        sources[path] = rl.table
        return path

    def delta_table(t):
        return ref.quotient_table(t, ref.kappa(t, [ref.DISTRIBUTIVE]))

    specs = []  # (argv, reference table function, expectation)

    def add(argv, source, expect):
        specs.append((argv, sources[source], expect))

    for src in ("catalog:n5", "catalog:m3", "catalog:boolean-3", "catalog:chain-4", "catalog:fm-3"):
        add(["info", src], src, _expect_info)
    for src in ("catalog:n5", "catalog:m3"):
        add(["delta", src], src, _expect_kappa(ref.DISTRIBUTIVE))
        add(["kappa", src, "--class", "modular"], src, _expect_kappa(ref.MODULAR))
        add(["quotient", src, "delta"], src, _expect_lattice(delta_table))
        add(["dot", src, "--highlight", "delta"], src, _expect_dot(True))
    add(["delta", "catalog:fm-3"], "catalog:fm-3", _expect_kappa(ref.DISTRIBUTIVE))
    add(["dot", "catalog:fm-3"], "catalog:fm-3", _expect_dot(False))
    add(["quotient", "catalog:n5", "{0}{a,b}{c}{1}"], "catalog:n5",
        _expect_lattice(lambda t: ref.quotient_table(t, _n5_delta())))
    for a, b in (("n5", "m3"), ("m3", "boolean-3"), ("boolean-2", "fm-3")):
        specs.append((["product", f"catalog:{a}", f"catalog:{b}"],
                      lambda a=a, b=b: inp.product_table(catalog[a](), catalog[b]()),
                      _expect_lattice(lambda t: t)))
    for name in ("n5", "boolean-3"):
        add(["catalog", "dump", name], f"catalog:{name}", _expect_lattice(lambda t: t))
    specs.append((["catalog", "dump", "fm-3"], lambda: None, _expect_fm3_dump))
    # a fresh random lattice for every call, so that shapes average out over a pass
    for size in (8, 10, 12, 16, 24, 32, 48, 64):
        path = random_file(size)
        add(["info", path], path, _expect_info)
    for size in (6, 7, 8, 8, 9, 9, 10, 10, 11, 12, 13, 14):
        for command, expect in (
            (["delta", "{}"], _expect_kappa(ref.DISTRIBUTIVE)),
            (["kappa", "{}", "--class", "modular"], _expect_kappa(ref.MODULAR)),
            (["quotient", "{}", "delta"], _expect_lattice(delta_table)),
            (["dot", "{}", "--highlight", "delta"], _expect_dot(True)),
        ):
            path = random_file(size)
            add([path if arg == "{}" else arg for arg in command], path, expect)
    for size_a, size_b in ((8, 10), (12, 8)):
        a, b = random_file(size_a), random_file(size_b)
        specs.append((["product", a, b],
                      lambda a=a, b=b: inp.product_table(sources[a](), sources[b]()),
                      _expect_lattice(lambda t: t)))

    def label(argv):
        return "cli " + " ".join(os.path.basename(a) for a in argv)

    return [
        Job(label(argv), lambda argv=argv: run_cli(lq.cli.main, argv),
            _check_cli(lq, argv, _lazy(table_fn), expect))
        for argv, table_fn, expect in specs
    ]


BUILDERS = {"kappa-large": kappa_large, "con-enum": con_enum, "cli-small": cli_small}


def build(lq, workload, seed, workdir):
    """Every input of ``workload`` for ``seed``, as a job list; text inputs
    are written under ``workdir``."""
    return BUILDERS[workload](lq, random.Random(f"{workload}/{seed}"), workdir)
