"""Command-line front end.

Exit codes: 0 success/pass, 1 input or usage error, 2 theorem-check FAIL,
3 size-limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import catalog
from .congruence import (
    all_congruences,
    congruence_from_blocks,
    join_irreducible_congruences,
    principal_generator,
    quotient,
)
from .core import is_distributive, is_modular, product
from .errors import LatticeError, SizeLimitExceeded
from .terms import BUILTIN_CLASSES, parse_identity_file
from .textfmt import dump_lattice_text, parse_congruence_text, parse_lattice_text, to_dot
from .variety import (
    charge_kappa,
    kappa,
    verify_theorem1,
    verify_theorem2_each,
    verify_theorem3,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_SIZE = 3


def _read_text(path):
    """The text of the file ``path``, or of stdin for None, decoded as
    strict UTF-8; a decode error is a LatticeError that names the file or
    ``<stdin>``."""
    if path is None:
        # the bytes: under the C locale a text stdin turns a bad byte into a
        # lone surrogate; a stream without bytes beneath it gives them back
        stream, path = sys.stdin, "<stdin>"
        if stream is None:  # the process was started with stdin closed
            raise LatticeError("stdin is closed")
        data = (stream.buffer.read() if hasattr(stream, "buffer")
                else stream.read().encode("utf-8", "surrogateescape"))
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LatticeError(f"{path}: {exc}") from None


def load_lattice(source):
    """Load from "catalog:<name>", a file path, or "-" for stdin."""
    if source.startswith("catalog:"):
        return catalog.resolve(source[len("catalog:"):]).lattice
    return parse_lattice_text(_read_text(None if source == "-" else source))


def load_class(args):
    if getattr(args, "identities", None):
        return parse_identity_file(_read_text(args.identities))
    return BUILTIN_CLASSES[getattr(args, "klass", None) or "distributive"]


def load_congruence(lat, text, args):
    if text in ("delta", "kappa"):
        return kappa(lat, load_class(args), max_work=args.max_work)
    blocks = parse_congruence_text(text)
    # the compatibility check tests each pair in a block against every element
    work = sum(len(block) * (len(block) - 1) // 2 for block in blocks) * len(lat)
    if work > args.max_work:
        raise SizeLimitExceeded(f"block check of {work} steps exceeds the work cap {args.max_work}")
    return congruence_from_blocks(lat, blocks)


def _congruences(lat, args):
    """Con(L) under both caps: ``--max-con`` on |L|, and ``--max-work`` on
    the |Con L| |L| labels the list holds, so that it is refused by its
    length before it is built."""
    return all_congruences(lat, args.max_con, _count_cap(len(lat), args))


def _count_cap(size, args):
    """The most congruences of a ``size``-element lattice that fit
    ``--max-work``: c congruences hold c * size labels."""
    return args.max_work // size


def _yesno(flag):
    return "yes" if flag else "no"


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_info(args):
    lat = load_lattice(args.lattice)
    dist, mod = is_distributive(lat), is_modular(lat)
    covers = sum(map(len, lat.cover_lists()[0]))  # kept by is_modular
    try:
        con_size = len(_congruences(lat, args))
    except SizeLimitExceeded:
        con_size = None
    line = (
        f"size={len(lat)} covers={covers} "
        f"distributive={_yesno(dist)} modular={_yesno(mod)} "
        f"|Con|={con_size if con_size is not None else 'n/a'}"
    )
    _emit(args, [line], {
        "size": len(lat),
        "covers": covers,
        "distributive": dist,
        "modular": mod,
        "con_size": con_size,
    })
    return EXIT_OK


def cmd_delta(args):
    lat = load_lattice(args.lattice)
    spec = load_class(args)
    kap = kappa(lat, spec, max_work=args.max_work)
    pair = principal_generator(lat, kap)
    lines = [
        f"kappa={kap.render(lat)}",
        f"quotient_size={kap.num_blocks()}",
        f"principal={'(' + pair[0] + ',' + pair[1] + ')' if pair else 'no'}",
    ]
    if kap.num_blocks() == 1 and len(lat) > 1:
        lines.append("note: quotient is a singleton (the class collapses this lattice)")
    _emit(args, lines, {
        "class": spec.name,
        "blocks": kap.render(lat),
        "quotient_size": kap.num_blocks(),
        "principal": list(pair) if pair else None,
    })
    return EXIT_OK


def cmd_quotient(args):
    lat = load_lattice(args.lattice)
    theta = load_congruence(lat, args.congruence, args)
    text = dump_lattice_text(quotient(lat, theta).target)
    _emit(args, [text.rstrip("\n")], {"lattice": text})
    return EXIT_OK


def cmd_product(args):
    l1, l2 = load_lattice(args.lattice), load_lattice(args.other)
    # the two tables grow as the square of the product's size
    work = (len(l1) * len(l2)) ** 2
    if work > args.max_work:
        raise SizeLimitExceeded(f"product tables of {work} entries exceed the work cap "
                                f"{args.max_work}")
    lat = product(l1, l2)
    text = dump_lattice_text(lat)
    _emit(args, [text.rstrip("\n")], {"lattice": text})
    return EXIT_OK


def cmd_congruences(args):
    lat = load_lattice(args.lattice)
    cons = _congruences(lat, args)
    rendered = [theta.render(lat) for theta in cons]
    _emit(args, rendered, {"congruences": rendered, "count": len(rendered)})
    return EXIT_OK


def cmd_check(args):
    spec = load_class(args)
    lat = load_lattice(args.lattice)
    other = None
    if args.theorem == 3:
        if not args.other:
            raise LatticeError("check --theorem 3 needs two lattices")
        other = load_lattice(args.other)
    elif args.other:
        raise LatticeError(f"check --theorem {args.theorem} takes one lattice")
    # charged as kappa charges the largest kappa the check runs: of the
    # product for theorem 3, before it is built, else of L, whose quotients
    # take the same path (Day's relation for the distributive class, whose
    # quotients theorem 1 does not sweep)
    charge_kappa(len(lat) * len(other) if other else len(lat), spec, args.max_work)
    if args.theorem == 1:
        reports = [verify_theorem1(lat, spec, args.max_con, _count_cap(len(lat), args))]
    elif args.theorem == 2:
        try:
            thetas = _congruences(lat, args)
        except SizeLimitExceeded:
            thetas = join_irreducible_congruences(lat)
        reports = verify_theorem2_each(lat, thetas, spec)
    else:
        reports = [verify_theorem3(lat, other, spec, args.max_con, args.max_work)]
    ok = all(r.ok for r in reports)
    lines = []
    for r in reports:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name}")
        lines.extend("  " + d for d in r.details)
    lines.append(f"theorem {args.theorem}: {'PASS' if ok else 'FAIL'} ({len(reports)} check(s))")
    _emit(args, lines, {
        "theorem": args.theorem,
        "ok": ok,
        "checks": [{"name": r.name, "ok": r.ok, "details": r.details} for r in reports],
    })
    return EXIT_OK if ok else EXIT_FAIL


def cmd_dot(args):
    lat = load_lattice(args.lattice)
    theta = load_congruence(lat, args.highlight, args) if args.highlight else None
    print(to_dot(lat, highlight=theta), end="")
    return EXIT_OK


def cmd_catalog(args):
    if args.action == "list":
        if args.name:
            raise LatticeError("catalog list takes no lattice name")
        for name in catalog.CATALOG_NAMES:
            print(name)
        return EXIT_OK
    if not args.name:
        raise LatticeError("catalog dump needs a lattice name")
    print(dump_lattice_text(catalog.resolve(args.name).lattice), end="")
    return EXIT_OK


def _add_json(sub):
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def cap(text):
    """A work or enumeration cap: an integer, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be 0 or more, not {value}")
    return value


def _add_max_con(sub):
    sub.add_argument("--max-con", type=cap, default=12, metavar="N",
                     help="largest |L| whose congruences are listed (default 12); a distributive L "
                          "has 2^|J(L)| of them")


_KAPPA_WORK = ("cap on kappa's work: n^2 for the distributive class, else the identity "
               "sweep, the sum of n^k over the identities")
_BLOCKS_WORK = _KAPPA_WORK + "; for explicit blocks, their check: the sum over blocks B of C(|B|, 2) n"
_CHECK_WORK = ("cap on the work charged before the check: kappa's charge (n^2 for the "
               "distributive class, else the identity sweep, the sum of n^k over the identities) "
               "of the product for theorem 3, of L for theorems 1 and 2; "
               "each list of Con(L) is charged on its own, |Con L| n labels")
_LIST_WORK = "cap on the list of Con(L): |Con L| n labels"


def _add_class(sub, work_help=_KAPPA_WORK):
    # one class source: a named class and an identity file together is a usage error
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--class", dest="klass", choices=sorted(BUILTIN_CLASSES),
                        help="built-in equational class (default distributive)")
    source.add_argument("--identities", metavar="FILE",
                        help="file of identities, one 'lhs = rhs' per line")
    _add_max_work(sub, work_help)


def _add_max_work(sub, what):
    sub.add_argument("--max-work", type=cap, default=10_000_000, metavar="N",
                     help=f"{what} (default 10000000)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latquot",
        description="Congruences, quotients, and largest class-quotients of finite lattices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="size, distributivity, modularity, |Con|")
    p.add_argument("lattice")
    _add_json(p)
    _add_max_con(p)
    _add_max_work(p, _LIST_WORK + "; above it |Con| prints n/a")
    p.set_defaults(func=cmd_info)

    for name in ("delta", "kappa"):
        p = subs.add_parser(name, help="least congruence with quotient in the class")
        p.add_argument("lattice")
        _add_class(p)
        _add_json(p)
        p.set_defaults(func=cmd_delta)

    p = subs.add_parser("quotient", help="emit the quotient lattice as text")
    p.add_argument("lattice")
    p.add_argument("congruence", help="block notation, or the keyword delta/kappa")
    _add_class(p, _BLOCKS_WORK)
    _add_json(p)
    p.set_defaults(func=cmd_quotient)

    p = subs.add_parser("product", help="emit the direct product as text")
    p.add_argument("lattice")
    p.add_argument("other")
    _add_json(p)
    _add_max_work(p, "cap on the product's meet and join tables, (|L1| |L2|)^2 entries")
    p.set_defaults(func=cmd_product)

    p = subs.add_parser("congruences", help="enumerate the congruence lattice")
    p.add_argument("lattice")
    _add_json(p)
    _add_max_con(p)
    _add_max_work(p, _LIST_WORK)
    p.set_defaults(func=cmd_congruences)

    p = subs.add_parser("check", help="verify a structural theorem")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("lattice")
    p.add_argument("other", nargs="?", help="second lattice (theorem 3)")
    _add_class(p, _CHECK_WORK)
    _add_json(p)
    _add_max_con(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("dot", help="Hasse diagram in DOT format")
    p.add_argument("lattice")
    p.add_argument("--highlight", metavar="CONG",
                   help="congruence (block notation or delta/kappa) to cluster")
    _add_class(p, _BLOCKS_WORK)
    p.set_defaults(func=cmd_dot)

    p = subs.add_parser("catalog", help="list or dump the stock lattices")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    """Run one command and return its exit code.  A reader that closes
    stdout early, as ``latquot ... | head -n 1`` does, is not an error: the
    output stops, and the code is the command's own if it had finished,
    else 0."""
    code = EXIT_OK
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that write nowhere
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
    except SizeLimitExceeded as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
