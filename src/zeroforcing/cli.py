"""Command-line front end: generation, computation, and batch census over graph6.

Subcommands read graph6 records from --in (default stdin), one per line, and
write one record per graph, so generators and computations compose through
pipes: `zeroforcing gen heawood | zeroforcing bounds`.

Every record subcommand follows one policy: a record that fails to parse or
compute is skipped with a `line N: <message>` note on stderr, and the rest
of the input is still processed.  An exhausted solver budget still prints
its `Z>=k` record.  Exit status: 0 on success, 1 if any record was skipped or
hit its budget (or on a generator or file error), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import families, spectral
from .forcing import closure, zero_forcing_number
from .graph6 import parse_graph6, write_graph6
from .graphs import edge_connectivity
from .recognition import recognize_z3
from .spanning import degree_census, spanning_tree


def _fmt_set(vertices) -> str:
    return "{" + ",".join(map(str, sorted(vertices))) + "}"


def _vertex_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex ids, got {text!r}") from None


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return budget


def _int(token: str, usage: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(usage) from None


def _gen_graphs(spec: list, order: int | None) -> list:
    """Resolve a generator mini-spec into Graphs.

    Grammar: `family t=T m=M n1,..,nT` or `family --order N`;
    `prism N [sigma=i,j]`; `necklace B`; `heawood`; `cex16`.
    """
    if not spec:
        raise ValueError("gen needs a generator spec")
    kind, args = spec[0], spec[1:]
    if kind in ("heawood", "cex16"):
        if args:
            raise ValueError(f"usage: gen {kind}")
        return [families.heawood_graph() if kind == "heawood"
                else families.counterexample16()]
    if kind == "necklace":
        usage = "usage: gen necklace B"
        if len(args) != 1:
            raise ValueError(usage)
        return [families.necklace(_int(args[0], usage))]
    if kind == "prism":
        usage = "usage: gen prism N [sigma=i,j]"
        if len(args) not in (1, 2):
            raise ValueError(usage)
        n = _int(args[0], usage)
        sigma = None
        if len(args) == 2:
            pair = args[1][len("sigma="):].split(",")
            if not args[1].startswith("sigma=") or len(pair) != 2:
                raise ValueError(usage)
            sigma = (_int(pair[0], usage), _int(pair[1], usage))
        return [families.permutation_prism(n, sigma)]
    if kind == "family":
        if order is not None:
            return [g for _, g in families.family_members(order)]
        params = dict(token.split("=", 1) for token in args if "=" in token)
        plain = [token for token in args if "=" not in token]
        usage = "usage: gen family t=T m=M [n1,..,nT] | gen family --order N"
        if set(params) != {"t", "m"} or len(plain) > 1 or len(args) != 2 + len(plain):
            raise ValueError(usage)
        t, m = _int(params["t"], usage), _int(params["m"], usage)
        indices = [_int(x, usage) for x in plain[0].split(",")] if plain else []
        if len(indices) != t:
            raise ValueError(f"expected {t} ladder indices, got {len(indices)}")
        blocks = tuple([("M", ni) for ni in indices] + [("T", m)])
        return [g for _, g in families.distinct_assemblies(blocks)]
    raise ValueError(f"unknown generator {kind!r}")


# Record subcommands: (args, line, graph) -> (text, ok); ok is False when the
# solver budget ran out before the record's answer was exact.

def _closure(args, line, g):
    derived = closure(g, args.black)
    trace = ",".join(f"{u}>{v}" for u, v in derived.trace)
    return f"{line}  black={_fmt_set(derived.black)}  trace=[{trace}]", True


def _zf(args, line, g):
    result = zero_forcing_number(g, budget=args.budget)
    z = str(result.z) if result.exact else f">={result.lower_bound}"
    witness = _fmt_set(result.witness) if result.exact else "-"
    if args.format == "tsv":
        return f"{line}\t{z}\t{witness}", result.exact
    relation = "=" if result.exact else ""
    return f"{line}  Z{relation}{z}  witness={witness}", result.exact


def _verdict(report) -> str:
    if report.m is not None:
        return f"M={report.m}"
    upper = report.upper if report.upper is not None else "?"
    return f"M in [{report.lower},{upper}]"


def _bounds(args, line, g):
    report = spectral.bounds_report(g, budget=args.budget)
    exact = report.upper is not None
    tags = " ".join(f"{name}={value}" for name, value in report.lower_bounds)
    upper = str(report.upper) if exact else f"unknown (>= {report.upper_floor})"
    witness = _fmt_set(report.witness) if exact else "-"
    lines = [f"graph6: {write_graph6(g)}", f"L: {report.lower} [{tags}]",
             f"U: {upper}", f"witness: {witness}", f"verdict: {_verdict(report)}"]
    return "\n".join(lines), exact


def _recognize(args, line, g):
    result = recognize_z3(g)
    if result.member:
        return f"{line}  member  spec={result.spec.label()}", True
    if result.edge_connectivity is not None:
        return f"{line}  non-member  kappa={result.edge_connectivity}", True
    return f"{line}  non-member  Z={result.z}", True


def _spantree(args, line, g):
    tree = spanning_tree(g, args.root)
    if args.format == "graph6":
        return write_graph6(tree), True
    deleted = ",".join(f"({u},{v})" for u, v in sorted(g.edges - tree.edges))
    try:
        census = degree_census(tree)
        extra = f"  n1={census.n1} n2={census.n2} n3={census.n3}"
    except ValueError:              # a vertex of degree 0 or above 3
        extra = ""
    return (f"{write_graph6(tree)}  root={args.root}  "
            f"deleted=[{deleted}]{extra}"), True


def _census(args, line, g):
    kappa = edge_connectivity(g)
    report = spectral.bounds_report(g, budget=args.budget)
    sources = dict(report.lower_bounds)
    upper = str(report.upper) if report.upper is not None else \
        f">={report.upper_floor}"
    row = [line, str(g.n), "1" if g.is_cubic() else "0", str(kappa), upper,
           str(sources["eigenvalue"]), str(sources["twin"]), "-", _verdict(report)]
    return "\t".join(row), report.upper is not None


# Flags as (name, add_argument keywords); an unset default is None.
_IN = ("--in", {"dest": "infile",
                "help": "input file of graph6 records (default stdin)"})
_OUT = ("--out", {"dest": "outfile", "help": "output file (default stdout)"})
_BUDGET = ("--budget", {"type": _budget,
                        "help": "largest witness size the solver may try"})


def _format(*choices):
    return ("--format", {"choices": choices, "default": choices[0]})


# name -> (record function, help line, separator printed between two output
# records, flags it reads); gen has no record function, main runs it apart
COMMANDS = {
    "gen": (None, "emit generated graphs as graph6", "", (
        ("spec", {"nargs": "*", "help": "heawood | cex16 | necklace B | "
                  "prism N [sigma=i,j] | family t=T m=M n1,..,nT"}),
        ("--order", {"type": int,
                     "help": "with `family`: emit every member of this order"}),
        ("--out", {"dest": "outfile"}))),
    "closure": (_closure, "derived coloring of an initial set", "", (
        _IN, _OUT, ("--black", {"type": _vertex_list, "default": "",
                                "help": "initial black set, e.g. 0,1,2"}))),
    "zf": (_zf, "exact zero forcing number", "",
           (_IN, _OUT, _format("text", "tsv"), _BUDGET)),
    "bounds": (_bounds, "maximum-nullity sandwich report", "\n",
               (_IN, _OUT, _BUDGET)),
    "recognize": (_recognize, "zero-forcing-number-3 membership", "", (_IN, _OUT)),
    "spantree": (_spantree, "layered spanning tree", "", (
        _IN, _OUT, _format("text", "graph6"), ("--root", {"type": int, "default": 0}))),
    "census": (_census, "TSV invariants over a graph6 stream", "",
               (_IN, _OUT, _BUDGET)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one subcommand, whose prog is `zeroforcing <command>`;
    with no command, the full tree, whose help and errors list them all."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"zeroforcing {command}")
        parsers = [(command, parser)]
    else:
        parser = argparse.ArgumentParser(
            prog="zeroforcing",
            description="zero forcing numbers, cubic families, and nullity bounds")
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = [(name, sub.add_parser(name, help=help))
                   for name, (_, help, _, _) in COMMANDS.items()]
    for name, p in parsers:
        for flag, keywords in COMMANDS[name][3]:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its subcommand builds that subcommand's parser alone
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    args = parser.parse_args(argv[1:] if command else argv)
    command = command or args.command
    run, _, sep_between, _ = COMMANDS[command]
    if command == "gen" and args.order is not None and args.spec != ["family"]:
        parser.error("--order takes `family` and no block spec")
    try:
        with contextlib.ExitStack() as files:
            infile = getattr(args, "infile", None)
            instream = files.enter_context(open(infile)) if infile else sys.stdin
            out = files.enter_context(open(args.outfile, "w")) if args.outfile \
                else sys.stdout
            if command == "gen":
                for g in _gen_graphs(args.spec, args.order):
                    print(write_graph6(g), file=out)
                return 0
            status = 0
            sep = ""
            for ln, raw in enumerate(instream, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    text, ok = run(args, line, parse_graph6(line))
                except (ValueError, RuntimeError) as exc:
                    print(f"line {ln}: {exc}", file=sys.stderr)
                    status = 1
                    continue
                print(sep + text, file=out)
                sep = sep_between
                if not ok:
                    status = 1
            return status
    except (ValueError, OSError) as exc:
        print(f"zeroforcing: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
