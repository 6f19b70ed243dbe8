"""Command-line interface.

Exit codes: 0 success; 1 a checked property failed; 2 usage, parse or
precondition error; 3 an enumeration or sampling budget ran out; 4 an
internal error (an unexpected exception, reported on one stderr line); 141
(128 + SIGPIPE) the reader closed the output pipe, with no message.
Budgets resolve as flag over WELLDOM_BUDGET over the builtin default.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .analysis import (
    OracleSection,
    analyze,
    characterized_wcw_basis,
    characterized_wwd_basis,
    run_property_sweep,
)
from .fixtures import builtin_fixtures, run_builtin_checks
from .generators import GeneratorConfig
from .graphs import Graph, ParseError, parse_graph
from .linalg import SubspaceBasis
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    enumerate_families,
)
from .structure import NotApplicableError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

# explicit budgets lift the vertex gates up to the graph6 limit and guard by
# enumerated-set count alone
OPEN_VERTEX_GATE = 62


class UsageError(Exception):
    pass


def resolve_budget(flag_value: int | None = None) -> EnumerationBudget:
    value = flag_value
    if value is None:
        raw = os.environ.get("WELLDOM_BUDGET")
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise UsageError(f"WELLDOM_BUDGET must be an integer, got {raw!r}") from None
    if value is None:
        return DEFAULT_BUDGET
    if value < 1:
        raise UsageError("budget must be a positive number of sets")
    return EnumerationBudget(
        max_independent_vertices=OPEN_VERTEX_GATE,
        max_dominating_vertices=OPEN_VERTEX_GATE,
        max_sets=value,
    )


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_graph(text, fmt)


def _print_basis(basis: SubspaceBasis) -> None:
    print(f"dimension: {basis.dimension}")
    for cells in basis.row_texts():
        print("  " + " ".join(cells))


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write_json(value, write, indent: str = "\n") -> None:
    """Write ``value`` piece by piece, as the text of json.dumps(value, indent=2).

    ``indent`` is the newline and indentation of the value's own level.  A
    SubspaceBasis is written as its to_json_dict() would be, one row at a time
    from its sparse rows, so no dense basis and no whole document is built.
    """
    inner = indent + "  "
    if isinstance(value, SubspaceBasis):
        write(f'{{{inner}"ambient_dim": {value.ambient_dim},{inner}"dimension": '
              f'{value.dimension},{inner}"basis": ')
        sep = "["
        for cells in value.row_texts():  # never empty: a row has ambient_dim >= 1 entries
            write(f'{sep}{inner}  [{inner}    "' + f'",{inner}    "'.join(cells) + f'"{inner}  ]')
            sep = ","
        write(("[]" if sep == "[" else inner + "]") + indent + "}")
    elif type(value) is dict:
        sep = "{"
        for key, item in value.items():
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(item, write, inner)
            sep = ","
        write("{}" if sep == "{" else indent + "}")
    elif type(value) in (list, tuple):
        try:
            texts = [_SCALARS[type(x)](x) for x in value]
        except KeyError:  # a container among the items
            sep = "["
            for item in value:
                write(sep + inner)
                _write_json(item, write, inner)
                sep = ","
            write(indent + "]")
        else:
            write(f"[{inner}" + f",{inner}".join(texts) + f"{indent}]" if texts else "[]")
    else:
        write(_SCALARS[type(value)](value))


def _print_json(value) -> None:
    """Print ``value`` as print(json.dumps(value, indent=2)) would, without building the text."""
    write = sys.stdout.write
    _write_json(value, write)
    write("\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    report = analyze(g, resolve_budget())
    if args.json:
        _print_json(report.json_tree())
    else:
        print(f"vertices: {report.vertex_count}, edges: {report.edge_count}, "
              f"connected: {report.connected}")
        present = [str(k) for k, flag in report.cycles_present.items() if flag]
        print("cycle lengths present (3..7): " + (", ".join(present) if present else "none"))
        rec = report.recognition
        if rec.applicable:
            print(f"well-covered: {rec.well_covered}, well-dominated: {rec.well_dominated} "
                  f"(clauses: {', '.join(rec.component_clauses)})")
        else:
            print(f"recognition not applicable: {rec.reason}")
        char = report.characterization
        if char.applicable:
            print(f"weight spaces: independent dim {char.wcw.dimension}, "
                  f"dominating dim {char.wwd.dimension}")
        else:
            print(f"characterization not applicable: {char.reason}")
        orc = report.oracle
        if orc.independent_available and orc.dominating_available:
            print(f"oracle: {orc.maximal_independent_count} maximal independent, "
                  f"{orc.minimal_dominating_count} minimal dominating; "
                  f"domination chain {orc.domination} <= {orc.independent_domination} "
                  f"<= {orc.independence} <= {orc.upper_domination}")
        for reason in orc.skip_reasons:
            print(f"oracle skipped: {reason}")
        passed = sum(1 for c in report.checks if c.status == "pass")
        skipped = sum(1 for c in report.checks if c.status == "skip")
        print(f"checks: {passed} passed, {len(report.failed_checks)} failed, {skipped} skipped")
    for check in report.failed_checks:
        print(f"check failed: {check.name}: {check.detail}", file=sys.stderr)
    return EXIT_CHECK_FAILED if report.failed_checks else EXIT_OK


def _weight_space_command(args: argparse.Namespace, engine, label: str) -> int:
    g = _read_graph(args.file, args.format)
    outcome = engine(g)
    if args.json:
        payload = {
            "schema_version": 1,
            "space": label,
            "special_forms": [form.value for form in outcome.special_forms],
            "basis": outcome.basis,
            "notes": list(outcome.notes),
        }
        _print_json(payload)
    else:
        print(f"special forms: {', '.join(form.value for form in outcome.special_forms)}")
        _print_basis(outcome.basis)
        for note in outcome.notes:
            print(f"note: {note}")
    return EXIT_OK


def _cmd_wcw(args: argparse.Namespace) -> int:
    return _weight_space_command(args, characterized_wcw_basis, "wcw")


def _cmd_wwd(args: argparse.Namespace) -> int:
    return _weight_space_command(args, characterized_wwd_basis, "wwd")


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    budget = resolve_budget(args.budget)
    section = OracleSection.from_families(*enumerate_families(g, budget))
    # both families are complete here, so availability and skips say nothing
    payload = {"schema_version": 1, **section.json_tree()}
    for key in ("independent_available", "dominating_available", "skip_reasons"):
        del payload[key]
    if args.json:
        _print_json(payload)
    else:
        for key, value in payload.items():
            if key not in ("schema_version", "wcw", "wwd"):
                print(f"{key}: {value}")
        print("equal-weight space of maximal independent sets:")
        _print_basis(section.wcw)
        print("equal-weight space of minimal dominating sets:")
        _print_basis(section.wwd)
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if not args.run:
        rows = [(f.name, f.graph.n, f.graph.edge_count) for f in builtin_fixtures()]
        if args.json:
            _print_json([{"name": n, "vertices": v, "edges": e} for n, v, e in rows])
        else:
            for name, v, e in rows:
                print(f"{name}: {v} vertices, {e} edges")
        return EXIT_OK
    results = run_builtin_checks(resolve_budget())
    if args.json:
        _print_json([{"name": r.name, "ok": r.ok, "failures": list(r.failures)} for r in results])
    else:
        for r in results:
            print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}")
            for failure in r.failures:
                print(f"     {failure}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_CHECK_FAILED


def _cmd_proptest(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        max_n=args.max_n,
        forbidden_cycles=args.forbid,
        seed=args.seed,
        count=args.count,
    )
    report = run_property_sweep(cfg, resolve_budget())
    print(f"graphs checked: {report.graphs_checked}")
    print(f"connected family instances: {report.family_instances}")
    print(f"failures: {len(report.failures)}")
    for failure in report.failures:
        print(f"  {failure}", file=sys.stderr)
    for skip in report.skips:
        print(f"skipped: {skip}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _parse_forbid(text: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        lengths = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(k < 3 for k in lengths):
        raise argparse.ArgumentTypeError("cycle lengths start at 3")
    return lengths


def _at_least(floor: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welldom",
        description="Recognition, weight spaces and enumeration oracles for "
                    "well-covered and well-dominated graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_command(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="graph file")
        p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    add_graph_command("analyze", _cmd_analyze,
                      "full report with recognition, weight spaces, oracle and cross-checks")
    add_graph_command("wcw", _cmd_wcw,
                      "equal-weight space of the maximal independent sets")
    add_graph_command("wwd", _cmd_wwd,
                      "equal-weight space of the minimal dominating sets")
    oracle_p = add_graph_command("oracle", _cmd_oracle,
                                 "brute-force enumeration, no characterizations")
    oracle_p.add_argument("--budget", type=int, default=None,
                          help="maximum number of enumerated sets")

    fixtures_p = sub.add_parser("fixtures", help="list or verify the builtin examples")
    fixtures_p.add_argument("--run", action="store_true", help="verify expectations")
    fixtures_p.add_argument("--json", action="store_true")
    fixtures_p.set_defaults(handler=_cmd_fixtures)

    proptest_p = sub.add_parser("proptest", help="randomized property sweep")
    proptest_p.add_argument("--count", type=_at_least(0), default=100)
    proptest_p.add_argument("--max-n", dest="max_n", type=_at_least(1), default=10)
    proptest_p.add_argument("--seed", type=int, default=0)
    proptest_p.add_argument("--forbid", type=_parse_forbid, default=frozenset(),
                            help="comma-separated cycle lengths, e.g. 4,5,6")
    proptest_p.set_defaults(handler=_cmd_proptest)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it unchanged, and building it
    costs more than many a command."""
    return build_parser()


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:  # the reader is gone: there is no one to tell
        return EXIT_BROKEN_PIPE
    except (UsageError, ParseError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # a fault in welldom itself, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    code = cli_main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the interpreter flushes stdout once more at exit, which would fail
        # again and print a warning: what is left goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()


__all__ = ["build_parser", "cli_main", "main", "resolve_budget"]
