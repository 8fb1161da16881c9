"""Command line front end.

Subcommands:
    construct   build one map from the family construction and print its record
    enumerate   exhaustive census of coprime-qualifying reversing triples,
                scanned from one involution per conjugacy class
    verify      full verification report for one configuration (exit 2 on fail)
    export      DOT text of the underlying graph of a constructed map
    check       recompute a stored map record and compare every field
                (exit 2 on any difference)

construct and export take the point index --k (default 2 for psl2, else 0)
and, for ext only, the exponents --c1 and --c2 of x and y (default 1 and 0).

Exit codes: 0 success/pass, 1 usage error, 2 verification failure,
3 budget exceeded, 4 internal error (a search the theory guarantees to
succeed found nothing, or a constructed triple is malformed or does not
generate G: a bug, not a usage error).  No command builds a group of more
elements than the budget (--budget, else the REVMAPS_BUDGET environment
variable, else 20000; below 1 is a usage error).
A group over it is refused from its order formula, before any work.
--jobs is accepted and ignored: the scan is serial.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Callable

from .groups import DEFAULT_BUDGET, FAMILIES, PGL2, PSL2, BudgetExceeded, GroupError, build_group
from .mapgeom import (
    SCHEMA_VERSION,
    MapError,
    MapGeometry,
    build_revmap,
    map_record,
    to_dot,
    underlying_graph,
)
from .triples import ConstructionError, ext_triple, pgl_triple, psl_triple, scan_reversing_census
from .verify import census_json, check_coprime, report_json, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def resolve_budget(flag: int | None) -> int:
    """--budget if given, else REVMAPS_BUDGET if set, else the default; at least 1."""
    raw = flag if flag is not None else os.environ.get("REVMAPS_BUDGET", str(DEFAULT_BUDGET))
    try:
        budget = int(raw)
    except ValueError:
        raise GroupError(f"REVMAPS_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        raise GroupError(f"the budget must be at least 1, got {budget}")
    return budget


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves no state on the parser
    top = argparse.ArgumentParser(
        prog="revmaps",
        description="construct and verify arc-transitive maps with chi coprime to |E|",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, with_k=False):
        sp.add_argument("--family", choices=FAMILIES, required=True)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--m", type=int, default=1)
        if with_k:
            sp.add_argument("--k", type=int, default=None, help="point index")
            sp.add_argument("--c1", type=int, default=None, help="ext only, default 1")
            sp.add_argument("--c2", type=int, default=None, help="ext only, default 0")
        sp.add_argument("--budget", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("construct", help="build one map from the construction")
    common(sp, with_k=True)
    sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("enumerate", help="census of qualifying reversing triples")
    common(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("verify", help="verification report for one configuration")
    common(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("export", help="DOT of the underlying graph")
    common(sp, with_k=True)

    sp = sub.add_parser("check", help="re-validate a stored map record")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    sp.add_argument("--budget", type=int, default=None)
    return top


def _build_map(args: argparse.Namespace) -> MapGeometry:
    """The map of the family construction; ``build_revmap`` tests its generation."""
    if args.family in (PSL2, PGL2) and (args.c1, args.c2) != (None, None):
        raise GroupError("--c1 and --c2 apply only to --family ext")
    # surface parameter errors, and a group over the budget, before any work
    G = build_group(args.family, args.p, args.m, budget=args.budget)
    if args.family == PSL2:
        triple = psl_triple(args.p, 2 if args.k is None else args.k)
    elif args.family == PGL2:
        triple = pgl_triple(args.p, args.k or 0)
    else:
        c1 = 1 if args.c1 is None else args.c1
        c2 = 0 if args.c2 is None else args.c2
        triple = ext_triple(args.p, args.m, args.k or 0, c1, c2)
    try:
        return build_revmap(G, *triple)
    except MapError as exc:
        # the construction, not the user, handed over a bad triple
        raise ConstructionError(f"constructed triple {triple}: {exc}") from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_text(rec: dict) -> str:
    c = rec["counts"]
    lines = [
        f"group      {rec['group']['family']} p={rec['group']['p']} m={rec['group']['m']}"
        f" order={rec['group']['order']}",
        f"cells      V={c['V']} E={c['E']} F={c['F']} (F1={c['F1']}, F2={c['F2']})",
        f"surface    chi={rec['chi']} orientable={rec['orientable']} genus={rec['genus']}",
        f"coprime    {check_coprime(rec['chi'], c['E'])}",
        f"stabilizers {rec['stabilizer_orders']}",
        f"graph      {rec['graph']['recognized']} valency={rec['vertex_valency']}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_construct(args: argparse.Namespace) -> int:
    rec = map_record(_build_map(args))
    if args.format == "text":
        _emit(args, _record_text(rec))
    else:
        _emit(args, report_json(rec))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    G = build_group(args.family, args.p, args.m, budget=args.budget)
    scan = scan_reversing_census(G)
    if args.format == "text":
        lines = [f"{G.descriptor()} order={G.order}"]
        for c in scan.qualifying:
            lines.append(
                f"pattern {c.pattern}: chi={c.chi}"
                f" triples={c.raw_triples} classes={len(c.classes)}"
            )
        if not scan.qualifying:
            lines.append("no qualifying reversing triples")
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": G.descriptor(),
            "group_order": G.order,
            "involution_count": scan.involution_count,
            "combos_scanned": scan.combos_scanned,
            "qualifying": census_json(G, scan),
        }
        _emit(args, report_json(payload))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_theorem(args.family, args.p, args.m, budget=args.budget)
    if args.format == "text":
        lines = [
            f"config {report['config']} order={report['group_order']}",
            f"patterns found: {report['patterns_found']}"
            f" (predicted {report['predicted_pattern']},"
            f" qualifies={report['predicted_qualifies']})",
            f"lemma checks: {report['lemma_checks']}",
            f"verdict: {report['verdict']}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, report_json(report))
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def _cmd_export(args: argparse.Namespace) -> int:
    _emit(args, to_dot(underlying_graph(_build_map(args))))
    return EXIT_OK


def _load_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except RecursionError:
            raise GroupError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise GroupError(f"{path}: not a JSON map record: {exc}") from None
    if not isinstance(rec, dict):
        raise GroupError(f"{path}: expected a map record object, got {type(rec).__name__}")
    group, triple = rec.get("group"), rec.get("triple")
    if not isinstance(group, dict) or not {"family", "p"} <= group.keys():
        raise GroupError(f"{path}: a map record needs a group object with family and p")
    if not isinstance(triple, dict) or not {"x", "y", "z"} <= triple.keys():
        raise GroupError(f"{path}: a map record needs a triple object with x, y and z")
    return rec


def _cmd_check(args: argparse.Namespace) -> int:
    rec = _load_record(args.input)
    if rec.get("kind", "reversing") != "reversing":
        raise GroupError("check supports reversing map records")
    desc = rec["group"]
    G = build_group(desc["family"], desc["p"], desc.get("m", 1), budget=args.budget)
    idx = tuple(G.element_from_json(rec["triple"][n]) for n in ("x", "y", "z"))
    fresh = map_record(build_revmap(G, *idx))
    # compared as canonical text, where 42.0 is not 42 nor true 1, as they are in Python
    same = report_json(fresh) == report_json(rec)
    verdict = {"verdict": "pass" if same else "fail", "recomputed": fresh}
    _emit(args, report_json(verdict))
    return EXIT_OK if same else EXIT_FAIL


_COMMANDS = {
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "check": _cmd_check,
}


def run_guarded(work: Callable[[], int]) -> int:
    """work()'s exit code, or one ``error:`` line on stderr and the code of what it raised."""
    try:
        return work()
    except SystemExit as exc:
        # argparse parsing inside work: 2 after its usage message, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except BudgetExceeded as exc:
        code, message = EXIT_BUDGET, exc
    except ConstructionError as exc:
        code, message = EXIT_INTERNAL, exc
    except (GroupError, MapError, OSError, KeyError, ValueError) as exc:
        code, message = EXIT_USAGE, exc
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    def work() -> int:
        args = _parser().parse_args(argv)
        args.budget = resolve_budget(args.budget)
        # check takes no --jobs
        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise GroupError(f"--jobs must be >= 1, got {jobs}")
        return _COMMANDS[args.command](args)

    return run_guarded(work)


if __name__ == "__main__":
    sys.exit(main())
