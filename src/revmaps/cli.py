"""Command line front end.

Subcommands:
    construct   build one map from the family construction and print its record
    enumerate   exhaustive census of coprime-qualifying reversing triples,
                scanned from one involution per conjugacy class
    verify      full verification report for one configuration (exit 2 on fail)
    export      DOT text of the underlying graph of a constructed map
    check       recompute a stored map record and compare every field
                (exit 2 on any difference)

Exit codes: 0 success/pass, 1 usage error, 2 verification failure,
3 budget exceeded, 4 internal error (a search the theory guarantees to
succeed found nothing: a bug, not a usage error).  Every subcommand refuses
a group of more elements than the budget (--budget, or the REVMAPS_BUDGET
environment variable) before building it, and every exhaustive stage of
verify, the rotary check included, runs under that budget.  --jobs is
accepted and ignored: the scan is serial.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .groups import EXT, FAMILIES, PGL2, PSL2, BudgetExceeded, GroupError, build_group
from .mapgeom import (
    SCHEMA_VERSION,
    MapError,
    build_revmap,
    flag_system,
    map_record,
    to_dot,
    underlying_graph,
)
from .triples import (
    ConstructionError,
    DEFAULT_ENUM_BUDGET,
    ext_triple,
    make_triple,
    pgl_triple,
    psl_triple,
    scan_reversing_census,
)
from .verify import check_coprime, report_json, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


@dataclass
class JobConfig:
    command: str
    family: str = PSL2
    p: int = 5
    m: int = 1
    k: int | None = None
    c1: int = 1
    c2: int = 0
    budget: int = DEFAULT_ENUM_BUDGET
    jobs: int = 1
    output: str | None = None
    format: str = "json"
    input: str | None = None


def _env_budget(default: int) -> int:
    raw = os.environ.get("REVMAPS_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise GroupError(f"REVMAPS_BUDGET must be an integer, got {raw!r}")


def _parser() -> argparse.ArgumentParser:
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
            sp.add_argument("--c1", type=int, default=1)
            sp.add_argument("--c2", type=int, default=0)
        sp.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
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
    sp.add_argument("--format", choices=("dot",), default="dot")

    sp = sub.add_parser("check", help="re-validate a stored map record")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    return top


def _construct_triple(cfg: JobConfig):
    if cfg.family == PSL2:
        k = 2 if cfg.k is None else cfg.k
        return psl_triple(cfg.p, k)
    if cfg.family == PGL2:
        k = 0 if cfg.k is None else cfg.k
        return pgl_triple(cfg.p, k)
    k = 0 if cfg.k is None else cfg.k
    return ext_triple(cfg.p, cfg.m, k, cfg.c1, cfg.c2)


def _build_record(cfg: JobConfig) -> tuple[dict, object]:
    # surface parameter errors, and a group over the budget, before any work
    build_group(cfg.family, cfg.p, cfg.m, budget=cfg.budget)
    t = _construct_triple(cfg)
    M = build_revmap(t.group, t)
    return map_record(M), M


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
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


def _cmd_construct(cfg: JobConfig) -> int:
    rec, _ = _build_record(cfg)
    if cfg.format == "text":
        _emit(cfg, _record_text(rec))
    else:
        _emit(cfg, json.dumps(rec, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_enumerate(cfg: JobConfig) -> int:
    G = build_group(cfg.family, cfg.p, cfg.m, budget=cfg.budget)
    scan = scan_reversing_census(G, cfg.budget)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": G.descriptor(),
        "group_order": G.order,
        "involution_count": scan.involution_count,
        "combos_scanned": scan.combos_scanned,
        "qualifying": [
            {
                "pattern": list(c.pattern),
                "chi": c.chi,
                "raw_triples": len(c.triples),
                "classes": len(c.classes),
                "class_reps": [
                    {
                        "x": G.element_json(x),
                        "y": G.element_json(y),
                        "z": G.element_json(z),
                    }
                    for x, y, z in c.classes
                ],
            }
            for c in scan.qualifying
        ],
    }
    if cfg.format == "text":
        lines = [f"{G.descriptor()} order={G.order}"]
        for c in scan.qualifying:
            lines.append(
                f"pattern {c.pattern}: chi={c.chi}"
                f" triples={len(c.triples)} classes={len(c.classes)}"
            )
        if not scan.qualifying:
            lines.append("no qualifying reversing triples")
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _cmd_verify(cfg: JobConfig) -> int:
    report = verify_theorem(cfg.family, cfg.p, cfg.m, budget=cfg.budget)
    if cfg.format == "text":
        lines = [
            f"config {report['config']} order={report['group_order']}",
            f"patterns found: {report['patterns_found']}"
            f" (predicted {report['predicted_pattern']},"
            f" qualifies={report['predicted_qualifies']})",
            f"lemma checks: {report['lemma_checks']}",
            f"verdict: {report['verdict']}",
        ]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, report_json(report))
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def _cmd_export(cfg: JobConfig) -> int:
    _, M = _build_record(cfg)
    _emit(cfg, to_dot(underlying_graph(M)))
    return EXIT_OK


def _load_record(path: str) -> dict:
    with open(path) as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict):
        raise GroupError(f"{path}: expected a map record object, got {type(rec).__name__}")
    group, triple = rec.get("group"), rec.get("triple")
    if not isinstance(group, dict) or not {"family", "p"} <= group.keys():
        raise GroupError(f"{path}: a map record needs a group object with family and p")
    if not isinstance(triple, dict) or not {"x", "y", "z"} <= triple.keys():
        raise GroupError(f"{path}: a map record needs a triple object with x, y and z")
    return rec


def _cmd_check(cfg: JobConfig) -> int:
    rec = _load_record(cfg.input)
    if rec.get("kind", "reversing") != "reversing":
        raise GroupError("check supports reversing map records")
    desc = rec["group"]
    G = build_group(desc["family"], desc["p"], desc.get("m", 1), budget=cfg.budget)
    idx = tuple(G.element_from_json(rec["triple"][n]) for n in ("x", "y", "z"))
    t = make_triple(G, *idx)
    M = build_revmap(G, t)
    fresh = map_record(M, flag_system(M))
    # the stored record went through JSON, so compare the fresh one in that form
    same = json.loads(json.dumps(fresh)) == rec
    verdict = {"verdict": "pass" if same else "fail", "recomputed": fresh}
    _emit(cfg, json.dumps(verdict, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if same else EXIT_FAIL


_COMMANDS = {
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to the documented code
        return EXIT_USAGE if exc.code else EXIT_OK
    cfg = JobConfig(**vars(ns))
    try:
        cfg.budget = _env_budget(cfg.budget)
        if cfg.jobs < 1:
            raise GroupError(f"--jobs must be >= 1, got {cfg.jobs}")
        return _COMMANDS[cfg.command](cfg)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GroupError, MapError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
