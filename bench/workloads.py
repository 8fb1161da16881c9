"""Workload inputs, the operations that run them, and the per-op correctness gate.

A workload is a list of ops drawn from the run seed; every pass of a run
repeats the same list.  Every op names the groups it touches, so the worker
can build them before timing starts, and is followed by a gate that checks
facts which hold independently of the output schema (verdicts, patterns,
Euler characteristics, counts).

    matrix     verify_theorem over VERIFY_MATRIX plus the A5 flag-regular pair
    census     ``revmaps enumerate`` in-process on pgl2 19 and psl2 31
    construct  ``revmaps construct`` -> ``check`` -> ``export`` round trips
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("matrix", "census", "construct")

# (family, p, m) configs of revmaps.verify.VERIFY_MATRIX, copied so that the
# inputs stay fixed by the benchmark rather than by the program under test.
MATRIX_CONFIGS = (
    ("psl2", 5, 1),
    ("psl2", 7, 1),
    ("psl2", 11, 1),
    ("psl2", 13, 1),
    ("pgl2", 5, 1),
    ("pgl2", 7, 1),
    ("pgl2", 11, 1),
    ("ext", 7, 3),
    ("ext", 7, 5),
    ("ext", 11, 3),
)
A5 = ("a5",)

CENSUS_CONFIGS = (("pgl2", 19, 1), ("psl2", 31, 1))

CONSTRUCT_POOL = (
    [("psl2", p, 1) for p in (5, 13, 17)]
    + [("pgl2", p, 1) for p in (5, 7, 11, 13, 17, 19)]
    + [("ext", 7, 3), ("ext", 7, 5), ("ext", 7, 9), ("ext", 11, 3), ("ext", 11, 5)]
)
# Every pool group appears this many times per pass, in seeded order, so the
# seed moves k, (c1, c2) and the order of work but not the group mix, and the
# second draw of a group lands on a handle whose memos are already warm.
CONSTRUCT_ROUNDS = 2


def group_order(family: str, p: int, m: int) -> int:
    pgl = p * (p - 1) * (p + 1)
    return {"psl2": pgl // 2, "pgl2": pgl, "ext": m * pgl}[family]


def construction_pattern(family: str, p: int, m: int) -> tuple[int, int, int]:
    """Dihedral pattern of the family construction, as classified in the paper."""
    if family == "psl2":
        return (2 * p, p + 1, p - 1)
    if family == "pgl2":
        return (2 * p, 2 * (p + 1), 2 * (p - 1))
    return (2 * m * p, 2 * (p + 1), 2 * (p - 1))


def pattern_chi(order: int, pattern) -> int:
    return sum(order // d for d in pattern) - order // 2


def config_key(cfg) -> str:
    return " ".join(str(v) for v in cfg)


@dataclass
class Op:
    """One timed operation; ``args`` is everything the program receives."""

    kind: str
    config: tuple
    args: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        return f"{self.kind} {config_key(self.config)} {extra}".strip()


def groups_touched(op: Op) -> list[tuple[str, int, int]]:
    """Every group handle the op builds, so that set-up can build it first."""
    if op.config == A5:
        return [("psl2", 5, 1)]
    family, p, m = op.config
    out = [(family, p, m)]
    if op.kind == "verify" or family == "ext":
        # check_pgl_action, the EXT generation shortcut and the EXT
        # construction all work in PGL(2,p)
        out.append(("pgl2", p, 1))
    return out


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "matrix":
        ops = [Op("verify", cfg) for cfg in MATRIX_CONFIGS + (A5,)]
        rng.shuffle(ops)
        return ops
    if workload == "census":
        # fixed order: the second scan runs on a heap holding the first one's
        # memo, which moves both its time and peak RSS by up to 15%
        return [Op("enumerate", cfg) for cfg in CENSUS_CONFIGS]
    if workload == "construct":
        draws = list(CONSTRUCT_POOL) * CONSTRUCT_ROUNDS
        rng.shuffle(draws)
        return [Op("roundtrip", cfg, _construct_args(rng, *cfg)) for cfg in draws]
    raise ValueError(f"unknown workload {workload!r}")


def _construct_args(rng: random.Random, family: str, p: int, m: int) -> dict:
    if family == "psl2":
        return {"k": rng.randint(2, p)}
    if family == "pgl2":
        return {"k": rng.randint(0, p)}
    c1 = rng.randrange(m)
    c2 = rng.choice([c for c in range(m) if math.gcd((c1 - c) % m, m) == 1])
    return {"k": rng.randint(0, p), "c1": c1, "c2": c2}


# -- running an op -------------------------------------------------------------


def run_op(op: Op, tmp: Path, tracer) -> object:
    """Execute one op, writing any files into the empty directory ``tmp``.

    The return value is handed to :func:`gate`, outside the timed region.
    """
    if op.kind == "verify":
        from revmaps.verify import a5_exceptional_case, report_json, verify_theorem

        if op.config == A5:
            report = a5_exceptional_case()
        else:
            family, p, m = op.config
            report = verify_theorem(family, p, m, jobs=1)
        return report_json(report)

    from revmaps import cli

    family, p, m = op.config
    common = ["--family", family, "--p", str(p), "--m", str(m)]
    if op.kind == "enumerate":
        out = tmp / "census.json"
        with tracer.region("cli.enumerate"):
            rc = cli.main(["enumerate", *common, "--jobs", "1", "--output", str(out)])
        return {"enumerate": rc}

    cons = common + [f"--{k}={v}" for k, v in sorted(op.args.items())]
    with tracer.region("cli.construct"):
        rc_construct = cli.main(["construct", *cons, "--output", str(tmp / "record.json")])
    with tracer.region("cli.check"):
        rc_check = cli.main(
            ["check", "--input", str(tmp / "record.json"), "--output", str(tmp / "check.json")]
        )
    with tracer.region("cli.export"):
        rc_export = cli.main(["export", *cons, "--output", str(tmp / "graph.dot")])
    return {"construct": rc_construct, "check": rc_check, "export": rc_export}


# -- the correctness gate ------------------------------------------------------


class GateError(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def gate(op: Op, result, tmp: Path, facts: dict) -> None:
    """Raise GateError unless the op's outputs hold every expected fact."""
    if op.kind == "verify":
        report = json.loads(result)
        _require(report["verdict"] == "pass", f"verdict {report['verdict']!r}")
        if op.config == A5:
            _gate_a5(report)
        else:
            _gate_verify(op.config, report, facts["matrix"][config_key(op.config)])
        return
    for step, rc in result.items():
        _require(rc == 0, f"{step} exited {rc}")
    if op.kind == "enumerate":
        payload = json.loads((tmp / "census.json").read_text())
        _gate_census(op.config, payload, facts["census"][config_key(op.config)])
    else:
        _gate_roundtrip(op.config, tmp)


def _gate_entries(order: int, entries, expected: dict, where: str) -> None:
    got = [
        (tuple(e["pattern"]), e["raw_triples"], e["classes"], e["chi"]) for e in entries
    ]
    want = [
        (tuple(pat), raw, cls, pattern_chi(order, pat))
        for pat, raw, cls in zip(
            expected["patterns"], expected["raw_triples"], expected["classes"]
        )
    ]
    _require(got == want, f"{where}: census {got} != expected {want}")


def _gate_verify(cfg, report: dict, expected: dict) -> None:
    order = group_order(*cfg)
    _require(report["group_order"] == order, f"group order {report['group_order']}")
    found = [tuple(ms) for ms in report["patterns_found"]]
    want = sorted(tuple(sorted(pat, reverse=True)) for pat in expected["patterns"])
    _require(found == want, f"patterns_found {found} != {want}")
    _gate_entries(order, report["census"], expected, "verify")
    chis = {e["chi"] for e in report["census"]}
    _require(
        len(report["maps"]) == sum(max(c, 1) for c in expected["classes"]),
        f"{len(report['maps'])} maps rebuilt",
    )
    for rec in report["maps"]:
        _gate_record(rec, order // 2)
        _require(rec["chi"] in chis, f"map chi {rec['chi']} not a census chi {chis}")


def _gate_a5(report: dict) -> None:
    counts = sorted(tuple(r["counts"][k] for k in "VEF") for r in report["maps"])
    _require(counts == [(6, 15, 10), (10, 15, 6)], f"A5 cell counts {counts}")
    for rec in report["maps"]:
        _gate_record(rec, 60 // 4)  # flag-regular: |E| = |G|/4
        _require(rec["chi"] == 1, f"A5 map chi {rec['chi']}")


def _gate_record(rec: dict, edges: int) -> None:
    c = rec["counts"]
    _require(c["E"] == edges, f"E = {c['E']}, expected {edges}")
    _require(c["V"] - c["E"] + c["F"] == rec["chi"], f"V - E + F != chi {rec['chi']}")


def _gate_census(cfg, payload: dict, expected: dict) -> None:
    order = group_order(*cfg)
    _require(payload["group_order"] == order, f"group order {payload['group_order']}")
    _require(payload["combos_scanned"] == expected["combos_scanned"], "combos_scanned")
    _gate_entries(order, payload["qualifying"], expected, "enumerate")


def _gate_roundtrip(cfg, tmp: Path) -> None:
    order = group_order(*cfg)
    rec = json.loads((tmp / "record.json").read_text())
    _gate_record(rec, order // 2)
    chi = pattern_chi(order, construction_pattern(*cfg))
    _require(rec["chi"] == chi, f"record chi {rec['chi']} != pattern chi {chi}")
    verdict = json.loads((tmp / "check.json").read_text())
    _require(verdict["verdict"] == "pass", f"check verdict {verdict['verdict']!r}")
    nodes, edges = dot_counts((tmp / "graph.dot").read_text())
    _require(nodes == rec["counts"]["V"], f"DOT has {nodes} nodes, V = {rec['counts']['V']}")
    _require(edges == rec["counts"]["E"], f"DOT has {edges} edges, E = {rec['counts']['E']}")


def dot_counts(text: str) -> tuple[int, int]:
    """Node and edge counts of DOT text, expanding ``[label="xK"]`` multiplicities."""
    nodes = edges = 0
    for line in text.splitlines():
        line = line.strip()
        if " -- " in line:
            mult = 1
            if '[label="x' in line:
                mult = int(line.split('[label="x', 1)[1].split('"', 1)[0])
            edges += mult
        elif line.endswith(";") and line[:-1].isdigit():
            nodes += 1
    return nodes, edges
