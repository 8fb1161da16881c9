#!/usr/bin/env python3
"""Run the full desk-scale verification matrix and write the reports.

Produces one JSON report per configuration plus the exceptional flag-regular
pair of PSL(2,5), the combined matrix report, and a plain-text summary table
with one line per configuration.

    python scripts/run_census.py --out out/ [--budget B]

The size budget is resolved as for ``revmaps``: --budget, else the
REVMAPS_BUDGET environment variable, else 20000, and at least 1.  Exit
codes as for ``revmaps``: 0 pass, 2 a failed verdict, and with one ``error:`` line 3 over
the budget, 4 an internal error (a search the theory guarantees to succeed
found nothing) and 1 a bad budget or reports that cannot be written.  A
malformed flag exits 1 with argparse's usage message, and --help exits 0.
"""

import argparse
import sys
import time
from pathlib import Path

from revmaps.cli import resolve_budget, run_guarded
from revmaps.verify import report_json, run_verify_matrix


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--budget", type=int, default=None)
    return run_guarded(lambda: _run(ap.parse_args()))


def _run(args: argparse.Namespace) -> int:
    out, budget = Path(args.out), resolve_budget(args.budget)
    t0 = time.perf_counter()
    matrix = run_verify_matrix(budget)
    elapsed = time.perf_counter() - t0
    # only now, so that a refused budget leaves nothing behind
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for rep in matrix["configs"]:
        family, p, m = (rep["config"][k] for k in ("family", "p", "m"))
        name = f"{family}_p{p}" + (f"_m{m}" if m > 1 else "")
        (out / f"{name}.json").write_text(report_json(rep))
        chi = rep["census"][0]["chi"] if rep["census"] else "-"
        patterns = str(rep["patterns_found"])
        rows.append(
            f"{family:<5} p={p:<3} m={m:<2} order={rep['group_order']:<6}"
            f" patterns={patterns:<18} chi={chi!s:<6}"
            f" verdict={rep['verdict']}"
        )
    a5 = matrix["flag_regular"]
    (out / "a5_flag_regular.json").write_text(report_json(a5))
    rows.append(f"a5 flag-regular pair: verdict={a5['verdict']}")

    (out / "matrix.json").write_text(report_json(matrix))
    (out / "summary.txt").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"verdict: {matrix['verdict']}  ({elapsed:.1f}s, reports in {out}/)")
    return 0 if matrix["verdict"] == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
