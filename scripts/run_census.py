#!/usr/bin/env python3
"""Run the full desk-scale verification matrix and write the reports.

Produces one JSON report per configuration plus the exceptional flag-regular
pair of PSL(2,5), a combined matrix report, and a plain-text summary table.

    python scripts/run_census.py --out out/ [--jobs N] [--budget B]
"""

import argparse
import sys
import time
from pathlib import Path

from revmaps.triples import DEFAULT_ENUM_BUDGET
from revmaps.verify import (
    VERIFY_MATRIX,
    a5_exceptional_case,
    report_json,
    verify_theorem,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    ap.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    reports = []
    for family, p, m in VERIFY_MATRIX:
        t0 = time.perf_counter()
        rep = verify_theorem(family, p, m, budget=args.budget, jobs=args.jobs)
        dt = time.perf_counter() - t0
        reports.append(rep)
        name = f"{family}_p{p}" + (f"_m{m}" if m > 1 else "")
        (out / f"{name}.json").write_text(report_json(rep))
        chi = rep["census"][0]["chi"] if rep["census"] else "-"
        patterns = str(rep["patterns_found"])
        rows.append(
            f"{family:<5} p={p:<3} m={m:<2} order={rep['group_order']:<6}"
            f" patterns={patterns:<18} chi={chi!s:<6}"
            f" verdict={rep['verdict']:<5} {dt:6.1f}s"
        )
        print(rows[-1])

    a5 = a5_exceptional_case()
    (out / "a5_flag_regular.json").write_text(report_json(a5))
    rows.append(f"a5 flag-regular pair: verdict={a5['verdict']}")
    print(rows[-1])

    combined = {
        "schema_version": 1,
        "configs": reports,
        "flag_regular": a5,
        "verdict": (
            "pass"
            if a5["verdict"] == "pass"
            and all(r["verdict"] == "pass" for r in reports)
            else "fail"
        ),
    }
    (out / "matrix.json").write_text(report_json(combined))
    (out / "summary.txt").write_text("\n".join(rows) + "\n")
    print(f"verdict: {combined['verdict']}  (reports in {out}/)")
    return 0 if combined["verdict"] == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
