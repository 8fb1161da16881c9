#!/usr/bin/env python3
"""Run the full desk-scale verification matrix and write the reports.

Produces one JSON report per configuration plus the exceptional flag-regular
pair of PSL(2,5), the combined matrix report, and a plain-text summary table
with one line per configuration.

    python scripts/run_census.py --out out/ [--budget B]
"""

import argparse
import sys
import time
from pathlib import Path

from revmaps.triples import DEFAULT_ENUM_BUDGET
from revmaps.verify import report_json, run_verify_matrix


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    matrix = run_verify_matrix(args.budget)
    elapsed = time.perf_counter() - t0

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
