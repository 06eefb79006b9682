"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py --parent runs/parent/* --change runs/change/*

Each file holds the stdout of one ``run.py --trace 0`` run.  Runs pair up
by workload and seed; make at least ten pairs per workload, alternating
which side runs first.

Per workload and end-to-end metric, one row:

* improved   - at least 10 pairs whose order alternated, the change wins at
               least 9 in 10 of them (ties count for neither), and the
               medians differ by more than the parent's own spread (the
               distance between its quartiles);
* unresolved - the parent's spread is wider than the metric's bound, and not
               every change run beats every parent run;
* worse      - the change's median is worse than the parent's by more than
               the metric's bound (BENCHMARK.json);
* unchanged  - otherwise.

A last row per workload compares the share of failed calls.  Exits 1 when
any row reads worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_record(path: str | Path) -> dict:
    """The full record in a run's stdout: the last JSON line that has one."""
    for line in reversed(Path(path).read_text().splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "workload" in obj and "provenance" in obj:
            return obj
    raise ValueError(f"{path}: no benchmark record found")


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: list[float], change: list[float], better: str, bound: float, alternating: bool = True
) -> str:
    """Apply the pairing rule and the regression bound to paired values
    (parent[i] and change[i] share a seed).  Without alternation a drift of
    the machine between the two sides reads as a gain, so no gain is
    claimed."""
    n = len(parent)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    q1, mp, q3 = quartile_spread(parent)
    mc = statistics.median(change)
    spread = q3 - q1
    gap = (mp - mc) if better == "lower" else (mc - mp)  # > 0: change is better
    if alternating and n >= MIN_PAIRS and wins >= WIN_SHARE * n and gap > spread:
        return "improved"
    scale = abs(mp) if mp else 1.0
    if spread / scale > bound:
        worst_change = max(change) if better == "lower" else min(change)
        best_parent = min(parent) if better == "lower" else max(parent)
        return "unchanged" if _better(worst_change, best_parent, better) else "unresolved"
    if -gap / scale > bound:
        return "worse"
    return "unchanged"


def alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """Did the side that ran first alternate from pair to pair?"""
    order = sorted(pairs, key=lambda pc: min(r["provenance"]["started_unix"] for r in pc))
    firsts = [p["provenance"]["started_unix"] < c["provenance"]["started_unix"] for p, c in order]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    by_key = {(r["workload"], r["provenance"]["seed"]): r for r in change if not r["trace"]}
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [
            (p, by_key[(workload, p["provenance"]["seed"])])
            for p in parent
            if not p["trace"] and p["workload"] == workload and (workload, p["provenance"]["seed"]) in by_key
        ]
        if not pairs:
            continue
        alternating = alternated(pairs)
        note = "" if alternating else "order did not alternate: no gain claimed"
        for name, m in metrics.items():
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "pairs": len(pairs),
                    "parent": statistics.median(pv),
                    "change": statistics.median(cv),
                    "verdict": verdict(pv, cv, m["better"], m["bound"], alternating),
                    "note": note,
                }
            )
        shares = [
            sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
            for side in ([p for p, _ in pairs], [c for _, c in pairs])
        ]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "pairs": len(pairs),
                "parent": shares[0],
                "change": shares[1],
                "verdict": "worse" if shares[1] > shares[0] else "improved" if shares[1] < shares[0] else "unchanged",
                "note": note,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True, help="run outputs of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="run outputs of the change")
    parser.add_argument("--spec", default=str(BENCH_DIR.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    rows = compare(
        [load_record(p) for p in args.parent], [load_record(c) for c in args.change], spec
    )
    print(f"{'workload':<17} {'metric':<20} {'pairs':>5} {'parent':>12} {'change':>12}  verdict")
    for r in rows:
        print(
            f"{r['workload']:<17} {r['metric']:<20} {r['pairs']:>5} {r['parent']:>12.6g}"
            f" {r['change']:>12.6g}  {r['verdict']}{'  (' + r['note'] + ')' if r['note'] else ''}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
