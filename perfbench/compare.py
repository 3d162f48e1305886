"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]

Each file is a set written by ``run.py`` (every workload, one seed).  Give
each side's files in the order they ran, alternating A and B, so that
``(A[i], B[i])`` are pairs.  Every row shows each side's median and
quartiles, the metric's bound from ``BENCHMARK.json``, and a verdict:

* ``better`` / ``worse`` — the median moved by more than the bound;
* ``same`` — it moved by no more than the bound;
* ``unresolved`` — a side's interquartile range is wider than the bound,
  unless every B run beats every A run (then ``better``).

The claim column applies the rule for claiming a gain: at least ten
pairs, B wins at least nine in ten of them (ties count for neither), and
the median gap exceeds A's interquartile range.

Results from different machines (fingerprints differing in anything but
the commit) or different settings are refused.  "work changed" marks a
workload whose output digest or an exact count differs between sides.
Exit status: 0, 1 if any row is worse, 2 if refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402
SETTINGS = ("seconds", "smoke", "trace")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def machine(result: dict) -> dict:
    return {k: v for k, v in result["fingerprint"].items() if k != "git_commit"}


def refusal(a: list[dict], b: list[dict]) -> str | None:
    """Why two sides cannot be compared, or ``None``."""
    first = a[0]
    for result in a + b:
        if machine(result) != machine(first):
            return f"different machines: {machine(first)} vs {machine(result)}"
        for key in SETTINGS:
            if result[key] != first[key]:
                return f"different {key}: {first[key]} vs {result[key]}"
    return None


def improves(new: float, old: float, better: str) -> bool:
    return new < old if better == "lower" else new > old


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    if max(spread(a)["iqr_share"], spread(b)["iqr_share"]) > bound:
        dominates = all(improves(y, x, better) for x in a for y in b)
        return "better" if dominates else "unresolved"
    median_a = statistics.median(a)
    change = (statistics.median(b) - median_a) / abs(median_a)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def claim(a: list[float], b: list[float], better: str) -> str:
    if len(a) < 10 or len(b) < 10:
        return "n/a (<10 pairs)"
    pairs = list(zip(a, b))
    wins = sum(improves(y, x, better) for x, y in pairs)
    side_a = spread(a)
    gap = statistics.median(b) - side_a["median"]
    met = (
        wins >= 0.9 * len(pairs)
        and improves(statistics.median(b), side_a["median"], better)
        and abs(gap) > side_a["q3"] - side_a["q1"]
    )
    return f"{'met' if met else 'not met'} ({wins}/{len(pairs)} wins)"


def work_changed(a: list[dict], b: list[dict], workload: str) -> list[str]:
    """Output digests and exact counts that differ between the sides."""
    def exact(result: dict) -> dict:
        entry = result["workloads"][workload]
        found = {"digest": entry["detail"]["digest"]}
        for name, metric in entry["metrics"].items():
            if metric["unit"] == "count" and not name.startswith("service."):
                found[name] = metric["value"]
        return found

    before = [exact(result) for result in a]
    after = [exact(result) for result in b]
    return sorted(
        name for name in before[0]
        if {r.get(name) for r in before} != {r.get(name) for r in after}
    )


def compare(a: list[dict], b: list[dict], benchmark: dict) -> tuple[list[dict], dict]:
    """Rows for every workload × end-to-end metric, and the changed work."""
    rows = []
    changed = {}
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        if not all(workload in result["workloads"] for result in a + b):
            continue
        changed[workload] = work_changed(a, b, workload)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values_a = [r["workloads"][workload]["metrics"].get(name, {}).get("value") for r in a]
            values_b = [r["workloads"][workload]["metrics"].get(name, {}).get("value") for r in b]
            if None in values_a or None in values_b:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": spread(values_a),
                "b": spread(values_b),
                "bound": metric["bound"],
                "verdict": verdict(values_a, values_b, metric["bound"], metric["better"]),
                "claim": claim(values_a, values_b, metric["better"]),
            })
    return rows, changed


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print("error: each side needs at least one result file", file=sys.stderr)
        return 2
    a, b = load(paths_a), load(paths_b)
    reason = refusal(a, b)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, changed = compare(a, b, benchmark)
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
          f" {'change':>8} {'bound':>6}  verdict     claim")
    for row in rows:
        side = {
            key: f"{row[key]['median']:.4g} [{row[key]['q1']:.4g}, {row[key]['q3']:.4g}]"
            for key in ("a", "b")
        }
        change = (row["b"]["median"] - row["a"]["median"]) / abs(row["a"]["median"])
        print(f"{row['workload']:<14} {row['metric']:<12} {side['a']:>32} {side['b']:>32}"
              f" {change:>+8.1%} {row['bound']:>6.0%}  {row['verdict']:<11} {row['claim']}")
    for workload, names in changed.items():
        if names:
            print(f"work changed on {workload}: {', '.join(names)}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
