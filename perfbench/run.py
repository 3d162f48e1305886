"""One benchmark for the engine's four user paths.

One run of one workload (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload enum-large --seed 0 --seconds 20 --trace 0

prints every metric with its unit and sample count, a ``{"detail": ...}``
line, and last the result object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

A set (every workload, each in its own child process), written as one
result file with the machine fingerprint::

    python3 perfbench/run.py --seed 0 [--trace 1] [--out FILE]
    python3 perfbench/run.py --smoke [--trace 1]    # tiny inputs, < 60 s

Regenerate the pinned references (checked against independent engines)::

    python3 perfbench/run.py --gen
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fingerprint() -> dict:
    """The machine a result was measured on, plus the commit."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


def sample_counts(detail: dict) -> dict[str, int]:
    """How many samples each end-to-end metric summarizes."""
    latencies = detail["latency"]["n"]
    return {
        "setup_s": len(detail.get("setup_samples_s", ())), "peak_rss_mb": 1,
        "op_p50_ms": latencies, "op_p90_ms": latencies, "ops_per_s": detail["ops"],
    }


def print_metrics(workload: str, result: dict) -> None:
    n = sample_counts(result["detail"])
    for name, metric in result["metrics"].items():
        count = f"n={n[name]}" if name in n else ""
        print(f"{workload:<14} {name:<40} {metric['value']:>14.6g} {metric['unit']:<6} {count}")
    status = "correct" if result["correct"] else f"FAILED {result['failed']}"
    print(f"{workload:<14} {status} ({result['attempted']} checks)")


def run_one(args) -> int:
    from perfbench.workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_metrics(args.workload, result)
    detail = result.pop("detail")
    for failure in detail["failures"]:
        print(f"  {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_set(args) -> int:
    from perfbench.workloads import OUT, WORKLOADS

    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2])["detail"]
        print_metrics(workload, result)
        results[workload] = result
    document = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "workloads": results,
    }
    suffix = ("-trace" if args.trace else "") + ("-smoke" if args.smoke else "")
    out = Path(args.out) if args.out else OUT / f"set-seed{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def generate() -> int:
    from perfbench import references
    from perfbench.workloads import FULL, SMOKE

    keys = []
    for scale in (FULL, SMOKE):
        keys += [*scale.enum_items, *scale.library, *scale.solve_big]
    refs = references.generate(keys)
    references.PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {references.PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, as a set)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, help="measurement window (20, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--out", help="result file of a set")
    parser.add_argument("--gen", action="store_true", help="rewrite expected/references.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 20.0

    from perfbench.workloads import WORKLOADS

    if args.gen:
        return generate()
    if args.workload is None:
        return run_set(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
