"""``repro serve`` with the span tracer installed on its request path.

    python3 perfbench/serve_traced.py SPANS.jsonl.gz [repro serve options...]

Stop it with SIGINT; the spans of the server process are then written to
SPANS.  Spans inside the pool's worker processes are not collected.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.tracer import SERVER_TARGETS, Tracer, write_spans
    from repro import cli

    spans_path, *serve_args = argv
    with Tracer(SERVER_TARGETS, oracles=False) as tracer:
        status = cli.main(["serve", *serve_args])
    write_spans(Path(spans_path), tracer.spans(), tracer.counts)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
