"""Child processes of the benchmark.

python3 perfbench/child.py setup <workload> <seed>
    One set-up as the timed run does it: import torsal, build the
    workload, generate the first cycle's inputs and references, run the
    warm-up operations. The parent times the whole process.

python3 perfbench/child.py trace <summary.json> <torsal argv...>
    ``torsal <argv>`` with tracing installed after the import; stdout,
    stderr and the exit code are the CLI's own, and the span summary is
    written to <summary.json>.
"""

from __future__ import annotations

import json
import sys

from checkout import import_torsal


def setup(workload: str, seed: int) -> None:
    import_torsal()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    wl.cycle(0)
    for op in wl.warmup():
        try:
            op.run()
        except Exception:  # warm-up only; the timed run counts failures
            pass


def trace(summary_path: str, argv: list) -> int:
    import_torsal()
    from torsal import cli
    from tracing import Tracer

    tracer = Tracer()
    try:
        with tracer:
            return cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["span_rows"] = list(tracer.span_rows())
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
        return 0
    if mode == "trace":
        return trace(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
