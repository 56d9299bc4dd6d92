"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tcp-mixed --seed 1 --seconds 30

``--workload`` is ``tcp-mixed``, ``serve-batch``, ``sig-runtime`` or
``all``.  With ``--trace 0`` a run measures the end-to-end metrics;
with ``--trace 1`` it measures an untraced half and a traced half and
prints the per-layer metrics, writing the spans to
``.perfbench/<workload>-spans.jsonl``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when any output check failed, 2 when the program is
missing.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT_DIR, Result, import_program

WORKLOADS = ("tcp-mixed", "serve-batch", "sig-runtime")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    if name == "tcp-mixed":
        import tcp_mixed as module
    elif name == "serve-batch":
        import serve_batch as module
    else:
        import sig_runtime as module
    result = module.run(seed, seconds, trace)
    if result.tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        result.tracer.write_jsonl(
            os.path.join(OUT_DIR, f"{name}-spans.jsonl")
        )
    return result


def report(name: str, result: Result) -> None:
    print(f"== {name}: {result.attempted} operations, "
          f"{result.failed} failed "
          f"(failed_frac = {result.failed / max(result.attempted, 1):.6g})")
    for line in result.notes:
        print(f"   {line}")
    for problem in result.problems:
        print(f"   FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = Result()
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        report(name, result)
        total.attempted += result.attempted
        total.failed += result.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, value in result.metrics.items():
            total.metrics[prefix + metric] = value
    sys.stdout.flush()
    print(json.dumps({
        "correct": total.correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": total.metrics,
    }))
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
