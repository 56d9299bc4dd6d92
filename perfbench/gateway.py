"""The ``tcp-mixed`` gateway process.

    python3 perfbench/gateway.py --trace 0|1 [--summary PATH]

Serves the serve CLI's default stack: ``ServeServer`` (10 ms batch
window) in front of a 2-shard ``ClusterService`` with GTB Max-Buffer on
16 simulated workers and service-side quality scoring on.  Prints one
JSON line ``{"host": ..., "port": ...}`` once it accepts connections and
shuts down when its standard input closes.  With ``--trace 1`` the
layers are traced inside this process; at exit it writes the spans to
``.perfbench/tcp-mixed-spans.jsonl`` and the per-layer figures to
``--summary``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

from common import OUT_DIR, import_program

TENANTS = ("premium:name='gold'", "standard:name='silver'")
SHARDS = 2


async def _serve(server) -> tuple[float, float]:
    """Serve until stdin closes; returns when serving began and ended."""
    host, port = await server.start()
    print(json.dumps({"host": host, "port": port}), flush=True)
    t0 = time.perf_counter()
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    t1 = time.perf_counter()
    await server.close()
    return t0, t1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary")
    args = parser.parse_args(argv)
    import_program()
    tracer = None
    if args.trace:
        from tracing import T0, T1, Tracer, install_program_spans

        tracer = Tracer()
        install_program_spans(tracer)

    from repro.cluster import ClusterService
    from repro.config import RuntimeConfig
    from repro.serve import ServeServer

    service = ClusterService(
        RuntimeConfig(policy="gtb-max", n_workers=16, tenants=TENANTS),
        cluster=SHARDS,
    )
    t0, t1 = asyncio.run(_serve(ServeServer(service)))
    reports = service.close()
    if tracer is not None:
        tracer.restore()
        import layers

        # Per-layer figures cover the serving window only, not the
        # service's construction and close.
        spans = [s for s in tracer.spans if s[T0] >= t0 and s[T1] <= t1]
        values = layers.from_spans(spans, t1 - t0)
        values.update(layers.from_run_reports(
            [layers.digest_report(r) for r in reports]
        ))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, "tcp-mixed-spans.jsonl"))
        if args.summary:
            with open(args.summary, "w", encoding="utf-8") as out:
                json.dump(values, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
