"""One cold CLI invocation, timed from inside the process.

Usage: python3 child.py RESULT_JSON TRACE SRC_DIR -- CLI_ARGS...

Imports pseudotherm from SRC_DIR, installs the layer spans when TRACE is 1,
calls `pseudotherm.cli.main(CLI_ARGS)` once and writes its timings to
RESULT_JSON.  `ready` is read from the monotonic clock the parent also reads
before it starts this process, so set-up time is `ready` minus the spawn
time.  With TRACE 1 the spans go to `spans.tsv` beside RESULT_JSON.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _dump_spans(tracer, path):
    tids = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tthread\tname\tstart_ns\tend_ns\tself_ns\n")
        for s in sorted(tracer.spans, key=lambda s: s.id):
            tid = tids.setdefault(s.tid, len(tids))
            parent = "" if s.parent is None else s.parent.id
            fh.write(
                f"{s.id}\t{parent}\t{tid}\t{s.name}\t{s.start}\t{s.end}\t{s.self_ns}\n"
            )


def main() -> int:
    result_path, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE SRC_DIR -- CLI_ARGS...")
    cli_args = sys.argv[5:]
    sys.path.insert(0, src)
    from pseudotherm import cli

    tracer = None
    if trace:
        import spans

        tracer = spans.install()
    ready = time.monotonic()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = tracer.run_root(cli.main, cli_args) if tracer else cli.main(cli_args)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    out = {
        "rc": rc,
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": os.path.abspath(cli.__file__),
    }
    if tracer:
        out["trace_problems"] = tracer.checks(wall)
        out["layer_totals"] = spans.layer_totals(tracer)
        out["shares"] = spans.share_table(tracer)
        _dump_spans(tracer, os.path.join(os.path.dirname(result_path), "spans.tsv"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
