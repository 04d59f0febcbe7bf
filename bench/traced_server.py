"""``repro serve run`` with the benchmark's span wrappers installed.

    python -m bench.traced_server TABLE_JSON SPANS_JSONL serve run [ARGS...]

Installs the wrappers, then runs the repro command line exactly as
``python -m repro`` would.  When the server stops (SIGINT), it writes the
per-layer table and its CPU time since the wrappers went in to TABLE_JSON,
and the kept spans to SPANS_JSONL.
"""

import json
import resource
import sys

from bench import trace


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    table_path, spans_path, repro_argv = argv[0], argv[1], argv[2:]
    tracer = trace.Tracer()
    tracer.install(trace.TARGETS)
    from repro.cli import main as repro_main

    cpu0 = _cpu_s()
    code = repro_main(repro_argv)
    cpu_ms = (_cpu_s() - cpu0) * 1e3
    tracer.write_spans(spans_path)
    with open(table_path, "w") as fh:
        json.dump({"cpu_ms": cpu_ms, "layers": tracer.table()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
