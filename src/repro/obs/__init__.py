"""``repro.obs`` — metrics, tracing, and structured run telemetry.

The observability layer for the whole stack: a dependency-free metrics
registry (counters / gauges / fixed-bucket histograms), span-based
timing, a deterministic JSONL event log stamped with *simulation* time,
and run manifests recording provenance.  Disabled by default: the
ambient telemetry is a shared no-op, so un-instrumented runs stay
bit-identical and effectively free (see the overhead gate in
``benchmarks/test_perf_microbench.py``).

On top of the artifact layer sits the live pipeline: a
:class:`SnapshotStreamer` captures periodic sim-time-stamped registry
snapshots (``snapshots.jsonl``), an :class:`AlertEngine` judges each
snapshot against declarative rules, :class:`~repro.obs.slo.SloTracker`
feeds zone-coverage SLO gauges from the coordinator, and the
exposition helpers publish snapshots in Prometheus text format.

Typical use::

    from repro import obs

    with obs.Telemetry(out_dir="out/") as tel:  # events.jsonl streams
        with obs.use_telemetry(tel):
            ...  # run the coordinator / generators
        tel.write_artifacts("out/", manifest)
    print(obs.render_report_from_dir("out/"))
"""

from repro._lazy import lazy_exports

lazy_exports(__name__, {
    "alerts": ("AlertEngine", "AlertRule", "load_rules", "parse_rules"),
    "events": (
        "DEFAULT_CAPACITY",
        "NULL_EVENT_LOG",
        "SCHEMA_VERSION",
        "EventLog",
        "NullEventLog",
        "read_events",
        "read_jsonl_tolerant",
    ),
    "exposition": (
        "PROM_FILENAME",
        "MetricsHTTPServer",
        "PromFileWriter",
        "render_prometheus",
    ),
    "manifest": ("RunManifest", "config_hash"),
    "metrics": (
        "DEFAULT_BUCKETS",
        "NULL_REGISTRY",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "NullMetricsRegistry",
        "quantile_from_snapshot",
    ),
    "report": (
        "build_summary",
        "load_artifacts",
        "render_diff",
        "render_live",
        "render_report",
        "render_report_from_dir",
        "render_watch",
        "summary_from_dir",
    ),
    "slo": ("SloPolicy", "SloTracker", "default_slo_rules"),
    "snapshots": (
        "SNAPSHOT_SCHEMA_VERSION",
        "SNAPSHOTS_FILENAME",
        "SnapshotStreamer",
        "read_snapshots",
    ),
    "telemetry": (
        "EVENTS_FILENAME",
        "MANIFEST_FILENAME",
        "METRICS_FILENAME",
        "NULL_TELEMETRY",
        "SPANS_FILENAME",
        "Telemetry",
        "get_telemetry",
        "set_telemetry",
        "use_telemetry",
    ),
    "tracing": ("NULL_TRACER", "NullTracer", "SpanStats", "SpanTracer"),
})
