"""Shared builders for the measurement-store test suite.

Everything here constructs *real* artifacts — wire-format WAL records,
telemetry directories written by the actual :class:`Telemetry` — so the
store tests exercise the same byte-identity contracts the CI smoke
proves against live processes, just in-process and fast.
"""

from repro.clients.protocol import (
    MeasurementReport,
    MeasurementType,
    unpack_samples,
)
from repro.geo.regions import madison_study_area
from repro.geo.zones import ZoneGrid
from repro.radio.technology import NetworkId

EPOCH_S = 1800.0

KINDS = (MeasurementType.TCP_DOWNLOAD, MeasurementType.UDP_TRAIN,
         MeasurementType.PING)
NETS = tuple(NetworkId)


def make_report(i, *, start_s=None, value=None, samples=None,
                end_offset_s=5.0, speed_ms=10.0):
    """One deterministic, validator-clean report keyed off ``i``."""
    anchor = madison_study_area().anchor
    kind = KINDS[i % 3]
    if value is None:
        value = 0.02 + (i % 40) * 1e-4 if kind is MeasurementType.PING \
            else 1.0e6 + (i % 500) * 1.0e3
    start = float(1000.0 + i * 30.0 if start_s is None else start_s)
    return MeasurementReport(
        task_id=i,
        client_id=f"bus-{i % 5}",
        network=NETS[i % len(NETS)],
        kind=kind,
        start_s=start,
        end_s=start + end_offset_s,
        point=anchor.offset(float((i * 37) % 4000) - 2000.0,
                            float((i * 53) % 4000) - 2000.0),
        speed_ms=speed_ms,
        value=float(value),
        samples=list(samples or []),
    )


def write_wal(wal_dir, reports, radius_m=250.0):
    """A real WAL directory holding ``reports`` in wire format."""
    from repro.serve.wal import WriteAheadLog
    from repro.serve.wire import report_to_wire

    wal = WriteAheadLog(str(wal_dir))
    wal.write_meta({"seed": 7, "gen_seed": 1, "radius_m": radius_m})
    for report in reports:
        wal.append(report_to_wire(report))
    wal.close()
    return str(wal_dir)


def write_telemetry_dir(out_dir, *, with_alerts=True):
    """A real telemetry directory with every artifact class populated."""
    from repro.obs import Telemetry
    from repro.obs.manifest import RunManifest

    tel = Telemetry()
    tel.counter("coordinator.ticks").inc(12)
    tel.counter("coordinator.reports_ingested").inc(34)
    tel.gauge("coordinator.streams").set(4)
    tel.gauge("slo.coverage_fraction").set(0.75)
    h = tel.histogram("coordinator.epoch_samples",
                      buckets=(10.0, 50.0, 100.0))
    for v in (5.0, 30.0, 70.0, 120.0):
        h.observe(v)
    with tel.span("sim.run"):
        with tel.span("coordinator.tick"):
            pass
    tel.emit("epoch.close", 100.0, zone=[0, 0], network="NetB",
             metric="ping")
    tel.emit(
        "calibration.recalibrate", 200.0,
        zone=[0, 0], network="NetB", metric="ping",
        epoch_s_before=1800.0, epoch_s=900.0,
        budget_before=100, budget=60,
    )
    if with_alerts:
        tel.emit("alert.fired", 300.0, rule="slo.under_coverage",
                 metric="slo.coverage_fraction", severity="critical",
                 value=0.4)
        tel.emit("alert.resolved", 400.0, rule="slo.under_coverage",
                 metric="slo.coverage_fraction", severity="critical",
                 value=0.9)
    manifest = RunManifest("monitor", 7, gen_seed=1,
                           zone_grid={"radius_m": 250.0})
    tel.write_artifacts(str(out_dir), manifest=manifest)
    return str(out_dir)


def fold_rollups(conn, run_id, epoch_s=EPOCH_S):
    """Pure-Python recomputation of the rollup tables from raw samples.

    Replays the accepted sample rows in seq order with the exact
    arithmetic :func:`repro.store.writers.ingest_reports` uses, so a
    store whose incremental rollups are consistent matches this fold
    float-for-float, not just approximately.
    """
    acc = {}
    rows = conn.execute(
        "SELECT zone_q, zone_r, start_s, network, kind, samples_f64"
        " FROM samples WHERE run_id = ? AND accepted = 1 ORDER BY seq",
        (run_id,),
    ).fetchall()
    for zone_q, zone_r, start_s, network, kind, samples_f64 in rows:
        samples = unpack_samples(samples_f64)
        key = (zone_q, zone_r, int(start_s // epoch_s), network, kind)
        if key not in acc:
            acc[key] = [1, len(samples), sum(samples),
                        sum(s * s for s in samples), min(samples),
                        max(samples), start_s, start_s]
        else:
            a = acc[key]
            a[0] += 1
            a[1] += len(samples)
            a[2] += sum(samples)
            a[3] += sum(s * s for s in samples)
            a[4] = min(a[4], min(samples))
            a[5] = max(a[5], max(samples))
            a[6] = min(a[6], start_s)
            a[7] = max(a[7], start_s)
    return {k: tuple(v) for k, v in acc.items()}


def stored_rollups(conn, run_id):
    """The rollup table contents in :func:`fold_rollups`' shape."""
    rows = conn.execute(
        "SELECT zone_q, zone_r, epoch_index, network, kind, n_reports,"
        " n_samples, sum_value, sum_sq_value, min_value, max_value,"
        " first_s, last_s FROM rollups WHERE run_id = ?",
        (run_id,),
    ).fetchall()
    return {tuple(r[:5]): tuple(r[5:]) for r in rows}


def default_grid():
    return ZoneGrid(madison_study_area().anchor, radius_m=250.0)
