"""Run manifests: provenance stamped next to every telemetry artifact.

A :class:`RunManifest` answers "what exactly produced these numbers?":
the seeds, a stable hash of the effective configuration, interpreter and
dependency versions, host platform, and the zone-grid geometry.  It is
written as ``manifest.json`` alongside ``metrics.json``/``events.jsonl``
by ``repro monitor --telemetry`` and embedded in ``BENCH_perf.json`` and
every ``BENCH_history.jsonl`` entry by ``benchmarks/run_perf.py``, whose
speedup gates it identifies (the serve and store rates beside them carry
the host shape ``python -m bench run`` recorded).

The manifest deliberately records **no wall-clock timestamp**: identical
seeded runs must produce byte-identical artifacts (the determinism tests
diff the files), and provenance is already carried by the config hash +
seed + versions tuple.  Pipelines that want an emission time should
stamp it on the *filename* or in their own wrapper record.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Dict, Optional

from repro._canon import compact_json, pretty_json, write_pretty_json

# ``hashlib`` (which maps OpenSSL's libcrypto) and ``platform`` are
# imported where they are used: the served coordinator imports this
# module but never builds a manifest (DESIGN.md §10).

__all__ = ["config_hash", "RunManifest"]

MANIFEST_VERSION = 1


def _canonical(obj: Any) -> Any:
    """Reduce config-ish objects to canonical JSON-serializable form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "value") and obj.__class__.__module__ != "builtins":
        return _canonical(obj.value)  # enums
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_hash(config: Any) -> str:
    """Stable sha256 (hex, 16 chars) of a config dataclass/dict."""
    import hashlib

    blob = compact_json(_canonical(config))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _versions() -> Dict[str, str]:
    import platform

    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = "unavailable"
    try:
        from repro import __version__ as repro_version
    except Exception:
        repro_version = "unknown"
    return {
        "repro": repro_version,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


class RunManifest:
    """Provenance record for one dataset/monitor/bench run."""

    def __init__(
        self,
        run_kind: str,
        seed: int,
        config: Any = None,
        gen_seed: Optional[int] = None,
        zone_grid: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ):
        import platform

        self.run_kind = run_kind
        self.seed = int(seed)
        self.gen_seed = None if gen_seed is None else int(gen_seed)
        self.config_hash = config_hash(config) if config is not None else None
        self.config = _canonical(config) if config is not None else None
        self.zone_grid = dict(zone_grid) if zone_grid else None
        self.extra = dict(extra) if extra else {}
        self.versions = _versions()
        self.platform = {
            "system": platform.system(),
            "machine": platform.machine(),
            "implementation": sys.implementation.name,
        }

    def to_dict(self) -> dict:
        """The manifest as a JSON-ready dict (optional keys omitted)."""
        out: Dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "run_kind": self.run_kind,
            "seed": self.seed,
            "versions": self.versions,
            "platform": self.platform,
        }
        if self.gen_seed is not None:
            out["gen_seed"] = self.gen_seed
        if self.config_hash is not None:
            out["config_hash"] = self.config_hash
            out["config"] = self.config
        if self.zone_grid is not None:
            out["zone_grid"] = self.zone_grid
        if self.extra:
            out["extra"] = self.extra
        return out

    def to_json(self) -> str:
        """Canonical sorted-key JSON rendering."""
        return pretty_json(self.to_dict())

    def write(self, path) -> None:
        """Write the manifest JSON to ``path``."""
        write_pretty_json(path, self.to_dict())

    @staticmethod
    def read(path) -> dict:
        """Load a manifest file back as a plain dict."""
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
