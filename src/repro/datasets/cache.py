"""On-disk caching of generated datasets.

Generating a month-scale trace takes minutes; analyses re-run often.
``cached_dataset`` memoizes a generator call to a JSONL file keyed by a
cache name and the generation parameters, so repeated runs (benchmarks,
notebooks) pay the cost once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro._canon import compact_json
from repro.datasets.io import read_jsonl, write_jsonl
from repro.datasets.records import TraceRecord

PathLike = Union[str, Path]


def cache_key(name: str, params: Dict) -> str:
    """Stable filename stem for (name, params); params are JSON values."""
    blob = compact_json(params)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return f"{name}-{digest}"


def cached_dataset(
    cache_dir: PathLike,
    name: str,
    params: Dict,
    generate: Callable[[], List[TraceRecord]],
    refresh: bool = False,
) -> List[TraceRecord]:
    """Return the cached records for (name, params), generating on miss.

    The cache file is ``<cache_dir>/<name>-<hash>.jsonl`` plus a small
    ``.meta.json`` sidecar recording the parameters for humans.  Pass
    ``refresh=True`` to force regeneration.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = cache_key(name, params)
    data_path = cache_dir / f"{stem}.jsonl"
    meta_path = cache_dir / f"{stem}.meta.json"

    if data_path.exists() and not refresh:
        return list(read_jsonl(data_path))

    records = generate()
    write_jsonl(records, data_path)
    meta_path.write_text(
        json.dumps({"name": name, "params": params, "records": len(records)},
                   indent=2)
    )
    return records


def clear_cache(cache_dir: PathLike, name: Optional[str] = None) -> int:
    """Delete cached files (all, or those for one dataset name).

    Returns the number of files removed.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.exists():
        return 0
    removed = 0
    pattern = f"{name}-*" if name else "*"
    for path in cache_dir.glob(pattern):
        if path.suffix in (".jsonl", ".json"):
            path.unlink()
            removed += 1
    return removed
