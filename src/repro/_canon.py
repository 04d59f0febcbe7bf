"""The two canonical JSON spellings every byte-identity contract rests on.

Sorted keys, repr-based floats (every float64 round-trips) and
``NaN``/``Infinity``: the bytes of :func:`json.dumps` with the same
options, from one shared encoder each.  :data:`compact_json` writes
frames, WAL records, JSONL lines, hash inputs and store columns;
:data:`pretty_json` writes ``*.json`` files and ``--format json`` output.
"""

from __future__ import annotations

import json

compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
pretty_json = json.JSONEncoder(indent=2, sort_keys=True).encode


def write_pretty_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as :data:`pretty_json` plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pretty_json(obj) + "\n")
