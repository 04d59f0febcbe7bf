"""Declarative experiment grids: cells, grids, and sweep manifests.

A sweep is described *declaratively*: one scenario (or a list), the
world seeds to run it at, and either a ``matrix`` of config-override
axes (expanded as a cartesian product) or an explicit ``cells`` list of
override dicts.  Expansion is fully deterministic — cells come out in
seed-major, sorted-axis-key product order — so the same spec always
yields the same cell list on every machine and worker count.

Determinism is anchored in the **cell id**: a content-derived,
filesystem-safe string built from the scenario name, the world seed and
the override values.  The id is independent of the cell's position in
the grid, and every random draw a scenario makes is derived from it
(:meth:`SweepCell.rng` spawn-keys a generator off the id, and
:meth:`SweepCell.derived_seed` hands out named child seeds).  Two
consequences the runner relies on:

* results are byte-identical regardless of worker count or schedule,
  because nothing about execution order can reach a cell's RNG;
* editing one axis of a grid leaves every other cell's id — and hence
  its artifacts — unchanged, so partial re-runs are diffable.

:class:`SweepManifest` is the sweep-level sibling of
:class:`~repro.obs.manifest.RunManifest`: grid name + hash, cell count,
and the worker configuration that executed it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro._canon import write_pretty_json
from repro.obs.manifest import MANIFEST_VERSION, _versions, config_hash
from repro.sim.rng import derive_seed

__all__ = [
    "SweepCell",
    "SweepGrid",
    "SweepManifest",
    "SWEEP_MANIFEST_FILENAME",
    "SUMMARY_FILENAME",
    "STATUS_FILENAME",
    "CELLS_DIRNAME",
    "CELL_FILENAME",
]

SWEEP_MANIFEST_FILENAME = "sweep_manifest.json"
SUMMARY_FILENAME = "summary.jsonl"
STATUS_FILENAME = "sweep_status.json"
CELLS_DIRNAME = "cells"
CELL_FILENAME = "cell.json"

#: Characters allowed verbatim in a cell id; anything else becomes ``-``.
_SAFE = re.compile(r"[^A-Za-z0-9._=+-]+")

#: Cell ids longer than this collapse their override part to a hash.
_MAX_ID_LEN = 96


def _fmt_value(value: Any) -> str:
    """Render one override value compactly for use inside a cell id."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _cell_id(scenario: str, seed: int, overrides: Dict[str, Any]) -> str:
    """Content-derived, filesystem-safe id for one cell.

    Human-readable (``scenario-s7-radius_m=250``) while short; falls
    back to an 8-char hash of the overrides once the readable form
    would exceed :data:`_MAX_ID_LEN`.
    """
    parts = [f"{k}={_fmt_value(overrides[k])}" for k in sorted(overrides)]
    tail = "_".join(parts) if parts else "base"
    raw = f"{scenario}-s{seed}-{tail}"
    if len(raw) > _MAX_ID_LEN:
        raw = f"{scenario}-s{seed}-{config_hash(overrides)[:8]}"
    return _SAFE.sub("-", raw)


@dataclass(frozen=True)
class SweepCell:
    """One (scenario, seed, config-override) point of a sweep grid."""

    scenario: str
    seed: int
    overrides: Dict[str, Any] = field(default_factory=dict)

    @property
    def cell_id(self) -> str:
        """The content-derived id; directory name under ``cells/``."""
        return _cell_id(self.scenario, self.seed, self.overrides)

    def derived_seed(self, name: str = "cell") -> int:
        """A 63-bit child seed bound to this cell's identity and ``name``."""
        return derive_seed(self.seed, f"sweep:{self.cell_id}:{name}")

    def rng(self, name: str = "cell") -> np.random.Generator:
        """A generator spawn-keyed off the cell id (schedule-independent)."""
        spawn = int.from_bytes(
            hashlib.sha256(f"{self.cell_id}:{name}".encode()).digest()[:4],
            "big",
        )
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(spawn,))
        )

    def to_dict(self) -> dict:
        """JSON-able representation (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            scenario=str(data["scenario"]),
            seed=int(data["seed"]),
            overrides=dict(data.get("overrides") or {}),
        )


class SweepGrid:
    """A declarative (scenario x seed x override) grid of sweep cells."""

    def __init__(
        self,
        name: str,
        scenarios: Sequence[str],
        seeds: Sequence[int] = (7,),
        matrix: Optional[Dict[str, Sequence[Any]]] = None,
        cells: Optional[Sequence[Dict[str, Any]]] = None,
        base: Optional[Dict[str, Any]] = None,
    ):
        if isinstance(scenarios, str):
            scenarios = [scenarios]
        if not scenarios:
            raise ValueError("a grid needs at least one scenario")
        if matrix and cells:
            raise ValueError("give either matrix axes or an explicit cells "
                             "list, not both")
        self.name = str(name)
        self.scenarios = [str(s) for s in scenarios]
        self.seeds = [int(s) for s in seeds]
        self.matrix = {k: list(v) for k, v in (matrix or {}).items()}
        self.explicit_cells = [dict(c) for c in (cells or [])]
        self.base = dict(base or {})

    # -- expansion -------------------------------------------------------

    def _override_sets(self) -> List[Dict[str, Any]]:
        if self.explicit_cells:
            return [dict(self.base, **c) for c in self.explicit_cells]
        if not self.matrix:
            return [dict(self.base)]
        keys = sorted(self.matrix)
        combos = itertools.product(*(self.matrix[k] for k in keys))
        return [dict(self.base, **dict(zip(keys, c))) for c in combos]

    def cells(self) -> List[SweepCell]:
        """Expand the grid into its deterministic cell list.

        Order: scenario-major, then seed, then the sorted-key cartesian
        product of the matrix axes (or the explicit cell list order).
        Duplicate cell ids are rejected — they would silently overwrite
        each other's artifacts.
        """
        out: List[SweepCell] = []
        seen = set()
        for scenario in self.scenarios:
            for seed in self.seeds:
                for overrides in self._override_sets():
                    cell = SweepCell(scenario, seed, overrides)
                    if cell.cell_id in seen:
                        raise ValueError(
                            f"duplicate cell id {cell.cell_id!r} in grid "
                            f"{self.name!r}"
                        )
                    seen.add(cell.cell_id)
                    out.append(cell)
        return out

    def __len__(self) -> int:
        n = len(self.explicit_cells) or max(
            1,
            int(np.prod([len(v) for v in self.matrix.values()]))
            if self.matrix else 1,
        )
        return len(self.scenarios) * len(self.seeds) * n

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able grid spec (inverse of :meth:`from_dict`)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
        }
        if self.matrix:
            out["matrix"] = {k: list(v) for k, v in self.matrix.items()}
        if self.explicit_cells:
            out["cells"] = [dict(c) for c in self.explicit_cells]
        if self.base:
            out["base"] = dict(self.base)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepGrid":
        """Build a grid from a spec dict (``scenario`` or ``scenarios``)."""
        scenarios = data.get("scenarios") or data.get("scenario")
        if not scenarios:
            raise ValueError("grid spec needs a 'scenario' or 'scenarios' key")
        return cls(
            name=data.get("name", "sweep"),
            scenarios=scenarios,
            seeds=data.get("seeds", (7,)),
            matrix=data.get("matrix"),
            cells=data.get("cells"),
            base=data.get("base"),
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepGrid":
        """Load a JSON grid spec from ``path``."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def grid_hash(self) -> str:
        """Stable 16-hex-char hash of the canonical grid spec."""
        return config_hash(self.to_dict())


class SweepManifest:
    """Provenance for one sweep: the grid plus the worker configuration.

    The deterministic half (grid name/hash/cells) identifies *what* was
    computed; the worker half (count, start method, retries) records
    *how* — it may legitimately differ between byte-identical runs, so
    the reducer never folds it into ``metrics.json``/``summary.jsonl``.
    """

    def __init__(
        self,
        grid: SweepGrid,
        workers: int,
        start_method: str,
        max_retries: int,
        extra: Optional[Dict[str, Any]] = None,
    ):
        self.grid = grid
        self.workers = int(workers)
        self.start_method = str(start_method)
        self.max_retries = int(max_retries)
        self.extra = dict(extra or {})

    def to_dict(self) -> dict:
        """JSON-able manifest record (written as sweep_manifest.json)."""
        out: Dict[str, Any] = {
            "manifest_version": MANIFEST_VERSION,
            "run_kind": "sweep",
            "grid": self.grid.to_dict(),
            "grid_hash": self.grid.grid_hash(),
            "n_cells": len(self.grid.cells()),
            "workers": self.workers,
            "start_method": self.start_method,
            "max_retries": self.max_retries,
            "versions": _versions(),
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    def write(self, path: str) -> None:
        """Write the manifest as indented, key-sorted JSON."""
        write_pretty_json(path, self.to_dict())

    @staticmethod
    def read(path: str) -> dict:
        """Load a manifest dict previously written by :meth:`write`."""
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
