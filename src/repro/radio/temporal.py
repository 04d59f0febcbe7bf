"""Temporal performance processes.

A zone's performance over time is the product of

* a deterministic **diurnal** load curve (traffic peaks in the evening,
  troughs overnight);
* **fractal drift**: multi-octave hashed value-noise whose amplitude
  grows with timescale (a bounded random-walk spectrum).  Its Allan
  deviation rises steadily with the averaging interval — no periodic
  nulls — which is what the paper's Fig 6 curves show at long intervals;
* **fast fading** white noise, iid across short time bins, whose Allan
  deviation falls as 1/sqrt(tau).

The Allan-deviation minimum (the paper's per-zone epoch length) sits
where the falling fast-noise curve crosses the rising drift curve; the
Madison-like and NJ-like presets place it near 75 and 15 minutes
respectively.  The whole process is a deterministic function of
(seed, t), so ground truth can be queried at random access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, hour_of_day

_UINT32 = 0xFFFFFFFF


def _hash_noise(seed: int, bin_index: int) -> float:
    """Stable standard-normal-ish noise for a time bin, via hashed uniforms.

    Sum of three hashed uniforms, centered and scaled: variance matches a
    unit normal closely enough for our purposes while staying bounded
    (no extreme outliers that a real link would not produce).
    """
    total = 0.0
    for k in range(3):
        h = (bin_index * 2654435761 + seed * 40503 + k * 97) & _UINT32
        h = ((h ^ (h >> 13)) * 1274126177) & _UINT32
        h ^= h >> 16
        total += h / float(_UINT32 + 1)
    # Irwin-Hall(3): mean 1.5, var 3/12 = 0.25 -> std 0.5.
    return (total - 1.5) / 0.5


def _smooth_bin_noise(seed: int, t: float, bin_s: float) -> float:
    """Value noise over time: hashed per-bin values, C1 interpolation."""
    u = t / bin_s
    i = math.floor(u)
    f = u - i
    w = f * f * (3.0 - 2.0 * f)
    a = _hash_noise(seed, int(i))
    b = _hash_noise(seed, int(i) + 1)
    return a + (b - a) * w


def diurnal_load_batch(t, amplitude: float) -> np.ndarray:
    """Vectorized :func:`diurnal_load` over time arrays."""
    t = np.asarray(t, dtype=float)
    h = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    phase = 2.0 * math.pi * (h - 20.0) / 24.0
    return 1.0 + amplitude * np.cos(phase)


def diurnal_load(t: float, amplitude: float) -> float:
    """Deterministic daily load multiplier, mean ~1.

    Load peaks around 20:00 and bottoms out around 04:00, the usual
    residential-traffic shape.  ``amplitude`` is the peak-to-mean excess
    (0.15 -> multiplier swings roughly 0.85..1.15).
    """
    h = hour_of_day(t)
    phase = 2.0 * math.pi * (h - 20.0) / 24.0
    return 1.0 + amplitude * math.cos(phase)


@dataclass(frozen=True)
class TemporalParams:
    """Parameters of a :class:`TemporalProcess`.

    The fractal drift has ``drift_levels`` octaves: octave k lives on
    time bins of ``drift_base_bin_s * 2**k`` with relative amplitude
    ``drift_base_amp * 2**(k * drift_slope)``.  ``drift_slope`` of 0.5
    is a random walk; the default 0.35 keeps long-run variance bounded
    while the Allan deviation still rises with averaging time.
    """

    diurnal_amp: float = 0.05
    drift_base_bin_s: float = 600.0
    drift_levels: int = 7
    drift_base_amp: float = 0.008
    drift_slope: float = 0.35
    fast_std: float = 0.13
    fast_bin_s: float = 5.0

    @staticmethod
    def madison_like() -> "TemporalParams":
        """Stable Madison-like zone: Allan-deviation minimum near ~75 min."""
        return TemporalParams(
            diurnal_amp=0.04,
            drift_base_bin_s=600.0,
            drift_levels=7,
            drift_base_amp=0.013,
            drift_slope=0.22,
            fast_std=0.13,
            fast_bin_s=5.0,
        )

    @staticmethod
    def new_jersey_like() -> "TemporalParams":
        """Busier NJ-like zone: larger swings, Allan minimum near ~15 min."""
        return TemporalParams(
            diurnal_amp=0.07,
            drift_base_bin_s=300.0,
            drift_levels=7,
            drift_base_amp=0.048,
            drift_slope=0.22,
            fast_std=0.24,
            fast_bin_s=5.0,
        )


class TemporalProcess:
    """Deterministic multiplicative time process for one (network, area).

    ``multiplier(t)`` has mean close to 1; multiply a nominal sustained
    rate by it.  ``load(t)`` exposes the diurnal component alone, which
    latency modeling also consumes (more load -> more queueing delay).
    """

    #: Memo entries kept per process before the table is reset.
    _MEMO_MAX = 65_536

    def __init__(self, params: TemporalParams, seed: int):
        self.params = params
        self.seed = int(seed)
        # Precomputed per-octave constants for the fused batch path: bin
        # sizes, amplitudes, and pre-masked hash seed terms (rows are
        # drift octaves, columns the three Irwin-Hall folds).
        ks = np.arange(params.drift_levels, dtype=float)
        self._drift_bin_s = params.drift_base_bin_s * (2.0**ks)
        self._drift_amp = params.drift_base_amp * (2.0 ** (ks * params.drift_slope))
        self._drift_seed_terms = np.array(
            [
                [
                    ((self.seed + 1009 * lvl) * 40503 + k * 97) & _UINT32
                    for k in range(3)
                ]
                for lvl in range(params.drift_levels)
            ],
            dtype=np.int64,
        )
        self._fast_seed_terms = np.array(
            [(self.seed * 40503 + k * 97) & _UINT32 for k in range(3)],
            dtype=np.int64,
        )
        # multiplier(t) memo: coordinator ticks and dataset generators
        # query many points at identical times, so the scalar hot path
        # hits this dict far more often than it computes.
        self._mult_memo: Dict[float, float] = {}

    def load(self, t: float) -> float:
        """Diurnal load multiplier at time ``t`` (deterministic)."""
        return diurnal_load(t, self.params.diurnal_amp)

    def slow(self, t: float) -> float:
        """Fractal drift at ``t`` (zero-mean, octave-summed)."""
        p = self.params
        total = 0.0
        for k in range(p.drift_levels):
            bin_s = p.drift_base_bin_s * (2.0**k)
            amp = p.drift_base_amp * (2.0 ** (k * p.drift_slope))
            total += amp * _smooth_bin_noise(self.seed + 1009 * k, t, bin_s)
        return total

    def fast(self, t: float) -> float:
        """Fast fading term at ``t`` (zero-mean, iid across bins)."""
        bin_index = int(t // self.params.fast_bin_s)
        return self.params.fast_std * _hash_noise(self.seed, bin_index)

    def multiplier(self, t: float) -> float:
        """Full multiplicative process value; floored at 0.05.

        Memoized per exact ``t``: caching cannot change results (the
        process is a pure function of ``t``), it only skips recomputing
        the octave hashes when many queries share a timestamp.
        """
        memo = self._mult_memo
        v = memo.get(t)
        if v is None:
            m = self.load(t) * (1.0 + self.slow(t)) * (1.0 + self.fast(t))
            v = max(0.05, m)
            if len(memo) >= self._MEMO_MAX:
                memo.clear()
            memo[t] = v
        return v

    # -- batch path -------------------------------------------------------

    def load_batch(self, t) -> np.ndarray:
        """Vectorized :meth:`load` over time arrays."""
        return diurnal_load_batch(t, self.params.diurnal_amp)

    def slow_batch(self, t) -> np.ndarray:
        """Vectorized :meth:`slow` over time arrays.

        Fused across octaves: one set of array operations on a
        ``(3, 2, levels, n)`` block instead of ``2 * levels`` separate
        hash-noise calls, which matters for the small arrays the
        measurement primitives use.  Octave summation order differs from
        the scalar path only in float rounding (~1e-16 relative).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = t[None, :] / self._drift_bin_s[:, None]  # (L, n)
        i = np.floor(u)
        f = u - i
        w = f * f * (3.0 - 2.0 * f)
        idx = i.astype(np.int64)
        bins = np.stack((idx, idx + 1))  # (2, L, n): both lattice corners
        st = self._drift_seed_terms.T[:, None, :, None]  # (3, 1, L, 1)
        h = (bins[None, ...] * np.int64(2654435761) + st) & np.int64(_UINT32)
        h = ((h ^ (h >> 13)) * np.int64(1274126177)) & np.int64(_UINT32)
        h = h ^ (h >> 16)
        # Integer fold-sum is exact in float64 (< 2**53), so dividing the
        # sum matches summing the divided folds bit for bit.
        total = h.sum(axis=0).astype(float) / float(_UINT32 + 1)  # (2, L, n)
        noise = (total - 1.5) / 0.5
        vals = noise[0] + (noise[1] - noise[0]) * w  # (L, n)
        return (self._drift_amp[:, None] * vals).sum(axis=0)

    def fast_batch(self, t) -> np.ndarray:
        """Vectorized :meth:`fast` over time arrays (fused folds)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        bins = np.floor(t / self.params.fast_bin_s).astype(np.int64)
        st = self._fast_seed_terms[:, None]  # (3, 1)
        h = (bins[None, :] * np.int64(2654435761) + st) & np.int64(_UINT32)
        h = ((h ^ (h >> 13)) * np.int64(1274126177)) & np.int64(_UINT32)
        h = h ^ (h >> 16)
        total = h.sum(axis=0).astype(float) / float(_UINT32 + 1)
        return self.params.fast_std * ((total - 1.5) / 0.5)

    def multiplier_batch(self, t) -> np.ndarray:
        """Vectorized :meth:`multiplier` over time arrays.

        Snapshot batches evaluate many points at few distinct times; the
        process is a pure function of ``t``, so each distinct time is
        computed once and gathered back — exact, elementwise-identical
        output (the scalar path memoizes per-``t`` for the same reason).
        """
        t = np.asarray(t, dtype=float)
        if t.size > 64:
            uniq, inv = np.unique(t, return_inverse=True)
            if uniq.size * 2 <= t.size:
                m = (
                    self.load_batch(uniq)
                    * (1.0 + self.slow_batch(uniq))
                    * (1.0 + self.fast_batch(uniq))
                )
                return np.maximum(0.05, m)[inv.reshape(t.shape)]
        m = self.load_batch(t) * (1.0 + self.slow_batch(t)) * (1.0 + self.fast_batch(t))
        return np.maximum(0.05, m)
