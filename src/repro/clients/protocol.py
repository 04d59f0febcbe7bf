"""The coordinator <-> client protocol: tasks and reports.

Kept deliberately small and serializable (dataclasses of scalars, plus
one packed sample array per report) — over a real deployment these
would be JSON bodies on a control channel, and the dataset writers
serialize reports in exactly that spirit.

Per-report samples have one layout per place they live: a plain list
in JSON and wire payload dicts, an ``array("d")`` of doubles in a
:class:`MeasurementReport`, and :func:`pack_samples` bytes (big-endian
doubles) in the binary codec and the store.
"""

from __future__ import annotations

import enum
import struct
import sys
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.coords import GeoPoint
from repro.radio.technology import NetworkId

ZoneId = Tuple[int, int]


def pack_samples(samples: Sequence[float]) -> bytes:
    """Samples as big-endian IEEE-754 doubles (``struct`` ``>Nd``).

    The one on-the-wire and on-disk layout for per-report samples: the
    binary codec's REPORT_BATCH and the store's ``samples.samples_f64``
    column both hold exactly these bytes.  Every float, NaN payloads and
    the infinities included, round-trips bit for bit; an empty sequence
    packs to ``b""``.  The samples are copied into a fresh ``array("d")``
    (native-order doubles) and byte-swapped in C on a little-endian host,
    so an ``array("d")`` (what a :class:`MeasurementReport` holds) is
    never unpacked into float objects.
    """
    packed = array("d", samples)
    if sys.byteorder == "little":
        packed.byteswap()
    return packed.tobytes()


def unpack_samples(data: bytes) -> List[float]:
    """Inverse of :func:`pack_samples` (``struct.error`` unless ``len % 8 == 0``).

    Accepts any bytes-like object, so a ``memoryview`` slice of a larger
    buffer decodes without a copy.
    """
    return list(struct.unpack(f">{len(data) // 8}d", data))


class MeasurementType(str, enum.Enum):
    """The measurement primitives the paper's clients run (Table 1)."""

    TCP_DOWNLOAD = "tcp"
    UDP_TRAIN = "udp"
    PING = "ping"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


@dataclass(frozen=True)
class MeasurementTask:
    """An instruction from the coordinator to one client.

    ``params`` carries type-specific knobs (download size, packet count,
    ping count/interval); unset keys fall back to the agent's defaults.
    """

    task_id: int
    network: NetworkId
    kind: MeasurementType
    zone_id: Optional[ZoneId] = None
    issued_at_s: float = 0.0
    deadline_s: Optional[float] = None
    params: Dict[str, float] = field(default_factory=dict)

    def expired(self, now_s: float) -> bool:
        """True once the task's deadline has passed."""
        return self.deadline_s is not None and now_s > self.deadline_s


@dataclass(frozen=True)
class MeasurementReport:
    """A completed measurement, tagged with position and time.

    ``value`` is the primary metric in SI units (bps for throughput
    tasks, seconds of mean RTT for pings); ``samples`` optionally carries
    per-packet or per-probe values for distribution-level analysis;
    ``extras`` carries secondary metrics (jitter, loss, failures).

    ``samples`` is always an ``array("d")``: any other iterable of
    numbers is converted once on construction, and an ``array("d")``
    passed in is kept as is, not copied.  Packed doubles take 8 B a
    sample where a list of floats takes about 32 B.  Compare with
    ``list(report.samples)`` when a list is wanted; an array never
    equals a list.
    """

    task_id: int
    client_id: str
    network: NetworkId
    kind: MeasurementType
    start_s: float
    end_s: float
    point: GeoPoint
    speed_ms: float
    value: float
    samples: array = field(default_factory=partial(array, "d"))
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        samples = self.samples
        if type(samples) is not array or samples.typecode != "d":
            object.__setattr__(self, "samples", array("d", samples))

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def is_failure(self) -> bool:
        """True for reports that carry no usable primary value."""
        return self.value != self.value or (
            self.kind is MeasurementType.PING and self.extras.get("failures", 0) > 0 and not self.samples
        )
