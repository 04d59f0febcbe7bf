"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper.  The
underlying traces are expensive to generate, so they are built once per
session here and shared.  Scales are reduced from the paper's year of
data to minutes of compute; every bench asserts the *shape* of the
paper's result (who wins, rough factors, crossover locations), not
absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.datasets.generator import DatasetGenerator
from repro.geo.regions import NEW_BRUNSWICK, madison_spot_locations
from repro.radio.network import build_landscape
from repro.radio.technology import NetworkId


@pytest.fixture(scope="session")
def landscape():
    """The full three-carrier world (city + road corridor + NJ)."""
    return build_landscape(seed=7)


@pytest.fixture(scope="session")
def generator(landscape):
    return DatasetGenerator(landscape, seed=3)


@pytest.fixture(scope="session")
def standalone_trace(generator):
    """Scaled-down Standalone dataset: buses, NetB, TCP 1MB + pings."""
    return generator.standalone(days=8, n_buses=8, n_routes=10, interval_s=60.0, ping_count=3)


@pytest.fixture(scope="session")
def wirover_trace(generator):
    """Scaled-down WiRover dataset: UDP ping series on NetB/NetC."""
    return generator.wirover(days=4, n_city_buses=4, n_intercity=2)


@pytest.fixture(scope="session")
def short_segment_trace(generator):
    """Short-segment dataset: TCP on all three carriers along 20 km."""
    return generator.short_segment(days=8, interval_s=30.0)


@pytest.fixture(scope="session")
def wi_spot(landscape):
    from repro.analysis.spots import select_representative_spot

    return select_representative_spot(
        landscape, madison_spot_locations(1)[0],
        [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C],
        search_radius_m=1500.0,
    )


@pytest.fixture(scope="session")
def nj_spot(landscape):
    from repro.analysis.spots import select_representative_spot

    return select_representative_spot(
        landscape, NEW_BRUNSWICK,
        [NetworkId.NET_B, NetworkId.NET_C],
        search_radius_m=2000.0,
    )


@pytest.fixture(scope="session")
def spot_traces(generator, wi_spot, nj_spot):
    """Static spot datasets for the representative WI and NJ locations."""
    wi = generator.static_spot(
        wi_spot, "wi",
        networks=[NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C],
        days=1, interval_s=20.0,
    )
    nj = generator.static_spot(
        nj_spot, "nj",
        networks=[NetworkId.NET_B, NetworkId.NET_C],
        days=1, interval_s=20.0,
    )
    return {"wi": wi, "nj": nj}


@pytest.fixture(scope="session")
def proximate_traces(generator, wi_spot, nj_spot):
    """Proximate datasets (driving loops) around the same spots."""
    wi = generator.proximate(
        wi_spot, "wi",
        networks=[NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C],
        days=4, interval_s=45.0, udp_packets=60,
    )
    nj = generator.proximate(
        nj_spot, "nj",
        networks=[NetworkId.NET_B, NetworkId.NET_C],
        days=4, interval_s=45.0, udp_packets=60,
    )
    return {"wi": wi, "nj": nj}
