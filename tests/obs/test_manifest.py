"""Tests for run manifests and the config hash."""

import dataclasses
import json

from repro.core.config import WiScapeConfig
from repro.obs.manifest import RunManifest, config_hash


class TestConfigHash:
    def test_stable_across_calls(self):
        cfg = WiScapeConfig()
        assert config_hash(cfg) == config_hash(WiScapeConfig())

    def test_sensitive_to_field_changes(self):
        cfg = WiScapeConfig()
        changed = dataclasses.replace(cfg, tick_interval_s=cfg.tick_interval_s + 1)
        assert config_hash(cfg) != config_hash(changed)

    def test_default_config_hash_is_pinned(self):
        # A changed hash input or hash function moves this literal.
        assert config_hash(WiScapeConfig()) == "3861c7766d09d3d3"

    def test_dict_key_order_irrelevant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestRunManifest:
    def test_captures_versions_and_platform(self):
        m = RunManifest(run_kind="test", seed=7)
        d = m.to_dict()
        assert d["run_kind"] == "test"
        assert d["seed"] == 7
        assert set(d["versions"]) == {"repro", "python", "numpy"}
        assert "system" in d["platform"]

    def test_no_wall_clock_fields(self):
        # Determinism: identical runs must produce identical manifests,
        # so no timestamp-like field may appear.
        d = RunManifest(run_kind="test", seed=1).to_dict()
        blob = json.dumps(d).lower()
        for banned in ("time", "date", "stamp"):
            assert banned not in blob

    def test_to_json_deterministic(self):
        cfg = WiScapeConfig()
        a = RunManifest("monitor", 7, config=cfg, gen_seed=1).to_json()
        b = RunManifest("monitor", 7, config=cfg, gen_seed=1).to_json()
        assert a == b

    def test_write_read_roundtrip(self, tmp_path):
        m = RunManifest("bench", 3, zone_grid={"radius_m": 250.0})
        path = tmp_path / "manifest.json"
        m.write(path)
        back = RunManifest.read(path)
        assert back == m.to_dict()
        assert back["zone_grid"] == {"radius_m": 250.0}
