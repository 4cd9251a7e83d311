"""CampaignConfig cross-field validation and its WAL round trip.

Misconfigurations must fail at construction with one actionable message,
not deep inside the executor — and a config must survive the service's
to_dict/from_dict round trip exactly, because the write-ahead log is how
workers rehydrate what was submitted.
"""

import pytest

from repro.core.injection import CampaignConfig


# ----------------------------------------------------------------------
# single-field domains
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs, fragment", [
    ({"audit_fraction": -0.1}, "audit_fraction"),
    ({"point_order": "random"}, "point_order"),
    ({"workers": 0}, "workers"),
    ({"workers": -2}, "workers"),
    ({"wait": -0.5}, "wait"),
    ({"max_points": -1}, "max_points"),
])
def test_bad_field_rejected(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        CampaignConfig(**kwargs)


# ----------------------------------------------------------------------
# cross-field combinations
# ----------------------------------------------------------------------
def test_force_workers_requires_a_pool():
    with pytest.raises(ValueError, match="force_workers"):
        CampaignConfig(force_workers=True, workers=1)
    # the combination it exists for stays legal
    CampaignConfig(force_workers=True, workers=4)


def test_analytics_path_requires_novelty_order():
    with pytest.raises(ValueError, match="novelty"):
        CampaignConfig(analytics_path="modes.json")
    CampaignConfig(analytics_path="modes.json", point_order="novelty")


def test_journal_path_must_be_a_file(tmp_path):
    with pytest.raises(ValueError, match="journal_path"):
        CampaignConfig(journal_path="")
    with pytest.raises(ValueError, match="directory"):
        CampaignConfig(journal_path=str(tmp_path))
    CampaignConfig(journal_path=str(tmp_path / "campaign.jsonl"))


def test_boundary_values_accepted():
    CampaignConfig(wait=0.0, max_points=0, workers=1)


# ----------------------------------------------------------------------
# the WAL round trip
# ----------------------------------------------------------------------
def test_to_dict_from_dict_roundtrip(tmp_path):
    cfg = CampaignConfig(
        wait=2.5, random_fallback=True, classify_timeouts=False,
        max_points=7, seed=42, workers=3,
        journal_path=str(tmp_path / "j.jsonl"),
        force_workers=True, point_order="novelty", analytics=True,
    )
    rebuilt = CampaignConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg
    # dict form is JSON-able: paths are strings
    import json
    json.dumps(cfg.to_dict())


def test_from_dict_rejects_unknown_keys():
    data = CampaignConfig().to_dict()
    data["warp_speed"] = True
    with pytest.raises(ValueError, match="warp_speed"):
        CampaignConfig.from_dict(data)


def test_execution_field_is_gone():
    # one engine is left: the old knob is no longer a field
    with pytest.raises(TypeError, match="execution"):
        CampaignConfig(execution="replay")
    assert "execution" not in CampaignConfig().to_dict()


def test_from_dict_drops_legacy_replay_execution():
    # WAL entries written before the field was removed still rehydrate:
    # "replay" is what every campaign does now
    data = CampaignConfig(seed=3, max_points=5).to_dict()
    data["execution"] = "replay"
    assert CampaignConfig.from_dict(data) == CampaignConfig(seed=3, max_points=5)
    assert data["execution"] == "replay"  # the caller's dict is not mutated


def test_from_dict_rejects_legacy_snapshot_execution():
    data = CampaignConfig().to_dict()
    data["execution"] = "snapshot"
    with pytest.raises(ValueError, match="snapshot.*removed"):
        CampaignConfig.from_dict(data)


def test_from_dict_revalidates():
    data = CampaignConfig().to_dict()
    data["workers"] = 0
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig.from_dict(data)


def test_replace_revalidates():
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig().replace(workers=0)
