"""The parallel campaign executor's contract: parallel == sequential.

A campaign run with ``CampaignConfig(workers=N)`` must be outcome- and
report-identical to the same campaign run sequentially — same outcomes in
the same (point) order, same matched bugs, same merged metrics, same
re-stitched trace, same diagnoses — with only wall-clock times allowed to
differ.  Plus the journal: a campaign killed mid-run resumes from its
``journal_path`` without re-running completed points, and a journal
written under a different campaign identity is refused.  And the
small-campaign degrade rule: a campaign with fewer than ``workers * 2``
pending points runs in-process unless ``force_workers`` pins the pool.
"""

import json
import warnings

import pytest

from repro.bugs import matcher_for_system
from repro.core.injection import CampaignConfig, JournalMismatch, run_campaign
from repro.obs import Observability
from tests.conftest import prepared

N_POINTS = 12

#: wall-clock-dependent span attrs / outcome fields, excluded from identity
_WALL_ATTRS = ("wall_seconds", "workers")


def _campaign(workers, journal_path=None, obs=None, n_points=N_POINTS, **knobs):
    system, analysis, profile, baseline = prepared("yarn")
    cfg = CampaignConfig(workers=workers, journal_path=journal_path, **knobs)
    return run_campaign(
        system, analysis, profile.dynamic_points[:n_points], campaign=cfg,
        baseline=baseline, matcher=matcher_for_system("yarn"), obs=obs,
    )


def _outcome_dicts(result):
    dicts = [o.to_dict() for o in result.outcomes]
    for d in dicts:
        d.pop("wall_seconds")
    return dicts


def _span_dicts(obs):
    spans = [span.to_dict() for span in obs.tracer.spans]
    for span in spans:
        for attr in _WALL_ATTRS:
            span.get("attrs", {}).pop(attr, None)
    return spans


def _fingerprint(obs):
    """The cross-run identity of a traced campaign (no wall-clock)."""
    return json.dumps([d.to_dict() for d in obs.diagnoses], sort_keys=True)


# ----------------------------------------------------------------------
# determinism: workers=4 is byte-identical to workers=1
# ----------------------------------------------------------------------

def test_parallel_campaign_identical_to_sequential():
    prepared("yarn")  # warm the cache outside the obs contexts
    obs_seq, obs_par = Observability(), Observability()
    with obs_seq:
        seq = _campaign(1, obs=obs_seq)
    with obs_par:
        par = _campaign(4, obs=obs_par)

    assert par.workers == 4 and seq.workers == 1
    assert _outcome_dicts(par) == _outcome_dicts(seq)
    assert sorted(par.detected_bugs()) == sorted(seq.detected_bugs())
    assert par.sim_seconds == seq.sim_seconds
    # merged metrics are exactly the sequential snapshot
    assert obs_par.metrics.snapshot() == obs_seq.metrics.snapshot()
    # re-stitched trace: same spans, same ids, same parentage, same order
    assert _span_dicts(obs_par) == _span_dicts(obs_seq)
    assert obs_par.tracer.dropped == obs_seq.tracer.dropped
    # diagnoses are the report surface: identical, in point order
    assert _fingerprint(obs_par) == _fingerprint(obs_seq)


def test_parallel_campaign_without_obs_matches_sequential():
    seq = _campaign(1, n_points=6)
    par = _campaign(3, n_points=6)
    assert _outcome_dicts(par) == _outcome_dicts(seq)
    assert len(par.diagnoses()) == 6
    assert [d.to_dict() for d in par.diagnoses()] == \
        [d.to_dict() for d in seq.diagnoses()]


def test_speedup_reports_realized_parallelism():
    result = _campaign(2, n_points=4)
    assert result.speedup == pytest.approx(
        sum(o.wall_seconds for o in result.outcomes) / result.wall_seconds
    )


# ----------------------------------------------------------------------
# journal: kill mid-campaign, resume, finish — same answer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("resume_workers", [1, 2])
def test_journal_resume_after_partial_run(tmp_path, resume_workers):
    reference = _campaign(1)
    journal = tmp_path / "campaign.jsonl"

    full = _campaign(1, journal_path=str(journal))
    assert _outcome_dicts(full) == _outcome_dicts(reference)
    lines = journal.read_text().splitlines()
    assert len(lines) == N_POINTS + 1  # meta + one line per point

    # simulate a kill after 4 completed points, mid-write of the 5th
    journal.write_text("\n".join(lines[:5]) + "\n" + lines[5][:37])

    resumed = _campaign(resume_workers, journal_path=str(journal))
    assert resumed.resumed == 4
    assert _outcome_dicts(resumed) == _outcome_dicts(reference)
    assert sorted(resumed.detected_bugs()) == sorted(reference.detected_bugs())
    # the journal is whole again: a further re-run replays everything
    replay = _campaign(1, journal_path=str(journal))
    assert replay.resumed == N_POINTS
    assert _outcome_dicts(replay) == _outcome_dicts(reference)


def test_journal_resume_restores_diagnoses_in_point_order(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    obs_ref = Observability()
    with obs_ref:
        _campaign(1, obs=obs_ref)

    _campaign(1, journal_path=str(journal))
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:6]) + "\n")  # meta + 5 outcomes
    obs = Observability()
    with obs:
        resumed = _campaign(2, journal_path=str(journal), obs=obs)
    assert resumed.resumed == 5
    # journaled points keep their diagnosis records, in point order
    assert _fingerprint(obs) == _fingerprint(obs_ref)


def test_journal_refuses_mismatched_campaign(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    _campaign(1, journal_path=str(journal), n_points=4)
    with pytest.raises(JournalMismatch):
        _campaign(1, journal_path=str(journal), n_points=4, wait=2.0)
    with pytest.raises(JournalMismatch):
        _campaign(1, journal_path=str(journal), n_points=3)


# ----------------------------------------------------------------------
# the PR-2 deprecation shims are gone: old loose kwargs are a TypeError
# ----------------------------------------------------------------------

def test_small_replay_campaign_degrades_to_in_process():
    # 4 points < workers * 2: pool startup would dominate (Table 11's
    # zookeeper/cassandra rows), so the campaign runs in-process...
    degraded = _campaign(4, n_points=4)
    assert degraded.workers == 4  # the *requested* pool size is kept
    assert degraded.workers_realized == 1
    # ...unless the caller explicitly pins the pool
    forced = _campaign(4, n_points=4, force_workers=True)
    assert forced.workers_realized == 4
    assert _outcome_dicts(forced) == _outcome_dicts(degraded)


def test_legacy_kwargs_raise_type_error():
    system, analysis, profile, baseline = prepared("yarn")
    points = profile.dynamic_points[:4]
    with pytest.raises(TypeError):
        run_campaign(system, analysis, points, baseline=baseline,
                     classify_timeouts=False,
                     matcher=matcher_for_system("yarn"))
    with pytest.raises(TypeError):
        run_campaign(system, analysis, points, baseline=baseline,
                     seed=1, matcher=matcher_for_system("yarn"))
    from repro.core.injection import run_one_injection
    with pytest.raises(TypeError):
        run_one_injection(system, analysis, points[0], baseline, wait=2.0)


def test_legacy_positional_seed_raises_type_error():
    from repro import crashtuner, get_system
    with pytest.raises(TypeError, match="CampaignConfig"):
        crashtuner(get_system("cassandra"), 0, run_injection=False)


def test_campaign_config_is_frozen_and_replaceable():
    cfg = CampaignConfig(workers=4)
    with pytest.raises(Exception):
        cfg.workers = 8
    assert cfg.replace(seed=7) == CampaignConfig(workers=4, seed=7)
    # no-op replace returns an equal config
    assert cfg.replace() == cfg


def test_new_api_emits_no_deprecation_warnings():
    system, analysis, profile, baseline = prepared("yarn")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_campaign(system, analysis, profile.dynamic_points[:2],
                     campaign=CampaignConfig(), baseline=baseline,
                     matcher=matcher_for_system("yarn"))
