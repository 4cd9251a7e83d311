"""Integration tests for the miniature HDFS."""

import pytest

from repro.api import CampaignConfig, crashtuner
from repro.bugs import all_patched_config, seeded_bugs
from repro.systems import get_system, run_workload
from tests.conftest import find_dpoints, inject_at, prepared

ALL_HDFS_PATCHED = {"patched_bugs": frozenset(b.flag for b in seeded_bugs("hdfs"))}


def run_hdfs(seed=0, config=None, before_run=None, deadline=None):
    return run_workload(get_system("hdfs"), seed=seed, config=config,
                        before_run=before_run, deadline=deadline)


def test_clean_dfsio_succeeds():
    report = run_hdfs()
    assert report.succeeded
    assert report.log.errors() == []


def test_files_replicated_to_factor():
    report = run_hdfs()
    nn = report.cluster.nodes["nn"]
    blocks = nn.blocks.snapshot()
    assert blocks
    assert all(len(b.locations) >= nn.replication for b in blocks.values())


def test_datanode_crash_triggers_rereplication():
    report = run_hdfs(
        seed=1,
        config=ALL_HDFS_PATCHED,
        before_run=lambda c, w: c.loop.schedule(1.5, lambda: c.crash_host("node1")),
        deadline=60.0,
    )
    assert report.succeeded
    nn = report.cluster.nodes["nn"]
    report.cluster.run(until=30.0)  # let the replication monitor settle
    for block in nn.blocks.snapshot().values():
        assert len(block.locations) >= nn.replication


def test_namenode_crash_is_cluster_down():
    report = run_hdfs(
        before_run=lambda c, w: c.loop.schedule(0.4, lambda: c.crash_host("nn")),
    )
    assert not report.succeeded


def test_reads_survive_one_datanode_loss():
    report = run_hdfs(
        seed=2,
        config=ALL_HDFS_PATCHED,
        before_run=lambda c, w: c.loop.schedule(1.0, lambda: c.shutdown_host("node2")),
        deadline=60.0,
    )
    assert report.succeeded


def test_hdfs_14216_request_fails_on_removed_node():
    outcome = inject_at("hdfs", "on_get_block_locations", field="datanodes", op="read")
    assert "HDFS-14216" in outcome.matched_bugs
    assert any("IPC handler caught exception" in u
               for u in outcome.verdict.uncommon_exceptions)


def test_hdfs_14216_patched_point_pruned():
    _, _, profile, _ = prepared("hdfs", ALL_HDFS_PATCHED)
    assert find_dpoints(profile, "on_get_block_locations", field="datanodes") == []


def test_hdfs_14372_shutdown_before_register_aborts():
    outcome = inject_at("hdfs", "_do_register", field="bpos", op="read")
    assert "HDFS-14372" in outcome.matched_bugs
    assert any("no attribute 'upper'" in a for a in outcome.verdict.uncommon_exceptions)


def test_hdfs_14372_patched_datanode_stops_cleanly():
    outcome = inject_at("hdfs", "_do_register", field="bpos", op="read",
                        config=ALL_HDFS_PATCHED)
    assert "HDFS-14372" not in outcome.matched_bugs
    assert not outcome.verdict.uncommon_exceptions


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_all_patched_campaign_detects_no_bug(seed):
    # the patched HDFS-14372 shutdown path must hold even when the pre-read
    # shutdown lands between the register ack's `registered` and
    # `registration_info` writes
    result = crashtuner(get_system("hdfs"), campaign=CampaignConfig(seed=seed),
                        config=all_patched_config())
    assert result.campaign.outcomes, "the campaign must test some points"
    assert result.detected_bugs() == {}


def test_hdfs_6231_replication_monitor_aborts_namenode():
    outcome = inject_at("hdfs", "_replication_monitor", field="datanodes", op="read")
    assert "HDFS-6231" in outcome.matched_bugs
    assert outcome.verdict.critical_aborts


def test_hdfs_6231_patched_point_pruned():
    _, _, profile, _ = prepared("hdfs", ALL_HDFS_PATCHED)
    assert find_dpoints(profile, "_replication_monitor", field="datanodes") == []


def test_edit_log_written():
    report = run_hdfs()
    nn = report.cluster.nodes["nn"]
    ops = [op for (op, _) in nn._disk.files["/nn/edits"]]
    assert "OP_ADD" in ops and "OP_CLOSE" in ops
