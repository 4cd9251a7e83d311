"""The DataNode: block storage, write pipelines, the BPOfferService handshake.

Bug site seeded here:

* HDFS-14372 (pre-read BPOfferService) — the shutdown script touches
  registration state that only exists after the register ack; shutting the
  datanode down in the handshake-to-register window aborts instead of
  stopping cleanly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster import HeartbeatSender, Node, tracked_dict, tracked_ref
from repro.cluster.ids import BlockId, BlockPoolId, NodeId
from repro.cluster.io import CorruptStreamError, FileInputStream, FileOutputStream, SimDisk
from repro.mtlog import get_logger
from repro.systems.hdfs.records import BPOfferService

LOG = get_logger("hdfs.datanode")


class DataNode(Node):
    """HDFS DataNode (worker daemon)."""

    role = "datanode"
    critical = False
    exception_policy = "abort"  # real datanodes exit on fatal errors
    default_port = 9866

    blocks: Dict[BlockId, str] = tracked_dict()
    bpos: Optional[BPOfferService] = tracked_ref()

    def __init__(self, cluster, name, nn: str = "nn", **kwargs):
        super().__init__(cluster, name, **kwargs)
        self.nn = nn
        self.storage_id = f"DS-{name}-001"
        self.disk = SimDisk()
        self.bpos = None
        self.heartbeat = HeartbeatSender(
            self, nn, "dn_heartbeat", cluster.config.get("hdfs.dn_heartbeat", 0.5),
            payload=lambda: {"node_id": self.node_id},
        )

    # ------------------------------------------------------------------
    # the BPOfferService bring-up (HDFS-14372 window)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        LOG.info("DataNode starting on {}", self.node_id)
        self.send(self.nn, "handshake", node_id=self.node_id)

    def on_handshake_reply(self, src: str, bp_id: BlockPoolId) -> None:
        self.bpos = BPOfferService(bp_id, self.node_id)
        LOG.info("Acquired {}", self.bpos)
        self._do_register()

    def _do_register(self) -> None:
        # The pre-read crash point: reading the offer service right before
        # the register RPC is where CrashTuner shuts this datanode down
        # (HDFS-14372's window: the shutdown script then runs mid-bring-up).
        service = self.bpos
        self.send(self.nn, "register_datanode", node_id=service.dn_node_id,
                  storage_id=self.storage_id)

    def on_register_ack(self, src: str, node_id: NodeId) -> None:
        if self.bpos is None:
            return
        self.bpos.registered = True
        self.bpos.registration_info = f"{self.storage_id}@{self.node_id}"
        self.heartbeat.start()
        LOG.info("DataNode {} registered with namenode", self.node_id)

    def on_shutdown(self) -> None:
        self.send(self.nn, "unregister_datanode", node_id=self.node_id)
        service = self.bpos
        if service is None:
            return
        # BUG:HDFS-14372 — shutdown reports with registration info that only
        # exists once the register ack wrote it (a pre-read may land mid-ack).
        if self.cluster.is_patched("HDFS-14372") and service.registration_info is None:
            LOG.info("Skipping block-pool report for unregistered {}", service)
            return
        final_report = service.registration_info.upper()  # AttributeError pre-register
        LOG.info("Final block-pool report {} for {}", final_report, service.bp_id)

    # ------------------------------------------------------------------
    # block IO
    # ------------------------------------------------------------------
    def on_write_block(self, src: str, block_id: BlockId, data: str,
                       pipeline: List[NodeId], client: Optional[str] = None) -> None:
        # Receiving a block takes real time; while the tail of the pipeline
        # is still writing, the NameNode's replication monitor sees the
        # block under-replicated — exactly as on a real cluster.
        delay = self.cluster.config.get("hdfs.block_write_delay", 0.3)
        self.set_timer(delay, self._store_block, block_id, data, pipeline, client)

    def _store_block(self, block_id: BlockId, data: str,
                     pipeline: List[NodeId], client: Optional[str]) -> None:
        stream = FileOutputStream(self.disk, f"/data/{block_id}")
        stream.write(data)
        stream.flush()
        stream.close()
        self.blocks.put(block_id, data)
        LOG.info("Received {} of length {}", block_id, len(data))
        self.send(self.nn, "block_received", node_id=self.node_id, block_id=block_id)
        if pipeline:
            nxt, rest = pipeline[0], pipeline[1:]
            self.send(nxt.host, "write_block", block_id=block_id, data=data,
                      pipeline=rest, client=client)

    def on_read_block(self, src: str, block_id: BlockId, path: str) -> None:
        if not self.blocks.contains(block_id):
            self.send(src, "block_error", block_id=block_id, path=path,
                      reason="replica not found")
            return
        try:
            stream = FileInputStream(self.disk, f"/data/{block_id}")
            records = stream.read_all()
            stream.close()
        except CorruptStreamError as exc:
            LOG.error("Error reading {}", block_id, exc=exc)
            self.send(src, "block_error", block_id=block_id, path=path, reason=str(exc))
            return
        self.send(src, "block_data", block_id=block_id, path=path,
                  data=records[0] if records else "")

    def on_replicate_block(self, src: str, block_id: BlockId, target: NodeId) -> None:
        data = self.blocks.get(block_id)
        if data is None:
            return
        LOG.info("Replicating {} to {}", block_id, target)
        self.send(target.host, "write_block", block_id=block_id, data=data, pipeline=[])
