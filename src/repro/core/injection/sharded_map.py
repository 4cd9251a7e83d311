"""A hash-sharded string map for the online meta-info store.

At 100x world scale the store's ``value_node`` map is the hot dict of the
whole pipeline: every matched log record probes it several times and a
heavy-traffic run accumulates 10^5+ entries.  A single Python dict stays
O(1) amortized, but its growth rehashes move the entire table at once —
on the hottest path, mid-run.  :class:`ShardedValueMap` splits the key
space across fixed power-of-two shards keyed on ``hash(key)``, so each
rehash touches 1/N of the entries and each shard stays small enough to
resize in microseconds.

Mapping semantics are exactly a flat dict's: shard placement is an
internal detail and never affects lookups, membership, or equality
(:class:`~collections.abc.MutableMapping` compares by content).  The one
visible difference is iteration order — shard-by-shard insertion order
rather than global insertion order — which is why order-sensitive
consumers must sort (they already did: dict order was never part of the
store's contract).

The store keeps a plain dict below
:data:`~repro.core.injection.online_log.OnlineMetaStore.SHARD_THRESHOLD`
entries, so seed-scale runs never pay the indirection.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, Iterator, Mapping, Optional


class ShardedValueMap(MutableMapping):
    """``str -> str`` mapping split across fixed hash shards."""

    __slots__ = ("_shards", "_mask", "_size")

    #: shard count; power of two so selection is one AND
    N_SHARDS = 64

    def __init__(self, n_shards: int = N_SHARDS):
        if n_shards <= 0 or n_shards & (n_shards - 1):
            raise ValueError(f"n_shards must be a power of two, got {n_shards}")
        self._shards = [dict() for _ in range(n_shards)]
        self._mask = n_shards - 1
        self._size = 0

    @classmethod
    def from_flat(cls, mapping: Mapping[str, str],
                  n_shards: int = N_SHARDS) -> "ShardedValueMap":
        out = cls(n_shards)
        shards, mask = out._shards, out._mask
        for key, value in mapping.items():
            shards[hash(key) & mask][key] = value
        out._size = len(mapping)
        return out

    # hot-path methods get direct shard access (no ABC mixin dispatch)
    def __getitem__(self, key: str) -> str:
        return self._shards[hash(key) & self._mask][key]

    def __setitem__(self, key: str, value: str) -> None:
        shard = self._shards[hash(key) & self._mask]
        if key not in shard:
            self._size += 1
        shard[key] = value

    def __delitem__(self, key: str) -> None:
        del self._shards[hash(key) & self._mask][key]
        self._size -= 1

    def __contains__(self, key: object) -> bool:
        return key in self._shards[hash(key) & self._mask]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self._shards[hash(key) & self._mask].get(key, default)

    def setdefault(self, key: str, default: Optional[str] = None):
        shard = self._shards[hash(key) & self._mask]
        if key in shard:
            return shard[key]
        shard[key] = default
        self._size += 1
        return default

    def __iter__(self) -> Iterator[str]:
        for shard in self._shards:
            yield from shard

    def __len__(self) -> int:
        return self._size

    def shard_sizes(self) -> Dict[int, int]:
        """Occupancy per shard (diagnostics / the scale benchmark)."""
        return {i: len(s) for i, s in enumerate(self._shards) if s}

    def __repr__(self) -> str:
        return (f"<ShardedValueMap entries={self._size} "
                f"shards={len(self._shards)}>")
