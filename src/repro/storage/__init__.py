"""Storage substrates: key-value stores, system store, archive log, serde."""

from ..errors import FencedWriteError, ThrottledError
from .archive import ArchiveLog, ArchiveRecord
from .chaos import ChaosKVStore
from .dynamo import ProvisionedKVStore
from .kv import InMemoryKVStore, Item, KeyValueStore
from .serde import NotSerializableError, ensure_serializable, estimate_size, snapshot
from .system_store import MembershipEntry, Reminder, SystemStore
from .tsblocks import (
    BlockStats,
    SealedBlock,
    TieredSeries,
    decode_floats,
    decode_uints,
    encode_floats,
    encode_uints,
)
from .wal import RedoJournal, RedoRecord

__all__ = [
    "ArchiveLog",
    "ArchiveRecord",
    "BlockStats",
    "SealedBlock",
    "TieredSeries",
    "ChaosKVStore",
    "FencedWriteError",
    "InMemoryKVStore",
    "Item",
    "KeyValueStore",
    "MembershipEntry",
    "NotSerializableError",
    "ProvisionedKVStore",
    "RedoJournal",
    "RedoRecord",
    "Reminder",
    "SystemStore",
    "ThrottledError",
    "decode_floats",
    "decode_uints",
    "encode_floats",
    "encode_uints",
    "ensure_serializable",
    "estimate_size",
    "snapshot",
]
