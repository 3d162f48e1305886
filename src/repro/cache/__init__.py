"""Persistent, content-addressed memoization of enumeration results.

Behaviors are a pure function of ``(program, model, limits)``, so a
finished enumeration can be stored once and replayed forever — see
:class:`~repro.cache.store.BehaviorCache` for the layout (an LRU in
front of one checksummed file per entry) and the safety model, and
:func:`~repro.core.serialization.behavior_cache_key` for the canonical
digest the store is keyed by.  :class:`~repro.cache.bloom.BloomFilter`
serves coverage campaigns' program dedup.
"""

from repro.cache.bloom import BloomFilter
from repro.cache.store import (
    CACHE_PAYLOAD_VERSION,
    BehaviorCache,
    CacheCounters,
    CachedBehaviors,
)

__all__ = [
    "BehaviorCache",
    "BloomFilter",
    "CacheCounters",
    "CachedBehaviors",
    "CACHE_PAYLOAD_VERSION",
]
