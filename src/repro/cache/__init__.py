"""Persistent, content-addressed memoization of complete enumeration
results.

Behaviors are a pure function of ``(program, model, limits)``, so a
finished enumeration can be stored once and replayed forever — see
:class:`~repro.cache.store.BehaviorCache` for the layout (an LRU in
front of one checksummed file per entry) and the safety model, and
:func:`~repro.core.serialization.behavior_cache_key` for the canonical
digest the store is keyed by.  Nothing partial is ever stored: a
budget-exhausted search is resumed from its own checkpoint, and a
cache directory of unknown provenance is audited with
``BehaviorCache.verify(full=True)`` (``repro cache verify DIR --full``).
"""

from repro.cache.store import (
    CACHE_PAYLOAD_VERSION,
    BehaviorCache,
    CacheCounters,
    CachedBehaviors,
)

__all__ = [
    "BehaviorCache",
    "CacheCounters",
    "CachedBehaviors",
    "CACHE_PAYLOAD_VERSION",
]
