"""Small bounded maps of what the runtime derives from immutable inputs.

Between replans a runtime keeps handing the same few objects around: the
planner's replan memo returns the same plan objects, sticky plan drift
revisits the same scales, and the injector draws against the same plans.
Each owner keeps what it derived from them in an :class:`IdentityMemo`,
keyed on the inputs' identity, so revisiting an input costs a lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["DERIVED_STATE_ENTRIES", "IdentityMemo"]

#: Entries each map keeps, least recently used out first; the planner's
#: replan memo holds as many plans (``REPLAN_MEMO_SIZE``).
DERIVED_STATE_ENTRIES = 8

V = TypeVar("V")


class IdentityMemo(Generic[V]):
    """An LRU map from ``(objects, values)`` to what was built from them.

    ``objects`` are immutable inputs compared by identity; ``values`` are
    plain hashable values compared by equality. An entry keeps its objects
    alive, so no object's ``id`` can be reused while the entry stands.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[tuple, V]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __reduce__(self):
        # A copy would hold copies of the inputs under the originals' ids,
        # which new objects may take: copies start empty.
        return (IdentityMemo, ())

    def get(self, objects: tuple, values: tuple[Hashable, ...], build: Callable[[], V]) -> V:
        """The entry for ``(objects, values)``, built on a miss."""
        key = (*map(id, objects), *values)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            return entry[1]
        value = build()
        entries[key] = (objects, value)
        if len(entries) > DERIVED_STATE_ENTRIES:
            entries.popitem(last=False)
        return value
