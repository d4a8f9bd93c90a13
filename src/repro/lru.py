"""A minimal bounded mapping with least-recently-used eviction.

Backs the two :class:`~repro.context.CompressionContext` caches (encodings
and covers), the process-wide ``A^k`` memo of
:func:`~repro.lfsr.transition.transition_power` and the ternary state
tables of :mod:`repro.circuits.ternary`.  Kept deliberately tiny: ``get``
refreshes recency, ``put`` evicts the oldest entries beyond the bound the
cache was built with.

This module is a leaf -- it imports nothing from the package -- so both the
low-level layers and the high-level context layer can use it without import
cycles.

Every module-level cache of the package must be an instance of this class
(or a ``weakref`` dictionary): the tier-1 ``bounded-cache`` test checks
the discipline statically.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """Bounded mapping; least-recently-used entries are evicted first.

    ``None`` is not a storable value: ``get`` returns ``None`` for a miss.
    """

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("cache bounds must be at least 1")
        self._bound = bound
        self._data: OrderedDict = OrderedDict()

    @property
    def bound(self) -> int:
        return self._bound

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key):
        """The cached value of ``key`` (refreshes recency) or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``, evicting the oldest beyond bound."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self._bound:
            self._data.popitem(last=False)
