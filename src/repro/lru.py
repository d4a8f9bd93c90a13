"""A minimal bounded mapping with least-recently-used eviction.

Shared by the :class:`~repro.context.CompressionContext` caches (substrates,
encodings, expanded windows) and the per-cube caches of
:class:`~repro.encoding.equations.EquationSystem`.  Kept deliberately tiny:
``get`` refreshes recency, ``put`` evicts the oldest entries beyond the
bound, and the bound itself is adjustable at runtime (the equation system
raises it to fit a whole test set; see
:meth:`~repro.encoding.equations.EquationSystem.reserve_cube_capacity`).

This module is a leaf -- it imports nothing from the package -- so both the
low-level encoding layer and the high-level context layer can use it
without import cycles.

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
        self._bound = 0
        self.bound = bound  # validated by the setter
        self._data: OrderedDict = OrderedDict()

    @property
    def bound(self) -> int:
        return self._bound

    @bound.setter
    def bound(self, value: int) -> None:
        if value < 1:
            raise ValueError("cache bounds must be at least 1")
        self._bound = value
        if hasattr(self, "_data"):
            self._evict()

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
        self._evict()

    def _evict(self) -> None:
        while len(self._data) > self._bound:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
