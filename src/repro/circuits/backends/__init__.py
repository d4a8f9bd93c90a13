"""Pluggable engine backends (see :mod:`repro.circuits.backends.base`).

Importing the package registers the three built-in backends:
``reference``, ``packed`` and ``events`` (the default).
"""

from repro.circuits.backends.base import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    EngineBackend,
    backend_names,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.circuits.backends.builtin import (
    EventsBackend,
    PackedBackend,
    ReferenceBackend,
)

register_backend(ReferenceBackend())
register_backend(PackedBackend())
register_backend(EventsBackend())

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "EngineBackend",
    "EventsBackend",
    "PackedBackend",
    "ReferenceBackend",
    "backend_names",
    "default_backend_name",
    "get_backend",
    "register_backend",
]
