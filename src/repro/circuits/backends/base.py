"""Engine-backend registry: named, interchangeable simulation engines.

The package has three ways to evaluate the same netlist -- the original
dict evaluator, the packed two-word full-pass core and the incremental
event engine.  An :class:`EngineBackend` bundles one coherent family of
implementations (ternary simulation, per-fault propagation, the PODEM
decision loop and the batching defaults that go with them) under a single
name, and every entry point takes
``engine="reference" | "packed" | "events"``.  :class:`PodemAtpg
<repro.circuits.atpg.PodemAtpg>` dispatches its decision loop on that name.

All registered backends are bit-identical by contract: the parametrized
conformance suite (``tests/test_backends.py``) and the differential fuzz
checks run every backend against the dict reference on randomized circuits,
so a backend only ever changes *how fast* an answer is produced, never the
answer.  That is also why ``engine=`` does not participate in result cache
keys unless explicitly pinned.

The default backend is ``events``; the ``REPRO_ENGINE`` environment
variable overrides it process-wide (CI uses ``REPRO_ENGINE=reference`` to
keep the slow golden path green).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from repro.circuits.netlist import Netlist

#: Fallback backend when neither ``engine=`` nor the environment selects one.
DEFAULT_ENGINE = "events"

#: Environment variable overriding the default backend process-wide.
ENGINE_ENV_VAR = "REPRO_ENGINE"


class EngineBackend:
    """One named family of simulation/ATPG/fault-sim implementations.

    Subclasses provide the two evaluation primitives the engines differ
    in -- a ternary single-vector simulation and a per-fault block
    detector -- plus the dispatch hints (:attr:`fills`,
    :attr:`batched_decompressor`) that the higher layers read instead of
    carrying their own engine flags.  Binary block evaluation is the same
    packed core (:func:`repro.circuits.ternary.eval_binary`) for every
    backend.
    """

    #: Registry key and the value of every ``engine=`` parameter.
    name: str = ""
    #: Default fill handling of ``PodemAtpg.run``: ``"batched"`` packs
    #: pending random fills into one fault-sim block, ``"per-pattern"``
    #: keeps the original drop-per-fill reference behaviour.
    fills: str = "batched"
    #: Default decompressor replay mode (segment-batched vs clock-by-clock).
    batched_decompressor: bool = True

    # ------------------------------------------------------------------
    # Evaluation primitives
    # ------------------------------------------------------------------
    def simulate_ternary(
        self, netlist: Netlist, input_values: Dict[str, Optional[int]]
    ) -> Dict[str, Optional[int]]:
        """Three-valued (0/1/X) simulation of one partial input assignment."""
        raise NotImplementedError

    def block_detector(
        self, simulator, good: Dict[str, int], mask: int
    ) -> Callable:
        """A per-fault detector bound to one fault-free block.

        Returns ``detect(fault) -> int``: the packed detection word of one
        stuck-at fault against the block (``good`` maps every net to its
        fault-free word).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EngineBackend {self.name!r}>"


_REGISTRY: "Dict[str, EngineBackend]" = {}


def register_backend(backend: EngineBackend) -> EngineBackend:
    """Add a backend to the registry under ``backend.name``."""
    if not backend.name:
        raise ValueError("backend needs a non-empty name")
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_REGISTRY)


def default_backend_name() -> str:
    """The process-wide default: ``REPRO_ENGINE`` when set, else ``events``.

    Read on every call (not cached) so test fixtures can monkeypatch the
    environment; an unknown name in the variable raises the same error an
    unknown ``engine=`` does, listing the registered backends.
    """
    name = os.environ.get(ENGINE_ENV_VAR)
    if not name:
        return DEFAULT_ENGINE
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r} in ${ENGINE_ENV_VAR}; "
            f"registered backends: {', '.join(_REGISTRY)}"
        )
    return name


def get_backend(engine: Optional[str] = None) -> EngineBackend:
    """The backend registered under ``engine`` (default backend when None)."""
    if engine is None:
        engine = default_backend_name()
    backend = _REGISTRY.get(engine)
    if backend is None:
        raise ValueError(
            f"unknown engine {engine!r}; "
            f"registered backends: {', '.join(_REGISTRY)}"
        )
    return backend
