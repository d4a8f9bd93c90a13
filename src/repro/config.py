"""Configuration of the full compression pipeline."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class CompressionConfig:
    """All knobs of the State-Skip-LFSR test-set-embedding flow.

    Attributes
    ----------
    window_length:
        Window size ``L``: the number of pseudo-random vectors each seed is
        expanded into (Table 1 sweeps 50..500; 1 reproduces classical
        reseeding).
    segment_size:
        Segment size ``S`` of the sequence-reduction method (Section 3.2).
    speedup:
        State Skip speedup factor ``k`` (Section 3.1; the paper uses k <= 24
        and 32 in the hardware study).
    num_scan_chains:
        Scan chains of the core under test (32 in all paper experiments).
    lfsr_size:
        LFSR size ``n``.  ``None`` sizes it automatically as ``s_max + 8``.
    phase_taps:
        XOR taps per phase-shifter output.
    phase_seed / fill_seed:
        RNG seeds of the phase-shifter construction and the pseudo-random
        fill of free seed variables (fixed for reproducibility).
    alignment:
        ``"exact"`` or ``"ideal"`` useless-segment clock accounting (see
        :class:`repro.skip.reduction.ReductionConfig`).
    force_first_segment_useful:
        Keep the first segment of every seed useful (the paper's architecture
        assumption).
    max_phase_retries:
        How many alternative phase shifters to try when a cube hits a
        structural linear dependency.
    """

    window_length: int = 200
    segment_size: int = 10
    speedup: int = 10
    num_scan_chains: int = 32
    lfsr_size: Optional[int] = None
    phase_taps: int = 3
    phase_seed: int = 2008
    fill_seed: int = 2008
    alignment: str = "exact"
    force_first_segment_useful: bool = True
    max_phase_retries: int = 4

    def __post_init__(self):
        if self.window_length < 1:
            raise ValueError(f"window_length {self.window_length} must be positive")
        if not 1 <= self.segment_size <= self.window_length:
            raise ValueError(
                f"segment_size {self.segment_size} must be in "
                f"[1, window_length {self.window_length}]"
            )
        if self.speedup < 1:
            raise ValueError(f"speedup {self.speedup} must be at least 1")
        if self.num_scan_chains < 1:
            raise ValueError(
                f"num_scan_chains {self.num_scan_chains} must be positive"
            )
        if self.lfsr_size is not None and self.lfsr_size < 2:
            raise ValueError(f"lfsr_size {self.lfsr_size} must be at least 2")
        if self.phase_taps < 1:
            raise ValueError(f"phase_taps {self.phase_taps} must be at least 1")
        if self.alignment not in ("exact", "ideal"):
            raise ValueError(
                f"alignment {self.alignment!r} must be 'exact' or 'ideal'"
            )
        if self.max_phase_retries < 0:
            raise ValueError(
                f"max_phase_retries {self.max_phase_retries} must be non-negative"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_soc(cls) -> "CompressionConfig":
        """The multi-core SoC setting of Section 4: L=200, S=10, k=10."""
        return cls(window_length=200, segment_size=10, speedup=10)

    def with_updates(self, **changes) -> "CompressionConfig":
        """Copy with arbitrary field changes (validated by the constructor)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation / content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """All knobs as a JSON-safe dictionary."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompressionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored so stored campaign records stay loadable
        when the config gains or drops a field.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def cache_key(self) -> str:
        """Stable content hash of the configuration.

        Computed over the canonical JSON of :meth:`to_dict`, so it is
        identical across processes and interpreter runs (unlike ``hash()``)
        and changes whenever any knob changes.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]

    #: Knobs consumed only by the State Skip reduction -- the encode stage
    #: (substrate construction + seed computation) is invariant under them,
    #: which is what lets campaign grid neighbours share one encoding.
    _REDUCTION_ONLY_FIELDS = (
        "segment_size",
        "speedup",
        "alignment",
        "force_first_segment_useful",
    )

    def encode_dict(self) -> Dict[str, object]:
        """The encode-relevant knobs only (reduction-only fields dropped)."""
        data = self.to_dict()
        for name in self._REDUCTION_ONLY_FIELDS:
            data.pop(name)
        return data

    def encode_cache_key(self) -> str:
        """Stable content hash of the encode-relevant knobs.

        Two configs with equal keys produce byte-identical encode-stage
        results on the same test set: the same substrate (LFSR, phase
        shifter, equation system) and the same seeds.  Used by
        :class:`~repro.context.CompressionContext` to cache encodings and by
        the campaign runner to group (S, k) grid neighbours onto one worker.
        ``lfsr_size=None`` (auto) is part of the key, so resolve it first
        when grouping across test sets.
        """
        canonical = json.dumps(
            self.encode_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]
