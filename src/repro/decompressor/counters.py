"""Counter sizing of the decompression controller.

The controller of Fig. 3 is built from six small counters:

========  =====================================================================
Bit       counts the shift cycles of one test vector (0 .. r-1)
Vector    counts the vectors of one segment (0 .. S-1)
Segment   counts the segments generated for the current seed
Useful    counts down the useful segments remaining for the current seed
Seed      counts the seeds of the current seed-group
Group     counts the seed-groups (its value = useful segments per seed)
========  =====================================================================

The replays in :mod:`repro.decompressor.architecture` sequence seeds and
segments directly, so only the register widths matter
here: :func:`counter_width` sizes each counter for the gate-equivalent cost
model (:func:`repro.decompressor.hardware.counters_cost`) and for the Mode
Select decoder (:mod:`repro.decompressor.mode_select`).
"""

from __future__ import annotations


def counter_width(max_value: int) -> int:
    """Number of flip-flops needed to count up to ``max_value`` inclusive."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    if max_value == 0:
        return 1
    return max_value.bit_length()
