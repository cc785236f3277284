"""CPU and memory-hierarchy cost simulation.

The engine executes real work on real data and counts *events* (tuples
examined, values decoded per scheme, bytes copied, cache lines touched
sequentially or randomly, I/O units issued).  This package converts
those events into the paper's CPU-time breakdown for a Pentium 4-class
machine: ``sys``, ``usr-uop`` (instructions / 3), ``usr-L2``
(prefetcher-aware memory stalls net of overlap), ``usr-L1`` (upper
bound), and ``usr-rest``.
"""

from repro.cpusim.breakdown import CpuBreakdown
from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpusim.costmodel import CpuModel
from repro.cpusim.events import CostEvents

__all__ = [
    "CostEvents",
    "CpuBreakdown",
    "CpuModel",
    "Calibration",
    "DEFAULT_CALIBRATION",
]
