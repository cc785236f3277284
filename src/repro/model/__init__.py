"""The Section 5 analytical model.

Predicts the tuples/sec rate of row and column scans — and hence the
column-over-row speedup — from a handful of parameters: the files read,
per-operator instruction counts, memory bandwidth, and the single
hardware knob **cpdb** (CPU cycles per sequentially delivered disk
byte).
"""

from repro.model.params import HardwareParams, QueryShape, ScannerParams
from repro.model.rates import (
    cpu_rate,
    disk_rate_column,
    disk_rate_row,
    operator_rate,
    parallel_rate,
    scanner_rate,
)
from repro.model.speedup import (
    SpeedupModel,
    crossover_projectivity,
    speedup,
)
from repro.model.contour import speedup_grid
from repro.model.calibrate import scanner_params_from_measurement

__all__ = [
    "HardwareParams",
    "QueryShape",
    "ScannerParams",
    "parallel_rate",
    "operator_rate",
    "scanner_rate",
    "cpu_rate",
    "disk_rate_row",
    "disk_rate_column",
    "speedup",
    "SpeedupModel",
    "crossover_projectivity",
    "speedup_grid",
    "scanner_params_from_measurement",
]
