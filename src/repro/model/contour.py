"""The Figure 2 contour: average speedup over tuple width × cpdb."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.params import QueryShape
from repro.model.speedup import SpeedupModel


@dataclass(frozen=True)
class SpeedupGrid:
    """A grid of predicted speedups (rows = cpdb, columns = width)."""

    widths: np.ndarray
    cpdbs: np.ndarray
    values: np.ndarray

    def render(self) -> str:
        """ASCII rendering of the contour (``cpdb`` decreasing downward)."""
        lines = ["speedup (columns over rows)"]
        header = "cpdb \\ width " + " ".join(f"{int(w):>5d}" for w in self.widths)
        lines.append(header)
        for row_index in range(len(self.cpdbs) - 1, -1, -1):
            cells = " ".join(
                f"{self.values[row_index, col]:>5.2f}"
                for col in range(len(self.widths))
            )
            lines.append(f"{self.cpdbs[row_index]:>11.0f}  {cells}")
        return "\n".join(lines)


def speedup_grid(
    model: SpeedupModel,
    widths: list[float] | None = None,
    cpdbs: list[float] | None = None,
    projection: float = 0.5,
    selectivity: float = 0.10,
    num_attributes: int = 8,
) -> SpeedupGrid:
    """Figure 2's grid: 50 % projection, 10 % selectivity by default.

    ``num_attributes`` splits the tuple into equal-width columns; the
    query selects ``projection`` of them.
    """
    if widths is None:
        widths = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0]
    if cpdbs is None:
        cpdbs = [9.0, 18.0, 36.0, 72.0, 144.0]
    selected_attrs = max(1, round(num_attributes * projection))
    values = np.zeros((len(cpdbs), len(widths)))
    for i, cpdb in enumerate(cpdbs):
        for j, width in enumerate(widths):
            shape = QueryShape(
                tuple_width=float(width),
                selected_bytes=float(width) * projection,
                selectivity=selectivity,
                num_attributes=num_attributes,
                selected_attributes=selected_attrs,
            )
            values[i, j] = model.predict(shape, cpdb=cpdb)
    return SpeedupGrid(
        widths=np.asarray(widths), cpdbs=np.asarray(cpdbs), values=values
    )
