"""SARGable scan predicates.

Predicates are simple attribute-versus-constant comparisons (what the
paper's scanners can apply).  ``predicate_for_selectivity`` builds the
paper's experimental knob: a predicate on the first selected attribute
whose threshold is chosen from the data's quantiles so that a target
fraction of tuples qualifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError


class ComparisonOp(enum.Enum):
    """Supported comparison operators."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="


@dataclass(frozen=True)
class Predicate:
    """One ``attribute <op> constant`` condition."""

    attr: str
    op: ComparisonOp
    value: object

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Boolean qualification mask for an array of values."""
        op = self.op
        if op is ComparisonOp.LT:
            return values < self.value
        if op is ComparisonOp.LE:
            return values <= self.value
        if op is ComparisonOp.GT:
            return values > self.value
        if op is ComparisonOp.GE:
            return values >= self.value
        if op is ComparisonOp.EQ:
            return values == self.value
        return values != self.value

    def describe(self) -> str:
        return f"{self.attr} {self.op.value} {self.value!r}"


def predicate_for_selectivity(
    attr: str,
    values: np.ndarray,
    selectivity: float,
) -> Predicate:
    """A ``attr <= q`` predicate qualifying about ``selectivity`` of tuples.

    The threshold is the empirical quantile of ``values``; exactness
    depends on ties in the data (integer domains), which is the same
    behaviour one gets picking constants against real TPC-H data.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise PlanError(f"selectivity must be within [0, 1]: {selectivity}")
    values = np.asarray(values)
    if values.size == 0:
        raise PlanError("cannot derive a selectivity threshold from no data")
    if values.dtype.kind not in "iuf":
        raise PlanError(
            f"selectivity predicates need an ordered numeric attribute, "
            f"got dtype {values.dtype}"
        )
    if selectivity >= 1.0:
        return Predicate(attr, ComparisonOp.LE, int(values.max()))
    if selectivity <= 0.0:
        return Predicate(attr, ComparisonOp.LT, int(values.min()))
    threshold = np.quantile(values, selectivity, method="lower")
    return Predicate(attr, ComparisonOp.LE, int(threshold))
