"""Tensor-product structure of the total Hilbert space.

The global basis convention is |s⟩_S |b⟩_B ↔ i = s * d_B + b, i.e. the
subsystem index is most significant. Every consumer reads an amplitude
vector as a (d_S, d_B) array: `product_state` and the `Subspace.fixed_system`
/ `fixed_bath` draws write ψ ⊗ φ into it, `Subspace.projector_diagonal`
contracts its pinned axis, and `dynamics` traces out one axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError
from .linalg import check_dimension


@dataclass(frozen=True)
class BipartiteSpace:
    """Decomposition H = H_S ⊗ H_B with dimensions (d_S, d_B)."""

    d_S: int
    d_B: int

    def __post_init__(self) -> None:
        if self.d_S < 1 or self.d_B < 1:
            raise DimensionMismatchError(
                f"dimensions must be positive, got ({self.d_S}, {self.d_B})"
            )
        check_dimension(self.d_S * self.d_B)

    @property
    def d(self) -> int:
        return self.d_S * self.d_B

