"""Dense reference forms that the tests compare eqlab's kernels against.

eqlab never builds a d×d global operator on a run path: ρ_S(t), ρ_B(t), ω_S
and ω_B come from the amplitude kernel `torus_state`, the reductions
`reduce_to_system` / `reduce_to_bath` and `dephased_marginals`. The functions
here build the same objects the direct way (the density matrix, its partial
traces, the dephased state, the evolved state) so that the tests have an
independent reference. Each is checked against brute force or a closed form
in the test module of the eqlab module it stands beside.
"""

from __future__ import annotations

import math

import numpy as np

from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import energy_coefficients
from eqlab.errors import DimensionMismatchError
from eqlab.hamiltonians import SpectralHamiltonian
from eqlab.linalg import as_matrix, hermitize, kronecker_product
from eqlab.states import as_state


def density_matrix(psi) -> np.ndarray:
    """ρ = |ψ⟩⟨ψ| for a normalized state vector."""
    v = as_state(psi)
    return np.outer(v, v.conj())


def _check_global(rho, space: BipartiteSpace) -> np.ndarray:
    a = as_matrix(rho, "rho")
    if a.shape != (space.d, space.d):
        raise DimensionMismatchError(
            f"expected {space.d}x{space.d} operator, got {a.shape}"
        )
    return a


def partial_trace_bath(rho, space: BipartiteSpace) -> np.ndarray:
    """tr_B: ρ_S[s,s'] = Σ_b ρ[(s,b),(s',b)], re-Hermitized."""
    a = _check_global(rho, space)
    t = a.reshape(space.d_S, space.d_B, space.d_S, space.d_B)
    return hermitize(np.trace(t, axis1=1, axis2=3))


def partial_trace_system(rho, space: BipartiteSpace) -> np.ndarray:
    """tr_S: ρ_B[b,b'] = Σ_s ρ[(s,b),(s,b')], re-Hermitized."""
    a = _check_global(rho, space)
    t = a.reshape(space.d_S, space.d_B, space.d_S, space.d_B)
    return hermitize(np.trace(t, axis1=0, axis2=2))


def evolve(psi0, h: SpectralHamiltonian, t: float) -> np.ndarray:
    """|ψ(t)⟩ = Σ_k c_k e^{-iE_k t} |E_k⟩ in the computational basis."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    c = energy_coefficients(psi0, h)
    return h.eigenbasis @ (np.exp(-1j * h.energies * t) * c)


def dephased_time_average(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """ω = Σ_k |c_k|² |E_k⟩⟨E_k| as a dense d×d matrix.

    There is no gap check: ω is defined for any spectrum, and it is the
    infinite-time average only when the levels are non-degenerate.
    """
    c = energy_coefficients(psi0, h)
    u = h.eigenbasis
    return hermitize((u * np.abs(c) ** 2) @ u.conj().T)


def dense(h: SpectralHamiltonian) -> np.ndarray:
    """H = Σ_k E_k |E_k⟩⟨E_k| as a dense matrix."""
    u = h.eigenbasis
    return hermitize((u * h.energies) @ u.conj().T)


def noninteracting_hamiltonian(
    h_s: SpectralHamiltonian, h_b: SpectralHamiltonian, space: BipartiteSpace
) -> SpectralHamiltonian:
    """H = H_S + H_B: sum energies with product eigenvectors, re-sorted."""
    if h_s.dim != space.d_S or h_b.dim != space.d_B:
        raise DimensionMismatchError(
            f"factor dims ({h_s.dim}, {h_b.dim}) do not match space ({space.d_S}, {space.d_B})"
        )
    energies = (h_s.energies[:, None] + h_b.energies[None, :]).reshape(-1)
    basis = kronecker_product(h_s.eigenbasis, h_b.eigenbasis)
    order = np.argsort(energies, kind="stable")
    return SpectralHamiltonian(energies[order], basis[:, order])
