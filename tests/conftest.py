"""Fixtures shared by several test modules."""

from __future__ import annotations

import numpy as np
import pytest

from eqlab.hamiltonians import SpectralHamiltonian


@pytest.fixture(scope="session")
def dft_1024():
    """A d = 1024 Hamiltonian with evenly spaced levels and the unitary DFT
    as its eigenbasis, for the memory guards."""
    d = 1024
    k = np.arange(d)
    dft = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    return SpectralHamiltonian(np.linspace(0.0, 1.0, d), dft)
