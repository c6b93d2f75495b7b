"""One path for each random draw and product build, checked on the sources.

Every complex Gaussian is drawn by `eqlab.linalg.complex_gaussian`, one
``standard_normal`` call for both halves; the form a + 1j·b over two draws
makes three dense temporaries where one does. The models and states are
built without Kronecker products: the spin-bath matrix in place and product
states as outer products. eqlab has no Kronecker-product helper; the tests'
references call ``np.kron``. `SpectralHamiltonian` does not check that its
basis is unitary, so only two functions of `eqlab.hamiltonians` build one:
`_on_window` (a Householder QR factor or None) and `spin_bath_hamiltonian`
(LAPACK's ``eigh`` eigenvectors).
"""

from __future__ import annotations

import ast

import pytest

from test_imports import MODULES, SRC

COMPLEX_ATTRIBUTES = {"imag", "real", "complex128", "complex64"}


def complex_draws(source: str) -> list[int]:
    """Lines outside ``complex_gaussian`` of the simple statements that call
    ``standard_normal`` and make a complex number (a complex literal, ``.imag``,
    ``.real`` or a complex dtype) in the same statement."""
    tree = ast.parse(source)
    exempt = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "complex_gaussian"
        for n in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or hasattr(node, "body") or id(node) in exempt:
            continue
        parts = list(ast.walk(node))
        draws = any(isinstance(n, ast.Attribute) and n.attr == "standard_normal" for n in parts)
        makes_complex = any(
            (isinstance(n, ast.Constant) and isinstance(n.value, complex))
            or (isinstance(n, ast.Attribute) and n.attr in COMPLEX_ATTRIBUTES)
            for n in parts
        )
        if draws and makes_complex:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_complex_gaussians_come_from_one_helper(path):
    assert complex_draws(path.read_text()) == []


def test_detects_complex_draw():
    source = (
        "def complex_gaussian(shape, rng):\n"
        "    z = np.empty(shape, dtype=np.complex128)\n"
        "    z.real, z.imag = rng.standard_normal((2, *z.shape))\n"
        "def draw(rng):\n"
        "    a = rng.standard_normal(4)\n"
        "    if a[0] > 0:\n"
        "        return rng.standard_normal(4) + 1j * rng.standard_normal(4)\n"
        "    z.imag = rng.standard_normal(4)\n"
    )
    assert complex_draws(source) == [7, 8]


@pytest.mark.parametrize("module", ["hamiltonians", "states"])
def test_no_kronecker_product(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert names.isdisjoint({"kron", "kronecker_product"})


def hamiltonian_builds(source: str) -> list[str]:
    """The top-level function or class around each ``SpectralHamiltonian(…)``
    call, in source order ("<module>" for a call outside both)."""
    builds = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "SpectralHamiltonian":
                builds.append((node.lineno, scope))
    return [scope for _, scope in sorted(builds)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_hamiltonians_are_built_in_one_module(path):
    builds = ["_on_window", "spin_bath_hamiltonian"] if path.name == "hamiltonians.py" else []
    assert hamiltonian_builds(path.read_text()) == builds


def test_detects_hamiltonian_build():
    source = (
        "from .hamiltonians import SpectralHamiltonian\n"
        "from . import hamiltonians\n"
        "def rebuild(h, e):\n"
        "    return SpectralHamiltonian(e, h.eigenbasis)\n"
        "class Model:\n"
        "    def build(self):\n"
        "        return hamiltonians.SpectralHamiltonian(self.e, None)\n"
        "H = SpectralHamiltonian([0.0], None)\n"
        "isinstance(H, SpectralHamiltonian)\n"
    )
    assert hamiltonian_builds(source) == ["rebuild", "Model", "<module>"]
