"""One path for each random draw and product build, checked on the sources.

Every complex Gaussian is drawn by `eqlab.linalg.complex_gaussian`, one
``standard_normal`` call for both halves; the form a + 1j·b over two draws
makes three dense temporaries where one does. The models and states are
built without Kronecker products: the spin-bath matrix in place and product
states as outer products. ``kronecker_product`` stays in ``linalg`` for the
SWAP identity.
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
