"""Sampling strategies for operator-commuting pairs and related inputs.

Rejection sampling essentially never produces operator-commuting pairs, so
the strategies here are constructive: polynomials in a common generator
plus a central part, spin lines t*1 + s*a, and commuting diagonals in the
matrix model.  Every consumer re-verifies commutativity before use.
"""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraHandle, Element, HermitianMatrixAlgebra, _random, jordan_product
from .calculus import center_basis, operator_commutes, spectral_decomposition

__all__ = [
    "oc_pair_sampler",
    "default_oc_sampler",
    "same_generator_pair",
    "spin_line_pair",
    "diagonal_pair",
    "noncommuting_pair",
    "orthogonal_projection_pair",
    "commuting_projection_pair",
]


def same_generator_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """b = polynomial in a plus a central self-adjoint part."""
    a = _random(A, rng, "self_adjoint")
    c1, c2 = rng.standard_normal(2)
    b = float(c1) * a + float(c2) * jordan_product(A, a, a)
    for z in center_basis(A):
        b = b + float(rng.standard_normal()) * z
    return a, b


def spin_line_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """b = t*1 + s*a; the only nontrivial commuting shape in a spin factor."""
    a = _random(A, rng, "self_adjoint")
    t, s = rng.standard_normal(2)
    return a, float(t) * A.unit + float(s) * a


def diagonal_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """Commuting real diagonal matrices (hermitian-matrix model only)."""
    if not isinstance(A, HermitianMatrixAlgebra):
        raise ValueError("diagonal strategy needs a hermitian_matrix algebra")
    da = np.diag(rng.standard_normal(A.n)).astype(complex)
    db = np.diag(rng.standard_normal(A.n)).astype(complex)
    return A.element(da.ravel()), A.element(db.ravel())


_STRATEGIES = {
    "same_generator": same_generator_pair,
    "spin_line": spin_line_pair,
    "diagonal": diagonal_pair,
}


def oc_pair_sampler(A: AlgebraHandle, strategy: str = "same_generator"):
    """Callable rng -> (a, b) drawing operator-commuting self-adjoint pairs."""
    fn = _STRATEGIES[strategy]
    return lambda rng: fn(A, rng)


def default_oc_sampler(A: AlgebraHandle):
    """The model's own strategy: spin lines for spin factors, common
    generator polynomials elsewhere."""
    return oc_pair_sampler(A, A.oc_strategy)


def noncommuting_pair(
    A: AlgebraHandle, rng: np.random.Generator, min_factor: float = 10.0, attempts: int = 200
) -> tuple[Element, Element] | None:
    """Self-adjoint pair whose commutator residual clears the threshold by
    min_factor; None when the model has no such pair (e.g. dimension 1)."""
    for _ in range(attempts):
        a = _random(A, rng, "self_adjoint")
        b = _random(A, rng, "self_adjoint")
        chk = operator_commutes(A, a, b)
        if chk.residual >= min_factor * chk.threshold:
            return a, b
    return None


def orthogonal_projection_pair(
    A: AlgebraHandle, rng: np.random.Generator
) -> tuple[Element, Element] | None:
    """Orthogonal projections from a common spectral decomposition."""
    a = _random(A, rng, "self_adjoint")
    dec = spectral_decomposition(A, a)
    m = len(dec.pairs)
    if m < 2:
        return None
    idx = rng.permutation(m)
    cut = int(rng.integers(1, m))
    rest = idx[cut:]
    qn = int(rng.integers(1, rest.size + 1))
    p = sum((dec.pairs[i][1] for i in idx[:cut]), A.zero())
    return p, sum((dec.pairs[i][1] for i in rest[:qn]), A.zero())


def commuting_projection_pair(
    A: AlgebraHandle, rng: np.random.Generator
) -> tuple[Element, Element] | None:
    """Operator-commuting (possibly overlapping) projection pair."""
    a = _random(A, rng, "self_adjoint")
    dec = spectral_decomposition(A, a)
    m = len(dec.pairs)
    if m < 2:
        return None
    bits_p = rng.integers(0, 2, size=m)
    bits_q = rng.integers(0, 2, size=m)
    p = sum((e for bp, (_, e) in zip(bits_p, dec.pairs) if bp), A.zero())
    return p, sum((e for bq, (_, e) in zip(bits_q, dec.pairs) if bq), A.zero())
