"""Sampling strategies for operator-commuting pairs and related inputs.

Rejection sampling essentially never produces operator-commuting pairs, so
the strategies here are constructive: polynomials in a common generator
plus a central part, spin lines t*1 + s*a, and commuting diagonals in the
matrix model.  Every consumer re-verifies commutativity before use, the
map-driven checks through ``_draw_oc_pair``.  Check bodies draw coordinate
arrays from the private forms; a public sampler, a callable
rng -> (Element, Element), is called only when a caller supplies one.
"""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraHandle, Element, HermitianMatrixAlgebra, _owned, _random
from .calculus import _decompose, _operator_commutes
from .errors import SamplerViolation

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


def _elements(A: AlgebraHandle, pair):
    return None if pair is None else (Element(A.id, pair[0]), Element(A.id, pair[1]))


def same_generator_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """b = polynomial in a plus a central self-adjoint part."""
    return _elements(A, _same_generator_pair(A, rng))


def _same_generator_pair(A: AlgebraHandle, rng: np.random.Generator):
    a = _random(A, rng, "self_adjoint")
    c1, c2 = rng.standard_normal(2)
    b = float(c1) * a + float(c2) * A._prod(a, a)
    for z in A._center_rows:
        b = b + float(rng.standard_normal()) * z
    return a, b


def spin_line_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """b = t*1 + s*a; the only nontrivial commuting shape in a spin factor."""
    return _elements(A, _spin_line_pair(A, rng))


def _spin_line_pair(A: AlgebraHandle, rng: np.random.Generator):
    a = _random(A, rng, "self_adjoint")
    t, s = rng.standard_normal(2)
    return a, float(t) * A.unit.coords + float(s) * a


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


# array forms of the model strategies, for draws with no sampler supplied
_DEFAULT_DRAWS = {"same_generator": _same_generator_pair, "spin_line": _spin_line_pair}


def _draw_oc_pair(A: AlgebraHandle, sampler, rng: np.random.Generator):
    """Coordinates of a pair from ``sampler``, or from the array form of the
    model's own strategy when it is None (the same draws as
    ``default_oc_sampler``); SamplerViolation unless it operator commutes."""
    if sampler is None:
        x, y = _DEFAULT_DRAWS[A.oc_strategy](A, rng)
    else:
        x, y = (_owned(A, e) for e in sampler(rng))
    chk = _operator_commutes(A, x, y)
    if not chk:
        raise SamplerViolation(
            f"sampler produced a non-commuting pair (residual {chk.residual:.3e})"
        )
    return x, y


def noncommuting_pair(
    A: AlgebraHandle, rng: np.random.Generator, min_factor: float = 10.0, attempts: int = 200
) -> tuple[Element, Element] | None:
    """Self-adjoint pair whose commutator residual clears the threshold by
    min_factor; None when the model has no such pair (e.g. dimension 1)."""
    return _elements(A, _noncommuting_pair(A, rng, min_factor, attempts))


def _noncommuting_pair(A: AlgebraHandle, rng: np.random.Generator, min_factor=10.0, attempts=200):
    for _ in range(attempts):
        a = _random(A, rng, "self_adjoint")
        b = _random(A, rng, "self_adjoint")
        chk = _operator_commutes(A, a, b)
        if chk.residual >= min_factor * chk.threshold:
            return a, b
    return None


def orthogonal_projection_pair(
    A: AlgebraHandle, rng: np.random.Generator
) -> tuple[Element, Element] | None:
    """Orthogonal projections from a common spectral decomposition."""
    return _elements(A, _orthogonal_projection_pair(A, rng))


def _orthogonal_projection_pair(A: AlgebraHandle, rng: np.random.Generator):
    P = _decompose(A, _random(A, rng, "self_adjoint")).idempotents
    m = P.shape[0]
    if m < 2:
        return None
    idx = rng.permutation(m)
    cut = int(rng.integers(1, m))
    rest = idx[cut:]
    qn = int(rng.integers(1, rest.size + 1))
    return P[idx[:cut]].sum(axis=0), P[rest[:qn]].sum(axis=0)


def commuting_projection_pair(
    A: AlgebraHandle, rng: np.random.Generator
) -> tuple[Element, Element] | None:
    """Operator-commuting (possibly overlapping) projection pair."""
    return _elements(A, _commuting_projection_pair(A, rng))


def _commuting_projection_pair(A: AlgebraHandle, rng: np.random.Generator):
    P = _decompose(A, _random(A, rng, "self_adjoint")).idempotents
    m = P.shape[0]
    if m < 2:
        return None
    bits_p = rng.integers(0, 2, size=m)
    bits_q = rng.integers(0, 2, size=m)
    return bits_p @ P, bits_q @ P
