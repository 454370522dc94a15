"""Samplers for operator-commuting pairs and related inputs.

Rejection sampling essentially never produces operator-commuting pairs, so
the one operator-commuting draw is constructive: a polynomial in a common
generator plus a central part, on every model.  In a spin factor
a o a = 2 a_0 a - <a|a-bar> 1, so such a pair already lies on the spin
line span{1, a}.  ``_draw_oc_pair`` draws a stack of such pairs one after
another, so a chunk of k pairs consumes the generator as k single draws
do, and verifies the whole stack before any check uses it: one
commutator bound over the rows, and the exact check only on a row the
bound cannot decide (``calculus._commute_gate``).  It raises
SamplerViolation, through ``calculus._require``, on the first pair that
does not operator commute.  Check bodies draw coordinate arrays from the
private forms; the public forms return ``Element``s.
"""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraHandle, Element, _random
from .calculus import _commute_gate, _decompose, _operator_commutes, _require
from .errors import SamplerViolation

__all__ = [
    "same_generator_pair",
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


def _draw_oc_pair(A: AlgebraHandle, rng: np.random.Generator, size: int):
    """Coordinates of ``size`` same-generator pairs, drawn in turn, as a
    (2, size, dim) stack: the only operator-commuting draw in the package.
    The stack is gated at once (``calculus._commute_gate``); SamplerViolation,
    with the residual of the first failing pair, unless every pair operator
    commutes."""
    pairs = np.stack([_same_generator_pair(A, rng) for _ in range(size)], axis=1)
    message = "sampler produced a non-commuting pair (residual {:.3e})"
    _require(_commute_gate(A, *pairs), SamplerViolation, message)
    return pairs


def _noncommuting_pair(A: AlgebraHandle, rng: np.random.Generator, min_factor=10.0, attempts=200):
    """Self-adjoint pair whose commutator residual clears the threshold by
    min_factor; None when the model has no such pair (e.g. dimension 1)."""
    for _ in range(attempts):
        a = _random(A, rng, "self_adjoint")
        b = _random(A, rng, "self_adjoint")
        chk = _operator_commutes(A, a, b)
        if chk.residual >= min_factor * chk.threshold:
            return a, b
    return None


def _orthogonal_projection_pair(A: AlgebraHandle, rng: np.random.Generator):
    """Orthogonal projections from a common spectral decomposition."""
    P = _decompose(A, _random(A, rng, "self_adjoint"))[1]
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
    P = _decompose(A, _random(A, rng, "self_adjoint"))[1]
    m = P.shape[0]
    if m < 2:
        return None
    bits_p = rng.integers(0, 2, size=m)
    bits_q = rng.integers(0, 2, size=m)
    return bits_p @ P, bits_q @ P
