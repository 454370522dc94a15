"""Samplers for operator-commuting pairs and related inputs.

Rejection sampling essentially never produces operator-commuting pairs, so
the one operator-commuting draw is constructive: a polynomial in a common
generator plus a central part, on every model.  In a spin factor
a o a = 2 a_0 a - <a|a-bar> 1, so such a pair already lies on the spin
line span{1, a}.  ``_draw_oc_pair`` builds a chunk of k such pairs as one
stack, from one block of normals laid out as k single draws take them, so
the chunk consumes the generator as k single draws do; it verifies the
whole stack before any check uses it: one commutator bound over the rows,
and the exact check only on a row the bound cannot decide
(``calculus._commute_gate``).  It raises SamplerViolation, through
``calculus._require``, on the first pair that does not operator commute.
Commuting projection pairs are draws of fixed length (normals, then rank
bits for p and rank for q), so a chunk is drawn at once and shares one
``_decompose_rows``; a row whose nodes cluster takes its merged pieces from
the one-element form.  Check bodies draw coordinate arrays from the
private forms; the public forms return ``Element``s.
"""

from __future__ import annotations

import numpy as np

from .algebras import AlgebraHandle, Element, _random, _rows_from_normals
from .calculus import _commute_gate, _decompose, _decompose_rows, _operator_commutes, _require
from .errors import SamplerViolation

__all__ = [
    "same_generator_pair",
    "commuting_projection_pair",
]


def _elements(A: AlgebraHandle, pair):
    return None if pair is None else (Element(A.id, pair[0]), Element(A.id, pair[1]))


def same_generator_pair(A: AlgebraHandle, rng: np.random.Generator) -> tuple[Element, Element]:
    """b = polynomial in a plus a central self-adjoint part."""
    return _elements(A, _same_generator_pair(A, rng, 1)[:, 0])


def _same_generator_pair(A: AlgebraHandle, rng: np.random.Generator, size: int) -> np.ndarray:
    """Coordinates of ``size`` same-generator pairs as a (2, size, dim) stack,
    from one block of normals: each row takes a self-adjoint a (2 dim
    normals), then c1, c2 and one coefficient per central basis row, and
    b = c1 a + c2 a o a plus the central part."""
    centre, d = A._center_rows, 2 * A.dim
    z = rng.standard_normal((size, d + 2 + len(centre)))
    a = _rows_from_normals(A, z[:, :d].reshape(size, 2, A.dim), "self_adjoint")
    c = z[:, d:, None]
    b = c[:, 0] * a + c[:, 1] * A._prod(a, a)
    for j, row in enumerate(centre, start=2):
        b = b + c[:, j] * row
    return np.stack([a, b])


def _draw_oc_pair(A: AlgebraHandle, rng: np.random.Generator, size: int):
    """Coordinates of ``size`` same-generator pairs, drawn as one stack
    (``_same_generator_pair``), as a (2, size, dim) stack: the only
    operator-commuting draw in the package.  The stack is gated at once
    (``calculus._commute_gate``); SamplerViolation, with the residual of the
    first failing pair, unless every pair operator commutes."""
    pairs = _same_generator_pair(A, rng, size)
    message = "sampler produced a non-commuting pair (residual {:.3e})"
    _require(_commute_gate(A, *pairs), SamplerViolation, message)
    return pairs


def _noncommuting_pair(A: AlgebraHandle, rng: np.random.Generator):
    """Self-adjoint pair whose commutator residual clears the threshold 10
    times over, within 200 draws; None when there is none (e.g. dimension 1)."""
    for _ in range(200):
        a = _random(A, rng, "self_adjoint")
        b = _random(A, rng, "self_adjoint")
        chk = _operator_commutes(A, a, b)
        if chk.residual >= 10.0 * chk.threshold:
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
    """One draw of ``_commuting_projection_pairs``: (p, q), or None."""
    p, q = _commuting_projection_pairs(A, rng, 1)
    return (p[0], q[0]) if len(p) else None


def _commuting_projection_pairs(A: AlgebraHandle, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of commuting projections p = bits_p @ P and
    q = bits_q @ P, P the idempotents of a random self-adjoint element: a
    (2, j, dim) stack of the j draws, in draw order, with two nodes or more.

    Every draw takes its element's 2 dim normals, then rank bits for p and
    rank for q, whatever its number m of nodes, so the chunk is drawn
    before any decomposition and one ``_decompose_rows`` serves it.  A row
    whose nodes cluster takes its merged pieces from ``_decompose`` and the
    first m of its bits; a row with one node is dropped."""
    normals, bits = [], []
    for _ in range(size):
        normals.append(rng.standard_normal((2, A.dim)))
        bits.append(_projection_bits(rng, A.rank))
    x = _rows_from_normals(A, np.array(normals), "self_adjoint")
    idems, clustered = _decompose_rows(A, x)[1:]
    pieces = [_decompose(A, x[i])[1] if clustered[i] else idems[i] for i in range(size)]
    pairs = [(bp[: len(P)] @ P, bq[: len(P)] @ P) for (bp, bq), P in zip(bits, pieces) if len(P) >= 2]
    return np.stack(pairs, axis=1) if pairs else np.zeros((2, 0, A.dim), dtype=complex)


def _projection_bits(rng: np.random.Generator, m: int):
    """The bits of p and of q over m idempotents; none for one node."""
    if m < 2:
        return None, None
    return rng.integers(0, 2, size=m), rng.integers(0, 2, size=m)
