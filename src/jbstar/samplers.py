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
Commuting projection pairs of a chunk share one ``_decompose_rows`` on the
same stream too: a row whose nodes cluster winds the generator back and
takes the one-element form.  Check bodies draw coordinate arrays from the
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
    """One draw of ``_commuting_projection_pairs``: (p, q), or None."""
    p, q = _commuting_projection_pairs(A, rng, 1)
    return (p[0], q[0]) if len(p) else None


def _commuting_projection_pairs(A: AlgebraHandle, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws of commuting projections p = bits_p @ P and
    q = bits_q @ P, P the idempotents of a random self-adjoint element: a
    (2, j, dim) stack of the j draws, in draw order, with two nodes or more.

    A draw takes its element's 2 dim normals, then m bits for p and m for
    q, m its number of nodes.  Every row is first drawn with m = rank, as
    every row whose nodes are apart has, and one ``_decompose_rows`` serves
    the stack.  At its first clustered row the generator is wound back to
    that row's normals, ``_decompose`` gives its own m and its bits, and
    the rows after it are drawn again as a new stack.  So the generator is
    consumed as ``size`` draws one at a time consume it."""
    rank, pairs = A.rank, []
    while size:
        normals, states, bits = [], [], []
        for _ in range(size):
            normals.append(rng.standard_normal((2, A.dim)))
            states.append(rng.bit_generator.state)
            bits.append(_projection_bits(rng, rank))
        x = _rows_from_normals(A, np.array(normals), "self_adjoint")
        idems, clustered = _decompose_rows(A, x)[1:]
        done = int(clustered.argmax()) if clustered.any() else size
        rows = list(zip(bits[:done], idems))
        if done < size:  # the first clustered row, from its own normals on
            rng.bit_generator.state = states[done]
            P = _decompose(A, x[done])[1]
            rows.append((_projection_bits(rng, len(P)), P))
            done += 1
        pairs += [(bp @ P, bq @ P) for (bp, bq), P in rows if bp is not None]
        size -= done
    return np.stack(pairs, axis=1) if pairs else np.zeros((2, 0, A.dim), dtype=complex)


def _projection_bits(rng: np.random.Generator, m: int):
    """The bits of p and of q over m idempotents; none for one node."""
    if m < 2:
        return None, None
    return rng.integers(0, 2, size=m), rng.integers(0, 2, size=m)
