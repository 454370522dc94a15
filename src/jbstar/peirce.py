"""Tripotents, Peirce projections, and Peirce-2 algebras.

A tripotent e splits the space into the eigenspaces of L(e,e) at 1, 1/2, 0.
The three Peirce projections are polynomials in L(e,e).  The model's
``_lqe`` hook gives L(e,e) with the Q(e)^2 that checks P2: on M_n, with
P = e e* and Q = e* e, the Kronecker forms (P kron I + I kron Q^T) / 2 and
P kron Q^T of two n x n products; blockwise on direct sums; from whole
multiplication and U-operator matrices on spin factors.  The identities
of the projections are measured in the Frobenius norm, an upper bound of
the operator 2-norm, so a system's residual bounds the largest 2-norm
defect from above.

The Peirce-2 range carries its own JB*-algebra structure, with product
{a,e,b} and involution {e,a,e}.  The ambient model's ``_peirce2`` hook
gives it as a concrete model: M_r on M_n, M_1 or the spin factor itself on
a spin factor, the sum of the summands' models on a direct sum.  The hook
also gives the embedding and its inverse, and this module checks, on fixed
samples, that the embedding is a Jordan *-isomorphism onto range(P2).
Tripotency is stated once, as the predicate ``_tripotent``: the gate of
the Peirce projections is its ``calculus._gate``, and ``is_tripotent`` its
exact check.  The checks fold their draws into a ``reports.WorstResidual``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _owned, _random, _random_rows
from .calculus import _axiom_defects, _decompose, _exact, _gate, _require
from .errors import NotTripotent, VerificationFailed
from .reports import CheckReport, ResidualCheck, WorstResidual, chunk_sizes

__all__ = [
    "PeirceSystem",
    "is_tripotent",
    "peirce_system",
    "peirce2_algebra",
    "peirce2_embed",
    "peirce2_project",
    "sample_tripotent",
    "peirce_invariants_check",
    "kaup_identity_check",
]


@dataclass(frozen=True)
class PeirceSystem:
    """Tripotent with its three Peirce projections as operator matrices.

    ``residual`` is the largest defect of the Peirce identities checked when
    the system was built, each matrix defect in the Frobenius norm: an upper
    bound of the largest 2-norm defect.
    """

    e: Element
    p2: np.ndarray
    p1: np.ndarray
    p0: np.ndarray
    residual: float


def is_tripotent(A: AlgebraHandle, e: Element) -> ResidualCheck:
    """Whether e = {e,e,e}, with the defect norm as residual."""
    return _is_tripotent(A, _owned(A, e))


def _tripotent(A: AlgebraHandle, x: np.ndarray):
    """Tripotency as a predicate: ||{x,x,x} - x|| <= abs_eps (1 + ||x||^3)."""
    eps = A.tol.abs_eps
    return (A._triple(x, x, x) - x,), eps, lambda: eps * (1.0 + A._norm(x) ** 3)


def _is_tripotent(A: AlgebraHandle, x: np.ndarray) -> ResidualCheck:
    defects, _, threshold = _tripotent(A, x)
    return _exact(A, defects, threshold)


def _lqe(A: AlgebraHandle, x: np.ndarray):
    """Matrices of L(e,e) and of Q(e)^2 (e = x): the model's ``_lqe``, from
    two n x n products on M_n, blockwise on direct sums, and from whole
    multiplication and U-operator matrices elsewhere."""
    return A._lqe(x)


def peirce_system(A: AlgebraHandle, e: Element) -> PeirceSystem:
    """Peirce projections from the polynomial expressions in L(e,e).

    P2 = 2L^2 - L, P1 = 4(L - L^2), P0 = I - 3L + 2L^2; partition, idempotency,
    orthogonality (each pair once: the P's are polynomials in one L(e,e)),
    P2 e = e and P2 = Q(e)^2 are verified before returning.  The residual
    is the largest defect, matrix defects in the Frobenius norm (an upper
    bound of their 2-norm); it must not exceed 1e-7 (1 + |L(e,e)e|^2/|e|^2),
    where |L(e,e)e|/|e| is a lower bound of ||L(e,e)||_2 that equals 1 on a
    tripotent.
    """
    return PeirceSystem(e, *_peirce_projections(A, _owned(A, e)))


def _peirce_projections(A: AlgebraHandle, x: np.ndarray):
    """(P2, P1, P0, residual) of the tripotent with coordinates x."""
    _require(_gate(A, *_tripotent(A, x)), NotTripotent, "tripotent defect {:.3e} exceeds {:.3e}")
    lee, q2 = _lqe(A, x)
    l2 = lee @ lee
    eye = np.eye(A.dim, dtype=complex)
    p2 = 2.0 * l2 - lee
    p1 = 4.0 * (lee - l2)
    p0 = eye - 3.0 * lee + 2.0 * l2
    projs = (p2, p1, p0)
    fro = np.linalg.norm  # Frobenius: an upper bound of each defect's 2-norm
    checks = [fro(p2 + p1 + p0 - eye)]
    checks += [fro(p @ p - p) for p in projs]
    checks += [fro(projs[i] @ projs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    checks.append(A._norm(p2 @ x - x))
    checks.append(fro(p2 - q2))
    worst = float(max(checks))
    # |L(e,e)e| / |e| <= ||L(e,e)||_2, and it is 1 where L(e,e)e = e
    nx = np.linalg.norm(x)
    lower = np.linalg.norm(lee @ x) / nx if nx else 0.0
    if worst > 1e-7 * (1.0 + lower**2):
        raise VerificationFailed(f"Peirce projection identities violated (residual {worst:.3e})")
    return p2, p1, p0, worst


def peirce2_algebra(A: AlgebraHandle, e: Element) -> AlgebraHandle:
    """JB*-algebra on the range of P2(e) with unit e.

    The carrier is the concrete model of the ambient's ``_peirce2`` hook,
    carrying ``ambient``, ``e``, ``embed`` and ``project``.  P2 must be
    hermitian in the coordinates, and its trace the model's dimension; the
    inverse map must invert the embedding and give P2 after it; on fixed
    samples, the embedding must carry the product and the involution to
    {a,e,b} and {e,a,e}, and the model must pass Jordan-identity and
    JB*-axiom spot checks.
    """
    return _peirce2_algebra(A, _owned(A, e))


def _peirce2_algebra(A: AlgebraHandle, x: np.ndarray) -> AlgebraHandle:
    return _peirce2_of(A, x, _peirce_projections(A, x)[0])


def _peirce2_of(A: AlgebraHandle, x: np.ndarray, p2: np.ndarray) -> AlgebraHandle:
    """peirce2_algebra of the tripotent x from its verified projection P2."""
    defect = np.linalg.norm(p2 - p2.conj().T)
    if defect > 1e-7:
        raise VerificationFailed(f"Peirce-2 projection is not hermitian (defect {defect:.3e})")
    dim = round(np.trace(p2).real)
    if dim == 0:
        raise NotTripotent("Peirce-2 range of the zero tripotent is trivial")
    sub, embed, project = A._peirce2(x)
    if sub.dim != dim:
        raise VerificationFailed(f"Peirce-2 model of dimension {sub.dim}, but P2 has trace {dim}")
    # the model is fresh: tag it as this Peirce-2 algebra
    tag = hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest()[:12]
    sub.id = f"peirce2[{A.id};{tag}]"
    sub._unit = Element(sub.id, sub.unit.coords)
    sub.ambient, sub.e, sub.embed, sub.project = A, x, embed, project
    rng = np.random.default_rng(20_624)
    a, b = _random_rows(sub, rng, 12).reshape(6, 2, sub.dim).swapaxes(0, 1)
    jid, axiom, na, nb = _axiom_defects(sub, a, b)
    if np.any((jid > 1e-7 * (1.0 + na) * (1.0 + nb) ** 3) | (axiom > 1e-6 * (1.0 + na**3))):
        raise VerificationFailed("derived Peirce-2 algebra failed its axiom spot checks")
    ea, eb = a @ embed.T, b @ embed.T
    hom = A._norm(sub._prod(a, b) @ embed.T - A._triple(ea, x, eb))
    star = A._norm(sub._inv(a) @ embed.T - A._triple(x, ea, x))
    # project inverts embed, and embed project = P2 (so P2 embed = embed)
    inverse = max(np.linalg.norm(project @ embed - np.eye(dim)), np.linalg.norm(embed @ project - p2))
    if np.any(np.maximum(hom, star) > 1e-7 * (1.0 + na) * (1.0 + nb)) or inverse > 1e-7:
        raise VerificationFailed("Peirce-2 model is not a Jordan *-isomorphism onto range(P2)")
    return sub


def peirce2_embed(sub: AlgebraHandle, x: Element) -> Element:
    """Ambient element corresponding to a Peirce-2 coordinate vector."""
    if sub.ambient is None:
        raise ValueError("not a Peirce-2 algebra handle")
    return Element(sub.ambient.id, sub.embed @ _owned(sub, x))


def peirce2_project(sub: AlgebraHandle, y: Element) -> Element:
    """Peirce-2 coordinates of the Peirce-2 part of an ambient element: the
    handle's inverse map, which vanishes on the other Peirce spaces."""
    if sub.ambient is None:
        raise ValueError("not a Peirce-2 algebra handle")
    return Element(sub.id, sub.project @ _owned(sub.ambient, y))


def sample_tripotent(A: AlgebraHandle, rng: np.random.Generator) -> Element:
    """Random tripotent: a unitary, or a sign combination of the spectral
    idempotents of a random self-adjoint element."""
    return Element(A.id, _sample_tripotent(A, rng))


def _sample_tripotent(A: AlgebraHandle, rng: np.random.Generator) -> np.ndarray:
    if rng.integers(0, 3) == 0:
        return _random(A, rng, "unitary")
    P = _decompose(A, _random(A, rng, "self_adjoint"))[1]
    signs = rng.choice([-1.0, 0.0, 1.0], size=P.shape[0])
    if not np.any(signs):
        signs[int(rng.integers(0, len(signs)))] = 1.0
    return signs @ P


def peirce_invariants_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """Largest Peirce-identity residual (peirce_system) over random tripotents."""
    rng = np.random.default_rng(seed)
    worst = WorstResidual(1e-8)
    for _ in range(trials):
        worst.add(_peirce_projections(A, _sample_tripotent(A, rng))[3])
    return worst.report(f"peirce-invariants[{A.id}]", threshold=worst.tol)


def kaup_identity_check(A: AlgebraHandle, e: Element, trials: int, seed: int) -> CheckReport:
    """Ambient triple product vs the Peirce-2 algebra's own triple product.

    Both sides are evaluated through independent code paths: the ambient
    handle's triple, and the concrete Peirce-2 model's product and
    involution (M_r, spin or a sum) fed into the triple formula, on
    coordinates mapped by the handle's inverse map and embedded back.
    """
    x = _owned(A, e)
    p2 = _peirce_projections(A, x)[0]
    sub = _peirce2_of(A, x, p2)
    rng = np.random.default_rng(seed)
    worst = WorstResidual(1e-7)
    for size in chunk_sizes(trials):
        g = _random_rows(A, rng, 3 * size).reshape(size, 3, A.dim).swapaxes(0, 1)
        ys = (p2 @ g[..., None])[..., 0]  # p2 @ each draw, as a matrix-vector product rounds it
        inner = sub._triple(*(ys @ sub.project.T))  # as peirce2_project
        scale = np.prod(1.0 + A._norm(ys), axis=0)
        worst.add(A._norm(A._triple(*ys) - inner @ sub.embed.T) / scale)
    return worst.report(f"kaup-identity[{A.id}]", threshold=worst.tol)
