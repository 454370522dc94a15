"""Tripotents, Peirce projections, and Peirce-2 algebras.

A tripotent e splits the space into the eigenspaces of L(e,e) at 1, 1/2, 0.
The three Peirce projections are polynomials in L(e,e); the Peirce-2 range
carries its own JB*-algebra structure with product {a,e,b} and involution
{e,a,e}, which this module materializes as a derived AlgebraHandle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, Peirce2Algebra, _random, jbstar_norm
from .calculus import _axiom_defects, spectral_decomposition
from .errors import NotTripotent, VerificationFailed
from .kernel import operator_norm
from .reports import CheckReport, ResidualCheck

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
    the system was built.
    """

    e: Element
    p2: np.ndarray
    p1: np.ndarray
    p0: np.ndarray
    residual: float


def is_tripotent(A: AlgebraHandle, e: Element) -> ResidualCheck:
    """Whether e = {e,e,e}, with the defect norm as residual."""
    x = e.coords
    residual = A._norm(A._triple(x, x, x) - x)
    threshold = A.tol.abs_eps * (1.0 + A._norm(x) ** 3)
    return ResidualCheck(residual <= threshold, residual, threshold)


def _lqe(A: AlgebraHandle, e: Element):
    """Matrices of L(e,e) (linear) and Q(e) (as x -> Mq conj(x))."""
    x = e.coords
    eye = np.eye(A.dim, dtype=complex)
    lee = np.stack([A._triple(x, x, eye[j]) for j in range(A.dim)], axis=1)
    # {e, y, e} is conjugate-linear in y, so columns are taken at basis
    # vectors and the operator acts on conjugated coordinates
    mq = np.stack([A._triple(x, eye[j], x) for j in range(A.dim)], axis=1)
    return lee, mq


def peirce_system(A: AlgebraHandle, e: Element) -> PeirceSystem:
    """Peirce projections from the polynomial expressions in L(e,e).

    P2 = L(2L - I), P1 = 4L(I - L), P0 = (I - L)(I - 2L); the partition,
    idempotency and mutual orthogonality (all six orders) identities,
    P2 e = e and P2 = Q(e)^2 are verified before returning.
    """
    chk = is_tripotent(A, e)
    if not chk:
        raise NotTripotent(f"tripotent defect {chk.residual:.3e} exceeds {chk.threshold:.3e}")
    lee, mq = _lqe(A, e)
    eye = np.eye(A.dim, dtype=complex)
    p2 = lee @ (2.0 * lee - eye)
    p1 = 4.0 * (lee @ (eye - lee))
    p0 = (eye - lee) @ (eye - 2.0 * lee)
    projs = (p2, p1, p0)
    checks = [operator_norm(p2 + p1 + p0 - eye)]
    checks += [operator_norm(p @ p - p) for p in projs]
    checks += [operator_norm(projs[i] @ projs[j]) for i in range(3) for j in range(3) if i != j]
    checks.append(A._norm(p2 @ e.coords - e.coords))
    checks.append(operator_norm(p2 - mq @ np.conj(mq)))
    worst = max(checks)
    if worst > 1e-7 * (1.0 + operator_norm(lee) ** 2):
        raise VerificationFailed(f"Peirce projection identities violated (residual {worst:.3e})")
    return PeirceSystem(e, p2, p1, p0, worst)


def peirce2_algebra(A: AlgebraHandle, e: Element) -> AlgebraHandle:
    """JB*-algebra on the range of P2(e) with unit e.

    The carrier basis comes from the column space of P2 (SVD with rank
    threshold abs_eps * ||P2||); the norm is inherited from the ambient
    algebra.  Jordan-identity and JB*-axiom residuals are spot-checked on
    random samples of the derived algebra.
    """
    sys = peirce_system(A, e)
    u, s, _ = np.linalg.svd(sys.p2)
    rank = int(np.sum(s > A.tol.abs_eps * max(s[0], 1.0)))
    if rank == 0:
        raise NotTripotent("Peirce-2 range of the zero tripotent is trivial")
    embed = u[:, :rank]
    sub = Peirce2Algebra(A, e.coords, embed)
    rng = np.random.default_rng(20_624)
    for _ in range(6):
        jid, axiom, na, nb = _axiom_defects(sub, _random(sub, rng), _random(sub, rng))
        if jid > 1e-7 * (1.0 + na) * (1.0 + nb) ** 3 or axiom > 1e-6 * (1.0 + na**3):
            raise VerificationFailed("derived Peirce-2 algebra failed its axiom spot checks")
    return sub


def peirce2_embed(sub: Peirce2Algebra, x: Element) -> Element:
    """Ambient element corresponding to a Peirce-2 coordinate vector."""
    if not isinstance(sub, Peirce2Algebra):
        raise ValueError("not a Peirce-2 algebra handle")
    return Element(sub.ambient.id, sub.embed @ x.coords)


def peirce2_project(sub: Peirce2Algebra, y: Element) -> Element:
    """Peirce-2 coordinates of an ambient element (orthogonal projection)."""
    if not isinstance(sub, Peirce2Algebra):
        raise ValueError("not a Peirce-2 algebra handle")
    return Element(sub.id, sub.embed.conj().T @ y.coords)


def sample_tripotent(A: AlgebraHandle, rng: np.random.Generator) -> Element:
    """Random tripotent: a unitary, or a sign combination of the spectral
    idempotents of a random self-adjoint element."""
    if rng.integers(0, 3) == 0:
        return _random(A, rng, "unitary")
    a = _random(A, rng, "self_adjoint")
    dec = spectral_decomposition(A, a)
    signs = rng.choice([-1.0, 0.0, 1.0], size=len(dec.pairs))
    if not np.any(signs):
        signs[int(rng.integers(0, len(signs)))] = 1.0
    return sum((float(sg) * idem for sg, (_, idem) in zip(signs, dec.pairs) if sg), A.zero())


def peirce_invariants_check(A: AlgebraHandle, trials: int, seed: int) -> CheckReport:
    """Largest Peirce-identity residual (peirce_system) over random tripotents."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, peirce_system(A, sample_tripotent(A, rng)).residual)
    thr = 1e-8
    return CheckReport(
        name=f"peirce-invariants[{A.id}]",
        passed=worst <= thr,
        trials=trials,
        max_residual=worst,
        details={"threshold": thr},
    )


def kaup_identity_check(A: AlgebraHandle, e: Element, trials: int, seed: int) -> CheckReport:
    """Ambient triple product vs the Peirce-2 algebra's own triple product.

    Both sides are evaluated through independent code paths: the ambient
    handle's triple, and the derived algebra's product/involution fed into
    the same triple formula.
    """
    sub = peirce2_algebra(A, e)
    sys = peirce_system(A, e)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        xs = [Element(A.id, sys.p2 @ _random(A, rng).coords) for _ in range(3)]
        ambient = A._triple(xs[0].coords, xs[1].coords, xs[2].coords)
        subs = [peirce2_project(sub, x) for x in xs]
        inner = sub._triple(subs[0].coords, subs[1].coords, subs[2].coords)
        back = sub.embed @ inner
        scale = np.prod([1.0 + jbstar_norm(A, x) for x in xs])
        worst = max(worst, A._norm(ambient - back) / scale)
    thr = 1e-7
    return CheckReport(
        name=f"kaup-identity[{A.id}]",
        passed=worst <= thr,
        trials=trials,
        max_residual=worst,
        details={"threshold": thr},
    )
