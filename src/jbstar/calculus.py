"""Derived Jordan-algebraic operators and predicates.

Multiplication operators, U-operators, triple products, associators,
operator commutativity, centre, invertibility, Jordan spectrum, and the
functional calculus built on it.  U-operator matrices and commutator norms
come from the model: closed forms on M_n (a kron a^T, and one n x n
eigensolve for a skew-hermitian commutator) and blockwise on direct sums,
products of multiplication matrices elsewhere.

The spectral route is a Krylov compression: Arnoldi from the unit, on
x -> a o x, spans the associative subalgebra C(1, a) (powers of a single
element are unambiguous by power associativity), and the compression of L_a
to that span is diagonalised by a small dense eigensolver.  It is the same
code for every algebra model; the associative eigendecomposition of a
matrix model only ever appears as an independent oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _owned, involution, jbstar_norm, jordan_product
from .errors import NotSelfAdjoint, VerificationFailed
from .reports import ResidualCheck

__all__ = [
    "SpectralDecomposition",
    "mult_operator",
    "u_operator",
    "u_operator_matrix",
    "u_operator_bilinear",
    "triple_product",
    "associator",
    "operator_commutes",
    "center_basis",
    "is_invertible",
    "jordan_spectrum",
    "spectral_decomposition",
    "functional_calculus",
    "exp_i",
    "exp_from_decomposition",
    "is_positive",
    "is_self_adjoint",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues, ascending, their idempotents as the rows of a
    read-only (m, dim) coordinate array, and the reconstruction residual."""

    algebra_id: str
    values: np.ndarray
    idempotents: np.ndarray
    residual: float

    @property
    def pairs(self) -> tuple:
        """(eigenvalue, idempotent element) pairs."""
        return tuple(
            (float(lam), Element(self.algebra_id, e)) for lam, e in zip(self.values, self.idempotents)
        )

    @property
    def eigenvalues(self) -> list[float]:
        return [float(lam) for lam in self.values]


def _self_adjoint_defect(A: AlgebraHandle, a: Element) -> tuple[float, float, float]:
    """(||a* - a||, threshold, ||a||) for the self-adjointness test."""
    dev = jbstar_norm(A, involution(A, a) - a)
    norm = jbstar_norm(A, a)
    return dev, A.tol.abs_eps * (1.0 + norm), norm


def is_self_adjoint(A: AlgebraHandle, a: Element) -> bool:
    dev, thr, _ = _self_adjoint_defect(A, a)
    return dev <= thr


def mult_operator(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of x -> a o x in the algebra basis."""
    return A._mult_matrix(_owned(A, a))


def u_operator(A: AlgebraHandle, a: Element, b: Element) -> Element:
    """U_a(b) = 2 (a o b) o a - a^2 o b."""
    ab = jordan_product(A, a, b)
    return 2.0 * jordan_product(A, ab, a) - jordan_product(A, jordan_product(A, a, a), b)


def u_operator_matrix(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of U_a = 2 M_a^2 - M_{a^2} (a kron a^T on M_n, blockwise on sums)."""
    return A._u_matrix(_owned(A, a))


def u_operator_bilinear(A: AlgebraHandle, a: Element, b: Element, c: Element) -> Element:
    """U_{a,b}(c) = (a o c) o b + (b o c) o a - (a o b) o c.

    Symmetric in a and b, with diagonal U_{a,a} = U_a; in an associative
    model it equals (acb + bca)/2.
    """
    return (
        jordan_product(A, jordan_product(A, a, c), b)
        + jordan_product(A, jordan_product(A, b, c), a)
        - jordan_product(A, jordan_product(A, a, b), c)
    )


def _axiom_defects(A: AlgebraHandle, a: Element, b: Element) -> tuple[float, float, float, float]:
    """Jordan-identity defect ||(a o b) o b^2 - (a o b^2) o b||, JB*-axiom
    defect | ||U_a(a*)|| - ||a||^3 |, ||a|| and ||b|| of a sampled pair."""
    na, nb = jbstar_norm(A, a), jbstar_norm(A, b)
    b2 = jordan_product(A, b, b)
    lhs = jordan_product(A, jordan_product(A, a, b), b2)
    rhs = jordan_product(A, jordan_product(A, a, b2), b)
    ua = u_operator(A, a, involution(A, a))
    return jbstar_norm(A, lhs - rhs), abs(jbstar_norm(A, ua) - na**3), na, nb


def triple_product(A: AlgebraHandle, x: Element, y: Element, z: Element) -> Element:
    """{x,y,z} = (x o y*) o z + (z o y*) o x - (x o z) o y*."""
    return Element(A.id, A._triple(_owned(A, x), _owned(A, y), _owned(A, z)))


def associator(A: AlgebraHandle, a: Element, c: Element, b: Element) -> Element:
    """[a,c,b] = (a o c) o b - a o (c o b)."""
    return jordan_product(A, jordan_product(A, a, c), b) - jordan_product(
        A, a, jordan_product(A, c, b)
    )


def operator_commutes(A: AlgebraHandle, a: Element, b: Element) -> ResidualCheck:
    """Whether M_a and M_b commute, with the commutator norm as residual.

    The model's closed form may differ from the SVD of M_a M_b - M_b M_a by
    at most 1e-6 times the threshold.
    """
    threshold = A.tol.abs_eps * (1.0 + jbstar_norm(A, a)) * (1.0 + jbstar_norm(A, b))
    residual = A._commutator_norm(_owned(A, a), _owned(A, b), 1e-6 * threshold)
    return ResidualCheck(residual <= threshold, residual, threshold)


def center_basis(A: AlgebraHandle) -> list[Element]:
    """Orthonormal self-adjoint basis of the centre, the normalized unit first.

    Closed form on the concrete models: C 1 for matrix algebras and spin
    factors, the span of the summand centres for direct sums.  Peirce-2
    algebras use the generic joint-commutator kernel.
    """
    return A.center_basis()


def is_invertible(A: AlgebraHandle, a: Element) -> Element | None:
    """Inverse of a when it exists, None otherwise.

    The candidate U_a^{-1}(a) is always verified against the defining
    identities a o b = 1 and a^2 o b = a; a failing candidate raises
    VerificationFailed to flag tolerance breakdown.
    """
    ua = u_operator_matrix(A, a)
    sv = np.linalg.svd(ua, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= A.tol.abs_eps * sv[0]:
        return None
    b = Element(A.id, np.linalg.solve(ua, a.coords))
    na, nb = jbstar_norm(A, a), jbstar_norm(A, b)
    thr = 100.0 * A.tol.abs_eps * (1.0 + na) * (1.0 + na) * (1.0 + nb)
    r1 = jbstar_norm(A, jordan_product(A, a, b) - A.unit)
    r2 = jbstar_norm(A, jordan_product(A, jordan_product(A, a, a), b) - a)
    if max(r1, r2) > thr:
        raise VerificationFailed(
            f"candidate inverse failed defining identities (residual {max(r1, r2):.3e})"
        )
    return b


# -- Krylov compression -----------------------------------------------------


def _abelian_decomposition(
    A: AlgebraHandle, x: np.ndarray, real_nodes: bool, norm: float | None = None
):
    """Distinct spectral nodes, their idempotents (rows) and the
    reconstruction residual of a self-adjoint element (real nodes) or a
    unitary (nodes on the circle).

    Arnoldi from the normalised unit, on y -> x o y with classical
    Gram-Schmidt run twice, spans C(1, x); it stops when the new direction
    falls to rounding level (64 eps dim).  Both kinds of element act
    normally on C(1, x), so the compression H of L_x to that span goes to
    ``eigh`` (after a hermitian check) or to ``eig`` (its vectors
    re-orthonormalised), and an eigenvector v yields the idempotent
    <v, 1> v.  Nodes of the heavy eigenvectors, those not almost orthogonal
    to 1, that lie closer than cluster_eps are merged by single linkage; a
    cluster's node is the |<v, 1>|^2-weighted mean and its idempotent the
    sum.  Eigenvectors almost orthogonal to 1 are directions outside
    C(1, x) that rounding let in; they are dropped unless they lie that
    close to a heavy node, where their vectors mix with its vector.
    ``norm`` is ||x|| when the caller has it already.
    """
    d = A.dim
    scale = max(A._norm(x) if norm is None else norm, 1.0)
    xn = x / scale
    norm1 = np.linalg.norm(A.unit.coords)
    Q = np.empty((d, d), dtype=complex)  # orthonormal rows
    XQ = np.empty((d, d), dtype=complex)  # x o q for every row q of Q
    Q[0] = A.unit.coords / norm1
    stop = 64.0 * np.finfo(float).eps * d
    for k in range(1, d + 1):
        XQ[k - 1] = A._prod(xn, Q[k - 1])
        if k == d:
            break
        Qk = Q[:k]
        w = XQ[k - 1] - Qk.T @ (Qk.conj() @ XQ[k - 1])
        w -= Qk.T @ (Qk.conj() @ w)
        beta = np.linalg.norm(w)
        if beta <= stop:
            break
        Q[k] = w / beta
    Q, XQ = Q[:k], XQ[:k]
    H = Q.conj() @ XQ.T
    if real_nodes:
        if np.max(np.abs(H - H.conj().T)) > 1e-6 * (1.0 + np.max(np.abs(H))):
            raise NotSelfAdjoint("compression of L_a to C(1, a) is not hermitian")
        nodes, V = np.linalg.eigh(H)
    else:
        nodes, V = np.linalg.eig(H)
        # H is normal, but eig's vectors for close nodes need not be orthogonal
        V = np.linalg.qr(V)[0]
    weights = norm1 * V[0].conj()  # <v, 1>, as 1 = norm1 q_0 and q_0 is row 0 of Q
    mass = np.abs(weights) ** 2
    nodes = nodes * scale
    heavy = np.flatnonzero(mass > A.tol.abs_eps * norm1**2)
    gap = A.tol.cluster_eps * (1.0 + np.max(np.abs(nodes[heavy])))
    near = np.abs(nodes[heavy, None] - nodes[None, heavy]) <= gap
    for _ in range(heavy.size.bit_length() if near.sum() > heavy.size else 0):
        near = (near.astype(float) @ near) > 0  # transitive closure: single linkage
    clusters = near[near.argmax(axis=1) == np.arange(heavy.size)]  # rows of first members
    dist = np.abs(nodes[:, None] - nodes[None, heavy])
    member = (clusters[:, dist.argmin(axis=1)] & (dist.min(axis=1) <= gap)).astype(float)
    nodes = (member @ (mass * nodes)) / (member @ mass)
    idems = member @ (weights[:, None] * (V.T @ Q))
    order = np.argsort(nodes)
    nodes, idems = nodes[order], idems[order]
    residual = float(A._norm(nodes @ idems - x))
    return nodes, idems, residual


def _require_self_adjoint(A: AlgebraHandle, a: Element) -> float:
    """||a|| of a self-adjoint a; raises NotSelfAdjoint otherwise."""
    dev, thr, norm = _self_adjoint_defect(A, a)
    if dev > thr:
        raise NotSelfAdjoint(f"deviation from self-adjointness {dev:.3e}")
    return norm


def jordan_spectrum(A: AlgebraHandle, a: Element) -> list[float]:
    """Distinct eigenvalues, ascending, of a self-adjoint element."""
    return spectral_decomposition(A, a).eigenvalues


def spectral_decomposition(A: AlgebraHandle, a: Element) -> SpectralDecomposition:
    """Eigenvalues and idempotents by Krylov compression onto C(1, a)."""
    norm = _require_self_adjoint(A, a)
    nodes, idems, residual = _abelian_decomposition(A, _owned(A, a), True, norm)
    idems.flags.writeable = False
    return SpectralDecomposition(A.id, nodes, idems, residual)


def functional_calculus(A: AlgebraHandle, a: Element, f) -> Element:
    """Sum of f(eigenvalue) times idempotent over the spectral decomposition."""
    dec = spectral_decomposition(A, a)
    vals = np.array([complex(f(lam)) for lam in dec.eigenvalues])
    if not np.isfinite(vals).all():
        raise ValueError(f"function value not finite on the spectrum {dec.eigenvalues}")
    return Element(A.id, vals @ dec.idempotents)


def exp_from_decomposition(A: AlgebraHandle, dec: SpectralDecomposition, t: float) -> Element:
    return Element(A.id, np.exp(1j * t * dec.values) @ dec.idempotents)


def exp_i(A: AlgebraHandle, h: Element, t: float) -> Element:
    """exp(i t h) for self-adjoint h, via the spectral decomposition.

    The result is checked to be unitary; a large residual indicates a
    decomposition breakdown and raises VerificationFailed.
    """
    dec = spectral_decomposition(A, h)
    u = exp_from_decomposition(A, dec, t)
    us = involution(A, u)
    r = jbstar_norm(A, jordan_product(A, u, us) - A.unit)
    if r > 1e-7 * (1.0 + jbstar_norm(A, u)) ** 2:
        raise VerificationFailed(f"exp_i produced a non-unitary element (residual {r:.3e})")
    return u


def is_positive(A: AlgebraHandle, a: Element) -> bool:
    """Self-adjoint with Jordan spectrum in [-tol, infinity)."""
    if not is_self_adjoint(A, a):
        return False
    spectrum = jordan_spectrum(A, a)
    return min(spectrum) >= -A.tol.abs_eps * (1.0 + jbstar_norm(A, a)) - A.tol.cluster_eps
