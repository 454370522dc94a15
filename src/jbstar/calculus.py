"""Derived Jordan-algebraic operators and predicates.

Multiplication operators, U-operators, triple products, associators,
operator commutativity, centre, invertibility, Jordan spectrum, and the
functional calculus built on it.  The spectral route goes through the
minimal polynomial of Jordan powers (powers of a single element are
unambiguous by power associativity), so it is the same code for every
algebra model; the associative eigendecomposition only ever appears as an
independent oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _owned, involution, jbstar_norm, jordan_product
from .errors import IllConditioned, NotSelfAdjoint, VerificationFailed
from .kernel import operator_norm, real_roots
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
    """Pairs (eigenvalue, idempotent) with the reconstruction residual."""

    pairs: tuple
    residual: float

    @property
    def eigenvalues(self) -> list[float]:
        return [lam for lam, _ in self.pairs]


def _self_adjoint_defect(A: AlgebraHandle, a: Element) -> tuple[float, float]:
    """(||a* - a||, threshold) for the self-adjointness test."""
    dev = jbstar_norm(A, involution(A, a) - a)
    return dev, A.tol.abs_eps * (1.0 + jbstar_norm(A, a))


def is_self_adjoint(A: AlgebraHandle, a: Element) -> bool:
    dev, thr = _self_adjoint_defect(A, a)
    return dev <= thr


def mult_operator(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of x -> a o x in the algebra basis."""
    return A._mult_matrix(_owned(A, a))


def u_operator(A: AlgebraHandle, a: Element, b: Element) -> Element:
    """U_a(b) = 2 (a o b) o a - a^2 o b."""
    ab = jordan_product(A, a, b)
    return 2.0 * jordan_product(A, ab, a) - jordan_product(A, jordan_product(A, a, a), b)


def u_operator_matrix(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of U_a = 2 M_a^2 - M_{a^2}."""
    ma = mult_operator(A, a)
    ma2 = mult_operator(A, jordan_product(A, a, a))
    return 2.0 * (ma @ ma) - ma2


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
    """Whether M_a and M_b commute, with the commutator norm as residual."""
    ma = mult_operator(A, a)
    mb = mult_operator(A, b)
    residual = operator_norm(ma @ mb - mb @ ma)
    threshold = A.tol.abs_eps * (1.0 + jbstar_norm(A, a)) * (1.0 + jbstar_norm(A, b))
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


# -- minimal polynomial machinery -------------------------------------------


def _jordan_powers(A: AlgebraHandle, x: np.ndarray, count: int) -> list[np.ndarray]:
    powers = [A.unit.coords.astype(complex), x]
    for _ in range(2, count + 1):
        powers.append(A._prod(powers[-1], x))
    return powers


def _minimal_dependence(A: AlgebraHandle, x: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic minimal polynomial of x.

    Finds the first Jordan power lying in the span of the lower ones, with
    rank decisions at abs_eps times the scale of the power matrix.
    """
    powers = _jordan_powers(A, x, A.dim)
    for k in range(1, A.dim + 1):
        P = np.stack(powers[:k], axis=1)
        t = powers[k]
        scale = np.linalg.norm(P) + np.linalg.norm(t)
        c, *_ = np.linalg.lstsq(P, t, rcond=None)
        resid = np.linalg.norm(P @ c - t)
        if resid <= A.tol.abs_eps * scale:
            return np.concatenate([-c, [1.0]])
    # the powers 1, x, ..., x^dim always admit a dependence in dimension dim
    P = np.stack(powers[: A.dim], axis=1)
    c, *_ = np.linalg.lstsq(P, powers[A.dim], rcond=None)
    return np.concatenate([-c, [1.0]])


def _cluster_complex(nodes: np.ndarray, eps: float) -> list[complex]:
    """Single-linkage clustering of complex nodes closer than eps."""
    nodes = list(nodes)
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if abs(nodes[i] - nodes[j]) <= eps:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i, z in enumerate(nodes):
        groups.setdefault(find(i), []).append(z)
    return sorted((complex(np.mean(g)) for g in groups.values()), key=lambda z: (z.real, z.imag))


def _abelian_decomposition(A: AlgebraHandle, x: np.ndarray, real_nodes: bool):
    """Spectral nodes and idempotents of a single power-associative element.

    Works for self-adjoint elements (real nodes) and unitaries (nodes on the
    circle); both generate an associative subalgebra in which Lagrange
    interpolation at the minimal-polynomial roots yields the idempotents.
    """
    scale = max(A._norm(x), 1.0)
    xn = x / scale
    coeffs = _minimal_dependence(A, xn)
    if real_nodes:
        imag_max = float(np.max(np.abs(coeffs.imag)))
        if imag_max > 1e-6 * (1.0 + float(np.max(np.abs(coeffs)))):
            raise NotSelfAdjoint("minimal polynomial is not real")
        nodes = [complex(r) for r in real_roots(coeffs.real, A.tol)]
        if not nodes:
            raise IllConditioned("no real roots found for a self-adjoint element")
    else:
        raw = np.roots(coeffs[::-1])
        eps = A.tol.cluster_eps * (1.0 + float(np.max(np.abs(raw), initial=0.0)))
        nodes = _cluster_complex(raw, eps)
    gap_thr = A.tol.cluster_eps * (1.0 + max(abs(z) for z in nodes))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if abs(nodes[i] - nodes[j]) < gap_thr:
                raise IllConditioned("spectrum points remain within cluster_eps after merging")
    powers = _jordan_powers(A, xn, max(len(nodes) - 1, 1))
    idems = []
    for i, lam in enumerate(nodes):
        others = [nodes[j] for j in range(len(nodes)) if j != i]
        poly = np.polynomial.polynomial.polyfromroots(others)
        denom = np.prod([lam - mu for mu in others]) if others else 1.0
        vec = sum(c * p for c, p in zip(poly, powers))
        idems.append(np.asarray(vec, dtype=complex) / denom)
    recon = sum(lam * e for lam, e in zip(nodes, idems))
    residual = float(A._norm(np.asarray(recon) * scale - x))
    return [z * scale for z in nodes], [Element(A.id, e) for e in idems], residual


def _require_self_adjoint(A: AlgebraHandle, a: Element):
    dev, thr = _self_adjoint_defect(A, a)
    if dev > thr:
        raise NotSelfAdjoint(f"deviation from self-adjointness {dev:.3e}")


def jordan_spectrum(A: AlgebraHandle, a: Element) -> list[float]:
    """Real roots of the Jordan minimal polynomial of a self-adjoint element."""
    _require_self_adjoint(A, a)
    nodes, _, _ = _abelian_decomposition(A, _owned(A, a), real_nodes=True)
    return sorted(z.real for z in nodes)


def spectral_decomposition(A: AlgebraHandle, a: Element) -> SpectralDecomposition:
    """Eigenvalue/idempotent pairs via Lagrange polynomials in Jordan powers."""
    _require_self_adjoint(A, a)
    nodes, idems, residual = _abelian_decomposition(A, _owned(A, a), real_nodes=True)
    pairs = sorted(zip((z.real for z in nodes), idems), key=lambda p: p[0])
    return SpectralDecomposition(tuple(pairs), residual)


def functional_calculus(A: AlgebraHandle, a: Element, f) -> Element:
    """Sum of f(eigenvalue) times idempotent over the spectral decomposition."""
    dec = spectral_decomposition(A, a)
    out = A.zero()
    for lam, e in dec.pairs:
        val = complex(f(lam))
        if not (np.isfinite(val.real) and np.isfinite(val.imag)):
            raise ValueError(f"function value not finite at spectrum point {lam}")
        out = out + val * e
    return out


def exp_from_decomposition(A: AlgebraHandle, dec: SpectralDecomposition, t: float) -> Element:
    return sum((np.exp(1j * lam * t) * e for lam, e in dec.pairs), A.zero())


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
