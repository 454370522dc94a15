"""Derived Jordan-algebraic operators and predicates.

Multiplication operators, U-operators, triple products, operator
commutativity, centre, invertibility, Jordan spectrum, and the
exponential built on it.  Each public function unwraps its ``Element`` inputs
once; its private array form serves the other modules' check bodies.
U-operator matrices, U-solves and commutator norms come from the model:
closed forms on M_n (a kron a^T, a^-1 b a^-1 from one n x n inverse, and one
n x n eigensolve for a skew-hermitian commutator) and blockwise on direct
sums, products of multiplication matrices and a dense solve elsewhere.

The spectral decomposition of a self-adjoint element or a unitary a lives
in the associative subalgebra C(1, a) (powers of a single element are
unambiguous by power associativity), and comes in two layers.  The model's
``_eigenpieces`` gives the eigenvalues of L_a on C(1, a) with orthogonal
idempotents that sum to 1: on M_n one n x n ``eigh`` of the matrix a
(``eig`` for a unitary), each eigenvector u giving the projection u u^H; on
a spin factor the closed form a_0 -/+ s with idempotents (1 -/+ w / s) / 2,
where a = a_0 1 + w and w o w = s^2 1; on a direct sum each summand's own
pieces.  A Peirce-2 algebra is one of these models.  Each of these hooks
is scale-covariant, so it takes a as it is.
``_abelian_decomposition`` then orders the pieces the same way for every
model.  Well-separated pieces, as the closed forms give for distinct
eigenvalues, skip the merge; otherwise ``_merge_pieces`` merges clustered
nodes (across summands too).  Only ``spectral_decomposition`` computes
the reconstruction residual ||sum of node times idempotent - a||, which
it reports; nothing gates on it, and the internal ``_decompose`` returns
just the nodes and idempotents.

The hooks, ``_exp`` and ``_exp_i`` also take (k, dim) stacks of elements:
a batched ``eigh`` on M_n, the spin closed form over the rows, the
summands side by side on a sum.  ``_abelian_rows`` orders every row, and
``_decompose_rows`` gates it first; a row with nodes within the cluster
gap (a scalar spin summand gives a double node) is left to the
one-element form, so each row of a stacked ``_exp_i`` (or of the stacked
``unitary._unitary_log``) takes the one-element computation, and a
failing gate raises with the value of its first failing row.  A stacked
``_exp_i`` also takes several exponents per row from one decomposition.

Every gate (a check whose value is read only when it fails) is a
``_gate`` of a Jordan predicate stated once as its defects, eps and
threshold: ``_self_adjoint`` here, ``_unitary``, ``_symmetry`` and
``_projection`` in ``unitary``, ``_tripotent`` in ``peirce``, ``_central``
in ``preservers``.  ``_small`` decides it first: with the model's kappa,
||x|| <= kappa |x|_2, a defect d passes when kappa |d|_2 <= (1 - 1e-12) eps,
and every threshold is eps (1 + ||x||)^p or more.  Otherwise ``_exact``,
which also gives what ``is_unitary`` and ``is_tripotent`` report, runs the
norms; it fails a non-finite defect before any norm, an SVD on M_n.
``_require`` raises with the residual and threshold of the first failing
row.  ``_commute_gate`` decides commutation likewise, by the model's
``_commutator_bound``.  Reported residuals stay exact.
``spectral_decomposition`` refuses extreme nodes that are not finite (the
spin closed form overflows past about 1e154).

The tests keep the generic Krylov compression (Arnoldi from the unit on
x -> a o x spans C(1, a), and a small dense eigensolver diagonalises the
compression of L_a to that span), with its own weighted merge and its own
scaling of a, as the oracle of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraHandle, Element, _owned
from .errors import NotSelfAdjoint, VerificationFailed
from .reports import ResidualCheck

__all__ = [
    "SpectralDecomposition",
    "mult_operator",
    "u_operator",
    "u_operator_matrix",
    "triple_product",
    "operator_commutes",
    "center_basis",
    "is_invertible",
    "jordan_spectrum",
    "spectral_decomposition",
    "exp_i",
    "exp_from_decomposition",
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


# _small's margin: it covers the rounding of both norms of the same defect
_MARGIN = 1.0 - 1e-12


def _small(A: AlgebraHandle, d: np.ndarray, eps: float) -> bool:
    """Whether kappa |d|_2 <= (1 - 1e-12) eps, for one defect, a 0-d one (a
    norm already taken; kappa >= 1), or every row of a stack of them (kappa:
    ``A._norm_per_coord``).  Every gate threshold is eps (1 + ||x||)^p ...
    >= eps, so a defect this small passes its gate without the gate's
    norms; a model without kappa is never small."""
    kappa = A._norm_per_coord
    if kappa is None:
        return False
    sq = np.vdot(d, d).real if d.ndim <= 1 else np.einsum("...i,...i->...", d.conj(), d).real.max()
    return kappa * math.sqrt(sq) <= _MARGIN * eps


def _gate(A: AlgebraHandle, defects: tuple, eps: float, threshold):
    """True when every one of ``defects`` (of one element, or stacks of
    every row's) is ``_small`` at eps, so that the gate passes without its
    norms; otherwise ``_exact``.  A predicate gives the arguments after A."""
    for d in defects:
        if not _small(A, d, eps):
            return _exact(A, defects, threshold)
    return True


def _exact(A: AlgebraHandle, defects: tuple, threshold) -> ResidualCheck:
    """The largest defect norm (a 0-d defect is its own) against
    ``threshold()``, row by row on a stack; when that gives one limit per
    defect (of one element), each within its own, reported by the nearest.
    A non-finite defect fails it before any norm, residual and threshold NaN."""
    if not all(np.isfinite(d).all() for d in defects):
        nan = np.full(defects[0].shape[:-1], np.nan)[()]
        return ResidualCheck(nan <= nan, nan, nan)
    residuals, limits = [A._norm(d) if d.ndim else d for d in defects], threshold()
    if isinstance(limits, tuple):
        residual, limit = max(zip(residuals, limits), key=lambda pair: pair[0] / pair[1])
        return ResidualCheck(all(r <= lim for r, lim in zip(residuals, limits)), residual, limit)
    residual = np.maximum.reduce(residuals)
    return ResidualCheck(residual <= limits, residual, limits)


def _require(check, error, message) -> None:
    """Raise ``error`` unless the ``_gate`` ``check`` passed, with
    ``message`` formatted by the residual and the threshold of its first
    failing row (of its one element); ``message`` is one string, or one per
    row, broadcast against the rows as the residuals are."""
    if check is not True and not np.all(check.ok):
        first = np.argmin(check.ok)
        residual, threshold, text = np.broadcast_arrays(check.residual, check.threshold, message)
        raise error(str(text.flat[first]).format(residual.flat[first], threshold.flat[first]))


def _self_adjoint(A: AlgebraHandle, x: np.ndarray):
    """Self-adjointness of one element or of every row of a stack, as a
    predicate: ||x* - x|| <= abs_eps (1 + ||x||)."""
    eps = A.tol.abs_eps
    return (A._inv(x) - x,), eps, lambda: eps * (1.0 + A._norm(x))


def is_self_adjoint(A: AlgebraHandle, a: Element) -> bool:
    return bool(_gate(A, *_self_adjoint(A, _owned(A, a))))


def mult_operator(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of x -> a o x in the algebra basis."""
    return A._mult_matrix(_owned(A, a))


def u_operator(A: AlgebraHandle, a: Element, b: Element) -> Element:
    """U_a(b) = 2 (a o b) o a - a^2 o b."""
    return Element(A.id, _u_operator(A, _owned(A, a), _owned(A, b)))


def _u_operator(A: AlgebraHandle, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 2.0 * A._prod(A._prod(x, y), x) - A._prod(A._prod(x, x), y)


def u_operator_matrix(A: AlgebraHandle, a: Element) -> np.ndarray:
    """Matrix of U_a = 2 M_a^2 - M_{a^2} (a kron a^T on M_n, blockwise on sums)."""
    return A._u_matrix(_owned(A, a))


def _axiom_defects(A: AlgebraHandle, x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """Jordan-identity defect ||(x o y) o y^2 - (x o y^2) o y||, JB*-axiom
    defect | ||U_x(x*)|| - ||x||^3 |, ||x|| and ||y|| of a sampled pair."""
    nx, ny = A._norm(x), A._norm(y)
    y2 = A._prod(y, y)
    lhs = A._prod(A._prod(x, y), y2)
    rhs = A._prod(A._prod(x, y2), y)
    ux = _u_operator(A, x, A._inv(x))
    return A._norm(lhs - rhs), abs(A._norm(ux) - nx**3), nx, ny


def triple_product(A: AlgebraHandle, x: Element, y: Element, z: Element) -> Element:
    """{x,y,z} = (x o y*) o z + (z o y*) o x - (x o z) o y*."""
    return Element(A.id, A._triple(_owned(A, x), _owned(A, y), _owned(A, z)))


def operator_commutes(A: AlgebraHandle, a: Element, b: Element) -> ResidualCheck:
    """Whether M_a and M_b commute, with the commutator norm as residual.

    The model's closed form may differ from the SVD of M_a M_b - M_b M_a by
    at most 1e-6 times the threshold.
    """
    return _operator_commutes(A, _owned(A, a), _owned(A, b))


def _operator_commutes(A: AlgebraHandle, x: np.ndarray, y: np.ndarray) -> ResidualCheck:
    threshold = A.tol.abs_eps * (1.0 + A._norm(x)) * (1.0 + A._norm(y))
    residual = A._commutator_norm(x, y, 1e-6 * threshold)
    return ResidualCheck(residual <= threshold, residual, threshold)


def _commute_gate(A: AlgebraHandle, x: np.ndarray, y: np.ndarray):
    """True when the model's ``_commutator_bound``, which bounds every route
    of the commutator norm, is at most (1 - 1e-12) abs_eps, or when
    ``_operator_commutes`` passes; otherwise that failing check.  On (k, dim)
    stacks, one bound over the rows; a row it cannot decide takes the
    check, and the gate is the check of the first row that fails.  A pair
    with a non-finite entry fails, residual and threshold NaN, before any norm."""
    undecided = np.logical_not(A._commutator_bound(x, y) <= _MARGIN * A.tol.abs_eps)
    for i in np.flatnonzero(undecided):
        a, b = (x, y) if x.ndim == 1 else (x[i], y[i])
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            return ResidualCheck(False, math.nan, math.nan)
        chk = _operator_commutes(A, a, b)
        if not chk:
            return chk
    return True


def center_basis(A: AlgebraHandle) -> list[Element]:
    """Orthonormal self-adjoint basis of the centre, the normalized unit first.

    Closed form on every model, Peirce-2 algebras included: C 1 for
    matrix algebras and spin factors, the span of the summand centres for
    direct sums.
    """
    return [Element(A.id, z) for z in A._center_rows]


def is_invertible(A: AlgebraHandle, a: Element) -> Element | None:
    """Inverse of a when it exists, None otherwise.

    a is invertible when U_a is, decided from the extreme singular values
    of U_a (those of a, squared, on M_n), on x / s when the largest
    coordinate m lies outside (2^-400, 2^400): s, the power of two above m,
    divides exactly, and U_{x/s} = U_x / s^2, so y = U_{x/s}^{-1}(x/s) / s.
    The model's ``_u_solve`` solves U_{x/s} z = x/s (one n x n inverse on
    M_n, blockwise on sums).  The candidate z, the inverse of x/s, is always
    verified against the defining identities (x/s) o z = 1 and
    (x/s)^2 o z = x/s, which hold where those of x and y = z / s overflow;
    a failing candidate raises VerificationFailed to flag tolerance
    breakdown.
    """
    x = _owned(A, a)
    m = np.abs(x).max()
    s = 1.0 if 2.0**-400 < m < 2.0**400 else 2.0 ** math.frexp(m)[1]
    x = x / s
    top, bottom = A._u_singular_range(x)
    if top == 0.0 or bottom <= A.tol.abs_eps * top:
        return None
    z = A._u_solve(x, x)
    eps = 100.0 * A.tol.abs_eps

    def threshold():
        nx = A._norm(x)
        return eps * (1.0 + nx) * (1.0 + nx) * (1.0 + A._norm(z))

    check = _gate(A, (A._prod(x, z) - A.unit.coords, A._prod(A._prod(x, x), z) - x), eps, threshold)
    _require(check, VerificationFailed, "candidate inverse failed defining identities (residual {:.3e})")
    return Element(A.id, z / s)


# -- spectral decomposition -------------------------------------------------


def _abelian_decomposition(A: AlgebraHandle, x: np.ndarray, real_nodes: bool):
    """Distinct spectral nodes, ascending, and their idempotents (rows) of a
    self-adjoint element (real nodes) or a unitary (nodes on the circle).

    The model's ``_eigenpieces`` of x itself gives nodes with orthogonal
    idempotents that sum to 1, minimal but for the unit of a scalar spin
    element: one n x n eigensolve on M_n, a closed form on spin factors, the
    summands' pieces side by side on a direct sum; all of them are
    scale-covariant.  When no two nodes are ``_near``, every piece is its
    own cluster and the pieces are only ordered; otherwise ``_merge_pieces``
    merges them.
    """
    nodes, raw = A._eigenpieces(x, real_nodes)
    near = _near(A, nodes)
    if np.count_nonzero(near) > nodes.size:
        nodes, raw = _merge_pieces(nodes, raw, near)
    order = np.argsort(nodes)
    return nodes[order], raw[order]


def _near(A: AlgebraHandle, nodes: np.ndarray) -> np.ndarray:
    """The pairs of nodes within the cluster gap cluster_eps (1 + max |node|)
    of each other, in the complex distance; for a (k, m) stack of nodes, the
    pairs of each row within that row's gap."""
    gap = A.tol.cluster_eps * (1.0 + np.abs(nodes).max(axis=-1))
    return np.abs(nodes[..., :, None] - nodes[..., None, :]) <= gap[..., None, None]


def _merge_pieces(nodes: np.ndarray, raw: np.ndarray, near: np.ndarray):
    """Clustered (unordered) nodes and their idempotents (rows).

    ``near`` marks the pairs of nodes within the cluster gap; its transitive
    closure links the nodes by single linkage.  A cluster's node is the mean
    of its nodes and its idempotent the sum of theirs.
    """
    for _ in range(nodes.size.bit_length()):
        near = (near.astype(float) @ near) > 0  # transitive closure
    member = near[near.argmax(axis=1) == np.arange(nodes.size)].astype(float)  # rows of first members
    return (member @ nodes) / member.sum(axis=1), member @ raw


def jordan_spectrum(A: AlgebraHandle, a: Element) -> list[float]:
    """Distinct eigenvalues, ascending, of a self-adjoint element."""
    return spectral_decomposition(A, a).eigenvalues


def spectral_decomposition(A: AlgebraHandle, a: Element) -> SpectralDecomposition:
    """Eigenvalues and idempotents of a self-adjoint element: one n x n
    eigensolve on M_n, a closed form on spin factors, blockwise on direct
    sums; with the reconstruction residual."""
    x = _owned(A, a)
    nodes, idems = _decompose(A, x)
    if not (math.isfinite(nodes[0]) and math.isfinite(nodes[-1])):
        raise VerificationFailed(f"spectral nodes from {nodes[0]} to {nodes[-1]} are not finite")
    idems.flags.writeable = False
    return SpectralDecomposition(A.id, nodes, idems, float(A._norm(nodes @ idems - x)))


_NOT_SELF_ADJOINT = "deviation from self-adjointness {:.3e}"


def _decompose(A: AlgebraHandle, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and idempotents (rows) of a self-adjoint element;
    NotSelfAdjoint on any other."""
    _require(_gate(A, *_self_adjoint(A, x)), NotSelfAdjoint, _NOT_SELF_ADJOINT)
    return _abelian_decomposition(A, x, True)


def _decompose_rows(A: AlgebraHandle, x: np.ndarray):
    """``_decompose`` of each row of a (k, dim) stack, gated row by row
    (``_abelian_rows``)."""
    _require(_gate(A, *_self_adjoint(A, x)), NotSelfAdjoint, _NOT_SELF_ADJOINT)
    return _abelian_rows(A, x, True)


def _abelian_rows(A: AlgebraHandle, x: np.ndarray, real_nodes: bool):
    """``_abelian_decomposition`` of each row of a (k, dim) stack: the
    nodes, ascending, and idempotents of every row as (k, m) and
    (k, m, dim) arrays, and the mask of the rows with ``_near`` nodes.
    Those rows' pieces are left unmerged (a scalar spin summand gives a
    double node), so a caller takes them through the one-element form."""
    nodes, raw = A._eigenpieces(x, real_nodes)
    clustered = np.count_nonzero(_near(A, nodes), axis=(-2, -1)) > nodes.shape[-1]
    order = np.argsort(nodes, axis=-1)
    return np.take_along_axis(nodes, order, -1), np.take_along_axis(raw, order[..., None], -2), clustered


def exp_from_decomposition(A: AlgebraHandle, dec: SpectralDecomposition, t: float) -> Element:
    return Element(A.id, _exp(dec.values, dec.idempotents, t))


def _exp(nodes: np.ndarray, idems: np.ndarray, t: float) -> np.ndarray:
    """Sum of exp(i t node) times idempotent, of one decomposition or of each
    row of a stack of them."""
    w = np.exp(1j * t * nodes)
    return w @ idems if w.ndim == 1 else (w[:, None] @ idems)[:, 0]


def exp_i(A: AlgebraHandle, h: Element, t: float) -> Element:
    """exp(i t h) for self-adjoint h, via the spectral decomposition.

    The result is checked to be unitary; a large residual indicates a
    decomposition breakdown and raises VerificationFailed.
    """
    return Element(A.id, _exp_i(A, _owned(A, h), t))


def _exp_i(A: AlgebraHandle, x: np.ndarray, t) -> np.ndarray:
    """exp(i t x) of one self-adjoint element or of each row of a (k, dim)
    stack of them, checked unitary row by row.  A stack goes through
    ``_decompose_rows``, and its rows with ``_near`` nodes through
    ``_decompose``, as one element does; a gate that fails raises with the
    value of its first failing row.  For a stack, t may also be a (k, j)
    array of j exponents per row: then the k j exponentials, each row's
    in turn, come from that one decomposition."""
    if x.ndim == 1:
        u = _exp(*_decompose(A, x), t)
    else:
        nodes, idems, clustered = _decompose_rows(A, x)
        if np.ndim(t):  # every row, and its pieces, once per exponent
            nodes, idems, clustered, x = (np.repeat(p, t.shape[1], axis=0) for p in (nodes, idems, clustered, x))
            t = t.reshape(-1, 1)
        u = _exp(nodes, idems, t)
        for i in np.flatnonzero(clustered):
            u[i] = _exp(*_decompose(A, x[i]), t if np.ndim(t) == 0 else t[i])
    check = _gate(A, (A._prod(u, A._inv(u)) - A.unit.coords,), 1e-7, lambda: 1e-7 * (1.0 + A._norm(u)) ** 2)
    _require(check, VerificationFailed, "exp_i produced a non-unitary element (residual {:.3e})")
    return u
