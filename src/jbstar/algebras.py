"""Concrete finite-dimensional JB*-algebra models.

Each model kind is a subclass of :class:`AlgebraHandle`: the full complex
matrix algebra with the Jordan product (whose self-adjoint part is the
hermitian matrices), spin factors over a complex n-space with componentwise
conjugation, and finite direct sums of models.  The Peirce-2 algebra of a
tripotent is one of these models too: each model's ``_peirce2`` hook gives
it as M_r, a spin factor or a sum, with the matrix of its embedding, and
:mod:`jbstar.peirce` checks and tags it.

A model owns its unit, product, involution, norm, multiplication matrix,
trace, canonical projections, spectral pieces, centre, rank, Peirce-2 model
and descriptor form.  Every element is a complex coordinate vector over the
model's fixed basis, tagged with the algebra identity; ``_prod``, ``_inv``,
``_norm`` and ``_triple`` also take coordinates with leading batch axes,
(..., dim), and broadcast a stack against one vector.  The triple product
is five Jordan products, but on M_n (x y* z + z y* x) / 2, four n x n
products.  ``_random_rows`` draws k ``general`` or ``self_adjoint``
elements from one block of normals, consuming the generator as k
``_random`` calls do.  Handles are immutable and operations are pure, so
values are safe to share between workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlgebraMismatch, EmptyParts, NotSelfAdjoint, SizeOutOfRange
from .kernel import Tolerance, operator_norm

__all__ = [
    "AlgebraHandle",
    "HermitianMatrixAlgebra",
    "SpinFactor",
    "DirectSum",
    "Element",
    "build_hermitian_matrix_algebra",
    "build_spin_factor",
    "build_direct_sum",
    "jordan_product",
    "involution",
    "jbstar_norm",
    "random_element",
    "element_to_json",
    "element_from_json",
    "algebra_from_descriptor",
    "algebra_to_descriptor",
    "selfadjoint_basis",
    "sa_coords",
    "sa_from_coords",
]


@dataclass(frozen=True)
class Element:
    """Coordinate vector over a fixed algebra basis."""

    algebra_id: str
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=complex)
        if not np.isfinite(c).all():
            raise ValueError("element coordinates must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def _check_same(self, other: "Element"):
        if self.algebra_id != other.algebra_id:
            raise AlgebraMismatch(f"{self.algebra_id} vs {other.algebra_id}")

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra_id, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra_id, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra_id, -self.coords)

    def __mul__(self, scalar) -> "Element":
        return Element(self.algebra_id, self.coords * complex(scalar))

    __rmul__ = __mul__


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, by one broadcast product."""
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def _normal_eig(h: np.ndarray, real_nodes: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of a matrix that is
    hermitian (``real_nodes``, checked) or normal: ``eigh``, or ``eig`` with
    its vectors re-orthonormalised.  A stack of hermitian matrices takes one
    batched ``eigh``, each matrix checked."""
    if real_nodes:
        skew = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        if (skew > 1e-6 * (1.0 + np.abs(h).max(axis=(-2, -1)))).any():
            raise NotSelfAdjoint("L_a on C(1, a) is not hermitian")
        return np.linalg.eigh(h)
    nodes, v = np.linalg.eig(h)
    # h is normal, but eig's vectors for close nodes need not be orthogonal
    return nodes, np.linalg.qr(v)[0]


class AlgebraHandle:
    """Immutable JB*-algebra model; one subclass per model kind.

    Subclasses supply the coordinate formulas ``_prod``, ``_inv`` and
    ``_norm``, the unit, and the closed forms ``_mult_matrix``,
    ``_eigenpieces``, ``_center``, ``rank`` and ``_peirce2``; every other
    module works through these, the trace and the canonical projections.
    The U-operator matrix, commutator norm, U-operator singular values,
    U-solve (``_u_solve``) and Peirce operators (``_lqe``) defined here are
    products of multiplication matrices, or a dense solve with them; M_n
    and direct sums replace them by closed forms (n x n products and solves
    on M_n, blockwise on sums).

    ``_norm_per_coord`` is a constant kappa with ||x|| <= kappa |x|_2 for
    every x, |x|_2 the 2-norm of the coordinates: 1 on M_n (the operator
    2-norm is at most the Frobenius norm, and the coordinates are matrix
    units), sqrt 2 on a spin factor, the largest of the summands' on a
    direct sum.  ``_commutator_bound`` is an upper bound of the commutator
    norm.  Gates whose value is read only when they fail pass outright on
    these bounds (``calculus._small``).  A model without kappa (None, as
    here) takes the exact norm at every gate.

    A Peirce-2 algebra (``jbstar.peirce.peirce2_algebra``) is a model whose
    ``ambient``, ``e``, ``embed`` and ``project`` are set: its ambient model,
    the tripotent's coordinates there, the embedding matrix (columns: the
    images of the basis) and the matrix of the inverse map, which vanishes
    on the other two Peirce spaces.
    """

    kind: str | None = None
    n: int | None = None
    _norm_per_coord: float | None = None
    parts: tuple | None = None
    ambient: "AlgebraHandle | None" = None
    e = embed = project = None

    def __init__(self, dim: int, tol: Tolerance, ident: str, unit: np.ndarray):
        self.dim = dim
        self.tol = tol
        self.id = ident
        self._unit = Element(ident, unit)
        # (non-sum summand, coordinate slice) pairs; a direct sum lists its
        # summands, never itself
        self.summands = ((self, slice(0, dim)),)

    @property
    def unit(self) -> Element:
        return self._unit

    @property
    def basis(self) -> list[Element]:
        eye = np.eye(self.dim, dtype=complex)
        return [Element(self.id, eye[j]) for j in range(self.dim)]

    def element(self, coords) -> Element:
        c = np.asarray(coords, dtype=complex)
        if c.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {c.shape}")
        return Element(self.id, c)

    def zero(self) -> Element:
        return Element(self.id, np.zeros(self.dim, dtype=complex))

    def _triple(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """{x,y,z} = (x o y*) o z + (z o y*) o x - (x o z) o y*: five Jordan
        products (M_n replaces them by four matrix products)."""
        ys = self._inv(y)
        return self._prod(self._prod(x, ys), z) + self._prod(self._prod(z, ys), x) - self._prod(
            self._prod(x, z), ys
        )

    def _u_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of U_x = 2 M_x^2 - M_{x o x}."""
        m = self._mult_matrix(x)
        return 2.0 * (m @ m) - self._mult_matrix(self._prod(x, x))

    def _u_solve(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The solution y of U_x y = b, by one dense solve."""
        return np.linalg.solve(self._u_matrix(x), b)

    def _lqe(self, x: np.ndarray):
        """Matrices of L(e,e) and of Q(e)^2 (e = x), from whole operator matrices.

        L(e,e) = M_{e o e*} + M_e M_{e*} - M_{e*} M_e.  Q(e) y = {e,y,e} =
        U_e(y*) is conjugate-linear, but Q(e)^2 = U_e U_{e*} is linear, so no
        conjugate-linear matrix is formed.
        """
        xs = self._inv(x)
        me, mes = self._mult_matrix(x), self._mult_matrix(xs)
        lee = self._mult_matrix(self._prod(x, xs)) + me @ mes - mes @ me
        return lee, self._u_matrix(x) @ self._u_matrix(xs)

    def _commutator_norm(self, x: np.ndarray, y: np.ndarray, slack: float) -> float:
        """||[M_x, M_y]||; a closed form may differ from it by at most ``slack``."""
        mx, my = self._mult_matrix(x), self._mult_matrix(y)
        return operator_norm(mx @ my - my @ mx)

    def _commutator_bound(self, x: np.ndarray, y: np.ndarray):
        """An upper bound of ``_commutator_norm``: the Frobenius norm of
        M_x M_y - M_y M_x; an array of them for (k, dim) stacks."""
        if x.ndim > 1:
            return np.array([self._commutator_bound(a, b) for a, b in zip(x, y)])
        mx, my = self._mult_matrix(x), self._mult_matrix(y)
        return float(np.linalg.norm(mx @ my - my @ mx))

    def _u_singular_range(self, x: np.ndarray) -> tuple[float, float]:
        """Largest and smallest singular value of U_x."""
        sv = np.linalg.svd(self._u_matrix(x), compute_uv=False)
        return sv[0], sv[-1]

    @property
    def is_type_i2(self) -> bool:
        """Type I_2 factor (spin, M_2): rank 2 and centre C 1, unlike C + C."""
        return self.rank == 2 and len(self._center_rows) == 1

    @cached_property
    def _center_rows(self) -> np.ndarray:
        """The centre (``_center``) as read-only rows, computed once per handle."""
        rows = np.array(self._center())
        rows.flags.writeable = False
        return rows

    def _central_basis(self, vectors) -> list[np.ndarray]:
        """Gram-Schmidt over the normalised unit followed by ``vectors``
        (central and self-adjoint), dropping dependent ones."""
        out: list[np.ndarray] = []
        for v in [self._unit.coords / np.linalg.norm(self._unit.coords), *vectors]:
            for q in out:
                v = v - np.vdot(q, v) * q
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                out.append(v / nv)
        return out

    @classmethod
    def from_descriptor(cls, doc: dict, tol: Tolerance) -> "AlgebraHandle":
        n = doc.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"{cls.kind} descriptor needs an integer 'n', got {n!r}")
        return cls(n, tol)

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    def __repr__(self):
        return f"{type(self).__name__}({self.id}, dim={self.dim})"


class HermitianMatrixAlgebra(AlgebraHandle):
    """Full matrix algebra M_n(C) with Jordan product (ab+ba)/2, 1 <= n <= 12.

    The basis is the matrix units E_jk in row-major order, so coordinates
    reshape directly to the matrix.
    """

    kind = "hermitian_matrix"
    rank = property(lambda self: self.n)  # type I_n
    _norm_per_coord = 1.0  # ||X||_2 <= ||X||_F

    def __init__(self, n: int, tol: Tolerance = Tolerance()):
        if not (1 <= n <= 12):
            raise SizeOutOfRange(f"hermitian_matrix size must be in [1, 12], got {n}")
        self.n = n
        self._square = (n, n)
        super().__init__(n * n, tol, f"hermitian_matrix({n})", np.eye(n, dtype=complex).ravel())

    def _mat(self, x: np.ndarray) -> np.ndarray:
        """x as an n x n matrix, or as a stack of them over x's batch axes."""
        return x.reshape(self._square if x.ndim == 1 else x.shape[:-1] + self._square)

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # _mat inlined: the product is the package's hottest call
        a = x.reshape(self._square if x.ndim == 1 else x.shape[:-1] + self._square)
        b = y.reshape(self._square if y.ndim == 1 else y.shape[:-1] + self._square)
        c = 0.5 * (a @ b + b @ a)
        return c.ravel() if c.ndim == 2 else c.reshape(c.shape[:-2] + (self.dim,))

    def _inv(self, x: np.ndarray) -> np.ndarray:
        return self._mat(x).swapaxes(-1, -2).conj().reshape(x.shape)

    def _norm(self, x: np.ndarray):
        return operator_norm(self._mat(x))

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        m = x.reshape(self.n, self.n)
        eye = np.eye(self.n, dtype=complex)
        # row-major vec: vec(MX) = (M kron I) vec(X), vec(XM) = (I kron M^T) vec(X)
        return 0.5 * (_kron(m, eye) + _kron(eye, m.T))

    def _triple(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """{x,y,z} = (x y* z + z y* x) / 2: four n x n products (per matrix
        of stacks, which broadcast against one element)."""
        a, c = self._mat(x), self._mat(z)
        bs = self._mat(y).swapaxes(-1, -2).conj()
        t = 0.5 * ((a @ bs) @ c + (c @ bs) @ a)
        return t.reshape(t.shape[:-2] + (self.dim,))

    def _u_matrix(self, x: np.ndarray) -> np.ndarray:
        a = x.reshape(self.n, self.n)
        return _kron(a, a.T)  # vec(a X a) = (a kron a^T) vec(X)

    def _u_solve(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """y = a^-1 b a^-1, since U_a y = a y a: one n x n inverse, which
        costs less than two n x n solves at every n."""
        inv = np.linalg.inv(x.reshape(self._square))
        return (inv @ b.reshape(self._square) @ inv).ravel()

    def _lqe(self, x: np.ndarray):
        """L(e,e) y = (P y + y Q) / 2 and Q(e)^2 y = P y Q, with P = e e* and
        Q = e* e: (P kron I + I kron Q^T) / 2 and P kron Q^T, from two n x n
        products."""
        e = x.reshape(self._square)
        p, q = e @ e.conj().T, e.conj().T @ e
        eye = np.eye(self.n, dtype=complex)
        return 0.5 * (_kron(p, eye) + _kron(eye, q.T)), _kron(p, q.T)

    def _commutator_norm(self, x: np.ndarray, y: np.ndarray, slack: float) -> float:
        """[L_a, L_b] = ad_c / 4 with c = ab - ba.  For skew-hermitian c,
        ||ad_c|| is the spectral diameter of -ic, one n x n ``eigvalsh``; the
        hermitian part S of c moves ||ad_c|| by at most 2||S||, so that route
        is taken only when 2||S||_F <= slack.  Otherwise (unitaries, general
        elements) the commutator need not be normal: the generic SVD."""
        a, b = x.reshape(self.n, self.n), y.reshape(self.n, self.n)
        c = a @ b - b @ a
        ch = c.conj().T
        if 2.0 * np.linalg.norm(0.5 * (c + ch)) > slack:
            return super()._commutator_norm(x, y, slack)
        lam = np.linalg.eigvalsh(-0.5j * (c - ch))
        return float(0.25 * (lam[-1] - lam[0]))

    def _commutator_bound(self, x: np.ndarray, y: np.ndarray):
        """||ab - ba||_F / 2, since ||ad_c|| / 4 <= ||c||_2 / 2 <= ||c||_F / 2;
        it also bounds the eigensolve route, whose value is at most
        ||c - c*||_2 / 4.  Per row of (k, dim) stacks, by one batched product."""
        a, b = self._mat(x), self._mat(y)
        c = a @ b - b @ a
        if x.ndim == 1:
            return 0.5 * math.sqrt(np.vdot(c, c).real)
        return 0.5 * np.sqrt(np.einsum("...ij,...ij->...", c.conj(), c).real)

    def _u_singular_range(self, x: np.ndarray) -> tuple[float, float]:
        # the singular values of a kron a^T are the products sigma_i sigma_j
        sv = np.linalg.svd(x.reshape(self._square), compute_uv=False)
        return sv[0] * sv[0], sv[-1] * sv[-1]

    def _eigenpieces(self, x: np.ndarray, real_nodes: bool):
        """One n x n eigensolve of the matrix x (of each row of a stack):
        L_x acts on C(1, x) as x does by matrix products, so an eigenvector
        u of x gives the minimal idempotent vec(u u^H), a rank-one
        projection."""
        nodes, U = _normal_eig(self._mat(x), real_nodes)
        V = U.swapaxes(-1, -2)  # eigenvectors as rows
        return nodes, (V[..., None] * V.conj()[..., None, :]).reshape(x.shape[:-1] + (self.n, self.dim))

    def trace(self, x: np.ndarray) -> float:
        return float(np.trace(x.reshape(self.n, self.n)).real)

    def _canonical_projections(self) -> list[np.ndarray]:
        """Diagonal matrix units and the rank-one sum/phase projections
        onto (e_j + e_k)/sqrt 2 and (e_j + i e_k)/sqrt 2."""
        n, eye = self.n, np.eye(self.n, dtype=complex)
        vs = [(1.0, eye[j]) for j in range(n)]
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        vs += [(0.5, eye[j] + ph * eye[k]) for j, k in pairs for ph in (1.0, 1.0j)]
        return [(c * np.outer(v, v.conj())).ravel() for c, v in vs]

    def _center(self) -> list[np.ndarray]:
        return self._central_basis([])  # a factor: the centre is C 1

    def _peirce2(self, x: np.ndarray):
        """M_r for the partial isometry e = x, with e e* = V V^H of rank r:
        y -> V y V^H e, isometric in the coordinates, whose inverse
        x -> V^H x e* V is its adjoint.  V = 1 for a unitary e (r = n)."""
        e = x.reshape(self._square)
        vals, vecs = np.linalg.eigh(e @ e.conj().T)
        V = vecs[:, vals > 0.5]  # the eigenvalues of e e* are 0 and 1
        if V.shape[1] == self.n:
            V = np.eye(self.n, dtype=complex)
        embed = _kron(V, (V.conj().T @ e).T)  # vec(V y W) = (V kron W^T) vec(y)
        return HermitianMatrixAlgebra(V.shape[1], self.tol), embed, embed.conj().T


class SpinFactor(AlgebraHandle):
    """Spin factor on C^n with componentwise conjugation and unit e_0.

    Needs n >= 3 so that H^- = {(0, i t_2, ..., i t_n) : t real} has real
    dimension at least 2; n <= 144 = dim M_12 bounds its dense n x n matrices.
    """

    kind = "spin"
    rank = 2  # type I_2
    _norm_per_coord = math.sqrt(2.0)  # ||x||^2 = |x|^2 + 2|a ^ b| <= 2|x|^2

    def __init__(self, n: int, tol: Tolerance = Tolerance()):
        if not (3 <= n <= 144):
            raise SizeOutOfRange(f"spin factor size must be in [3, 144], got {n}")
        self.n = n
        unit = np.zeros(n, dtype=complex)
        unit[0] = 1.0
        super().__init__(n, tol, f"spin({n})", unit)

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # x o y = <x|1> y + <y|1> x - <x|conj(y)> 1, inner product linear
        # in the first slot and conjugate-linear in the second; the
        # bilinear form is averaged over both operand orders so the
        # product commutes bit-exactly despite FMA in complex multiply.
        # .T[0] is the first coordinate over the (reversed) batch axes
        x0, y0 = (x[0], y[0]) if x.ndim == y.ndim == 1 else (x[..., :1], y[..., :1])
        out = x0 * y + y0 * x
        out.T[0] -= 0.5 * ((x * y).sum(axis=-1) + (y * x).sum(axis=-1)).T
        return out

    def _inv(self, x: np.ndarray) -> np.ndarray:
        out = -np.conj(x)
        out.T[0] += 2.0 * np.conj(x.T[0])
        return out

    def _norm(self, x: np.ndarray):
        # ||x||^2 = |x|^2 + 2|a ^ b| (a = Re x, b = Im x), with Lagrange's
        # |a ^ b| = |a| |b - (<a,b>/|a|^2) a|, which does not cancel near
        # unitaries as sqrt(|x|^4 - |<x|conj(x)>|^2) does; |a ^ b| = 0 at a = 0
        a, b = x.real, x.imag
        aa, bb, ab = (a * a).sum(axis=-1), (b * b).sum(axis=-1), (a * b).sum(axis=-1)
        if x.ndim == 1:  # scalar arithmetic: ufunc calls cost more than the math
            aa, bb = float(aa), float(bb)
            if not aa:
                return math.sqrt(bb)
            r = b - (float(ab) / aa) * a
            return math.sqrt(aa + bb + 2.0 * math.sqrt(aa * float((r * r).sum())))
        # the same operations row by row: rows equal 1-D calls bit for bit
        r = b - (ab / np.where(aa > 0.0, aa, 1.0))[..., None] * a
        return np.sqrt(aa + bb + 2.0 * np.sqrt(aa * (r * r).sum(axis=-1)))

    def _commutator_bound(self, x: np.ndarray, y: np.ndarray):
        """||[M_x, M_y]||_F in closed form, for one pair or per row of
        stacks: with x' = x[1:], [M_x, M_y] = y'x'^T - x'y'^T on the
        coordinates after the first, and zero elsewhere.  With r the part
        of y' orthogonal to x', its Frobenius norm is sqrt 2 |x'| |r|,
        which does not cancel as the Lagrange identity does near y' || x'."""
        a, b = x[..., 1:], y[..., 1:]
        aa = (a.real * a.real + a.imag * a.imag).sum(axis=-1)
        ab = (a.conj() * b).sum(axis=-1)
        r = b - (ab / np.where(aa > 0.0, aa, 1.0))[..., None] * a
        bound = np.sqrt(2.0 * aa * (r.real * r.real + r.imag * r.imag).sum(axis=-1))
        return float(bound) if x.ndim == 1 else bound

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        e0 = np.zeros(self.dim, dtype=complex)
        e0[0] = 1.0
        return x[0] * np.eye(self.dim, dtype=complex) + np.outer(x, e0) - np.outer(e0, x)

    def _eigenpieces(self, x: np.ndarray, real_nodes: bool):
        """Closed form: x = x_0 1 + w with w = (0, x_1, ...) has w o w = s^2 1,
        s = sqrt(-sum_{i>=1} x_i^2), so the nodes are x_0 -/+ s with the
        minimal idempotents (1 -/+ w / s) / 2; that form subtracts
        nothing.  s = 0 gives the single node x_0 with idempotent 1;
        a near-double root is left to the shared cluster merge, which sums
        the pair back to 1.  A stack takes the same form row by row, with
        the double node x_0 and idempotents 1/2 at s = 0."""
        if x.ndim > 1:  # the same form over the rows; matmul rows are 1-D dots bit for bit
            x0, w = x[..., 0], x[..., 1:]
            s = np.sqrt(-(w[..., None, :] @ w[..., :, None])[..., 0, 0])
            if real_nodes:
                re = w.real
                off = np.abs(x0.imag) + np.sqrt((re[..., None, :] @ re[..., :, None])[..., 0, 0])
                if (off > 1e-6 * (1.0 + np.abs(x0) + np.abs(s))).any():
                    raise NotSelfAdjoint("spin element is not self-adjoint")
                x0, s = x0.real, np.abs(s)
                half = 0.5 / np.where(s == 0.0, 1.0, s)
            else:  # Python's complex division, as one element takes it: numpy's rounds otherwise
                half = np.array([0.5 / v if v else 0.5 for v in s.ravel().tolist()]).reshape(s.shape)
            raw = np.empty(x.shape[:-1] + (2, self.dim), dtype=complex)
            raw[..., :, 0] = 0.5
            raw[..., 1, 1:] = half[..., None] * w
            raw[..., 0, 1:] = -raw[..., 1, 1:]
            return np.stack([x0 - s, x0 + s], axis=-1), raw
        x0, w = complex(x[0]), x[1:]
        s = cmath.sqrt(-complex(w @ w))
        if real_nodes:
            re = w.real
            if abs(x0.imag) + math.sqrt(re @ re) > 1e-6 * (1.0 + abs(x0) + abs(s)):
                raise NotSelfAdjoint("spin element is not self-adjoint")
            x0, s = x0.real, abs(s)
        if s == 0.0:
            return np.array([x0]), self.unit.coords[None]
        raw = np.empty((2, self.dim), dtype=complex)
        raw[:, 0] = 0.5
        raw[1, 1:] = (0.5 / s) * w
        raw[0, 1:] = -raw[1, 1:]
        return np.array([x0 - s, x0 + s]), raw

    def trace(self, x: np.ndarray) -> float:
        return float(x[0].real)

    def _canonical_projections(self) -> list[np.ndarray]:
        """The projections (1 +/- b)/2 along each H^- axis b."""
        d, u = self.dim, self.unit.coords
        b = 1j * np.eye(d, dtype=complex)
        return [0.5 * (u + sg * b[i]) for i in range(1, d) for sg in (1.0, -1.0)]

    def _center(self) -> list[np.ndarray]:
        return self._central_basis([])  # a factor: the centre is C 1

    def _peirce2(self, x: np.ndarray):
        """A nonzero tripotent of a spin factor is minimal (|x|^2 = 1/2) or
        unitary (|x|^2 = 1).  A minimal e gives M_1 with lambda -> lambda e,
        not isometric in the coordinates, and inverse y -> 2 <y, e>.  A
        unitary u gives the spin factor itself through U_v, a triple
        automorphism with U_v 1 = v^2 = u, where v takes square roots of the
        closed-form nodes of u (relative to the first node, so that nodes
        close together keep close roots); the inverse is U_{v*}."""
        if np.vdot(x, x).real < 0.75:
            return HermitianMatrixAlgebra(1, self.tol), x[:, None], 2.0 * x.conj()[None]
        nodes, raw = self._eigenpieces(x, False)
        v = (np.sqrt(nodes / nodes[0]) * np.sqrt(nodes[0])) @ raw
        return SpinFactor(self.n, self.tol), self._u_matrix(v), self._u_matrix(self._inv(v))


class DirectSum(AlgebraHandle):
    """Componentwise direct sum; the norm is the max over the summands.

    Every operation runs blockwise over ``summands``, the non-sum summands
    (nested sums flattened) with their coordinate slices.
    """

    kind = "direct_sum"
    rank = property(lambda self: sum(p.rank for p, _ in self.summands))  # disjoint spectra

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise EmptyParts("direct sum needs at least one part")
        leaves = [leaf for p in parts for leaf, _ in p.summands]
        offs = np.cumsum([0] + [p.dim for p in leaves])
        self.parts = parts
        ident = "direct_sum[" + ",".join(p.id for p in parts) + "]"
        unit = np.concatenate([p.unit.coords for p in parts])
        super().__init__(int(offs[-1]), parts[0].tol, ident, unit)
        self.summands = tuple((p, slice(int(a), int(b))) for p, a, b in zip(leaves, offs, offs[1:]))
        kappas = [p._norm_per_coord for p in leaves]
        self._norm_per_coord = None if None in kappas else max(kappas)

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate([p._prod(x[..., s], y[..., s]) for p, s in self.summands], axis=-1)

    def _inv(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([p._inv(x[..., s]) for p, s in self.summands], axis=-1)

    def _norm(self, x: np.ndarray):
        norms = [p._norm(x[..., s]) for p, s in self.summands]
        if x.ndim > 1:
            return np.max(norms, axis=0)
        total = sum(norms)  # NaN when any summand's is: max() would drop a later one
        return max(norms) if total == total else total

    def _blockwise(self, operator, x: np.ndarray) -> np.ndarray:
        """Block-diagonal matrix of ``operator(p, x[s])`` over the summands."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, s in self.summands:
            out[s, s] = operator(p, x[s])
        return out

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        return self._blockwise(lambda p, v: p._mult_matrix(v), x)

    def _u_matrix(self, x: np.ndarray) -> np.ndarray:
        return self._blockwise(lambda p, v: p._u_matrix(v), x)

    def _u_solve(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([p._u_solve(x[s], b[s]) for p, s in self.summands])

    def _lqe(self, x: np.ndarray):
        lee, q2 = np.zeros((2, self.dim, self.dim), dtype=complex)
        for p, s in self.summands:
            lee[s, s], q2[s, s] = p._lqe(x[s])
        return lee, q2

    def _commutator_norm(self, x: np.ndarray, y: np.ndarray, slack: float) -> float:
        return max(p._commutator_norm(x[s], y[s], slack) for p, s in self.summands)

    def _commutator_bound(self, x: np.ndarray, y: np.ndarray):
        bounds = [p._commutator_bound(x[..., s], y[..., s]) for p, s in self.summands]
        return np.max(bounds, axis=0)  # NaN in any summand, unlike max()

    def _u_singular_range(self, x: np.ndarray) -> tuple[float, float]:
        # U_x is block diagonal: its singular values are the summands' union
        ranges = [p._u_singular_range(x[s]) for p, s in self.summands]
        return max(top for top, _ in ranges), min(bottom for _, bottom in ranges)

    def _eigenpieces(self, x: np.ndarray, real_nodes: bool):
        """Each summand's own pieces, raw rows zero-padded (side by side for
        each row of a stack); the shared merge joins equal nodes across
        summands."""
        nodes, raws = zip(*(p._eigenpieces(x[..., s], real_nodes) for p, s in self.summands))
        starts = np.cumsum([0] + [r.shape[-2] for r in raws])
        raw = np.zeros(x.shape[:-1] + (starts[-1], self.dim), dtype=complex)
        for r, i, (_, s) in zip(raws, starts, self.summands):
            raw[..., i : i + r.shape[-2], s] = r
        return np.concatenate(nodes, axis=-1), raw

    def trace(self, x: np.ndarray) -> float:
        return sum(p.trace(x[s]) for p, s in self.summands)

    def _embedded(self, per_summand) -> list[np.ndarray]:
        """The coordinate vectors ``per_summand(p)`` of every summand p, zero-padded."""
        pads = [(p, (s.start, self.dim - s.stop)) for p, s in self.summands]
        return [np.pad(a, pad) for p, pad in pads for a in per_summand(p)]

    def _canonical_projections(self) -> list[np.ndarray]:
        return self._embedded(lambda p: p._canonical_projections()) + [self.unit.coords]

    def _center(self) -> list[np.ndarray]:
        # the centre of a direct sum is the direct sum of the centres
        return self._central_basis(self._embedded(lambda p: p._center()))

    def _peirce2(self, x: np.ndarray):
        """The sum of the summands' models, block embedding and inverse; a
        summand where the tripotent is zero (norm 0, not 1) is dropped."""
        pieces = [(p._peirce2(x[s]), s) for p, s in self.summands if p._norm(x[s]) > 0.5]
        offs = np.cumsum([0] + [model.dim for (model, _, _), _ in pieces])
        embed = np.zeros((self.dim, offs[-1]), dtype=complex)
        project = np.zeros((offs[-1], self.dim), dtype=complex)
        for ((_, up, down), s), a, b in zip(pieces, offs, offs[1:]):
            embed[s, a:b], project[a:b, s] = up, down
        return DirectSum([model for (model, _, _), _ in pieces]), embed, project

    @classmethod
    def from_descriptor(cls, doc: dict, tol: Tolerance) -> "DirectSum":
        parts = doc.get("parts")
        if not isinstance(parts, list):
            raise ValueError(f"direct_sum descriptor needs a list 'parts', got {parts!r}")
        return cls([algebra_from_descriptor(p, tol) for p in parts])

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "parts": [p.to_descriptor() for p in self.parts]}


# -- builders: the model constructors under their public names ---------------

build_hermitian_matrix_algebra = HermitianMatrixAlgebra
build_spin_factor = SpinFactor
build_direct_sum = DirectSum


# -- element operations -----------------------------------------------------


def _owned(A: AlgebraHandle, a: Element) -> np.ndarray:
    if a.algebra_id != A.id:
        raise AlgebraMismatch(f"element of {a.algebra_id} used in {A.id}")
    return a.coords


def jordan_product(A: AlgebraHandle, a: Element, b: Element) -> Element:
    return Element(A.id, A._prod(_owned(A, a), _owned(A, b)))


def involution(A: AlgebraHandle, a: Element) -> Element:
    return Element(A.id, A._inv(_owned(A, a)))


def jbstar_norm(A: AlgebraHandle, a: Element) -> float:
    return A._norm(_owned(A, a))


def random_element(A: AlgebraHandle, seed: int, flavor: str = "general") -> Element:
    """Deterministic random element of the requested flavor.

    Flavors: ``general``, ``self_adjoint``, ``positive`` (b o b for random
    self-adjoint b), ``projection`` (sum of a random subset of spectral
    idempotents), ``unitary`` (exp_i of a random self-adjoint).
    """
    return Element(A.id, _random(A, np.random.default_rng(seed), flavor))


def _random(A: AlgebraHandle, rng: np.random.Generator, flavor: str = "general") -> np.ndarray:
    """Coordinates of a random element of the flavor (see random_element)."""
    if flavor == "unitary":
        from . import calculus  # lazy: spectral machinery lives downstream

        return calculus._exp_i(A, _unitary_generator(A, rng), 1.0)
    if flavor in ("general", "self_adjoint"):
        return _random_rows(A, rng, 1, flavor)[0]
    sa = _random_rows(A, rng, 1, "self_adjoint")[0]
    if flavor == "positive":
        return A._prod(sa, sa)
    if flavor == "projection":
        from . import calculus

        idems = calculus._decompose(A, sa)[1]
        m = idems.shape[0]
        bits = rng.integers(0, 2, size=m)
        if m >= 2 and (bits.sum() == 0 or bits.sum() == m):
            bits[int(rng.integers(0, m))] ^= 1
        return bits @ idems
    raise ValueError(f"unknown flavor {flavor!r}")


def _random_rows(A: AlgebraHandle, rng: np.random.Generator, k: int, flavor: str = "general") -> np.ndarray:
    """k ``general`` or ``self_adjoint`` draws as a (k, dim) stack, from one
    (k, 2, dim) block of normals: the generator is consumed as k ``_random``
    calls consume it, and row i is the i-th call's draw bit for bit."""
    return _rows_from_normals(A, rng.standard_normal((k, 2, A.dim)), flavor)


def _rows_from_normals(A: AlgebraHandle, z: np.ndarray, flavor: str) -> np.ndarray:
    """The ``general`` element g = re + i im, or the ``self_adjoint`` one
    (g + g*) / 2, of each (2, dim) block of normals (re, im) of a (..., 2, dim)
    array."""
    g = z[..., 0, :] + 1j * z[..., 1, :]
    if flavor == "general":
        return g
    if flavor == "self_adjoint":
        return 0.5 * (g + A._inv(g))
    raise ValueError(f"unknown flavor {flavor!r}")


def _unitary_generator(A: AlgebraHandle, rng: np.random.Generator) -> np.ndarray:
    """The self-adjoint h of a ``unitary`` draw exp(i h), drawn as that draw
    draws it, so that a caller can take the exponentials of a stack at once."""
    sa = _random(A, rng, "self_adjoint")
    return rng.uniform(0.3, 2.2) * sa


# -- self-adjoint real structure --------------------------------------------


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def _unrealify(r: np.ndarray) -> np.ndarray:
    d = r.size // 2
    return r[:d] + 1j * r[d:]


def selfadjoint_basis(A: AlgebraHandle) -> list[Element]:
    """Orthonormal real basis of the self-adjoint part.

    Orthonormality is with respect to the real coordinate inner product
    Re<x, y>; the basis is the SVD null space of (involution - id) acting on
    the realified coordinates, so it is deterministic per handle.
    """
    eye = np.eye(A.dim, dtype=complex)
    M = _realify(A._inv(np.concatenate([eye, 1j * eye]))).T  # columns: e_j, then i e_j
    u, s, vt = np.linalg.svd(M - np.eye(2 * A.dim))
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    null = vt[rank:].T
    return [Element(A.id, _unrealify(null[:, j])) for j in range(null.shape[1])]


def sa_coords(A: AlgebraHandle, a: Element, basis: list[Element] | None = None) -> np.ndarray:
    """Real coordinates of a self-adjoint element in a self-adjoint basis."""
    return _sa_coords(A, _owned(A, a), basis)


def _sa_coords(A: AlgebraHandle, x: np.ndarray, basis: list[Element] | None = None) -> np.ndarray:
    basis = basis if basis is not None else selfadjoint_basis(A)
    B = np.stack([_realify(b.coords) for b in basis], axis=1)
    return B.T @ _realify(x)


def sa_from_coords(A: AlgebraHandle, rho, basis: list[Element] | None = None) -> Element:
    basis = basis if basis is not None else selfadjoint_basis(A)
    return Element(A.id, np.asarray(rho, dtype=float) @ np.stack([b.coords for b in basis]))


# -- JSON interfaces ---------------------------------------------------------


def element_to_json(a: Element) -> dict:
    return {"coords": [[float(z.real), float(z.imag)] for z in a.coords]}


def element_from_json(A: AlgebraHandle, doc: dict) -> Element:
    coords = [complex(re, im) for re, im in doc["coords"]]
    return A.element(coords)


_MODELS = {cls.kind: cls for cls in (HermitianMatrixAlgebra, SpinFactor, DirectSum)}


def algebra_from_descriptor(doc: dict, tol: Tolerance = Tolerance()) -> AlgebraHandle:
    """Build a handle from the JSON descriptor format used by the CLI.

    Raises ValueError on a malformed descriptor, and SizeOutOfRange or
    EmptyParts on one that names no buildable algebra.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ValueError(f"unknown algebra descriptor kind {kind!r}")
    return _MODELS[kind].from_descriptor(doc, tol)


def algebra_to_descriptor(A: AlgebraHandle) -> dict:
    return A.to_descriptor()
