"""Concrete finite-dimensional JB*-algebra models.

Each model kind is a subclass of :class:`AlgebraHandle`: the full complex
matrix algebra with the Jordan product (whose self-adjoint part is the
hermitian matrices), spin factors over a complex n-space with componentwise
conjugation, and finite direct sums of models.  A fourth, derived model
carries Peirce-2 algebras of tripotents; it is constructed by
:mod:`jbstar.peirce`.

A model owns its unit, product, involution, norm, multiplication matrix,
trace, canonical projections, centre and descriptor form.  Every element is
a complex coordinate vector over the model's fixed basis, tagged with the
algebra identity.  Handles are immutable and operations are pure, so values
are safe to share between workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraMismatch, EmptyParts, PreconditionFailed, SizeOutOfRange
from .kernel import Tolerance, operator_norm

__all__ = [
    "AlgebraHandle",
    "HermitianMatrixAlgebra",
    "SpinFactor",
    "DirectSum",
    "Peirce2Algebra",
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
        c = np.asarray(self.coords, dtype=complex)
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("element coordinates must be finite")
        c = c.copy()
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


class AlgebraHandle:
    """Immutable JB*-algebra model; one subclass per model kind.

    Subclasses supply the coordinate formulas ``_prod``, ``_inv`` and
    ``_norm`` and the unit; every other module works through these, the
    multiplication matrix, the trace, the canonical projections and the
    centre.  The generic multiplication matrix and centre defined here are
    exact for any model; the concrete models replace them by closed forms.
    """

    kind: str | None = None
    n: int | None = None
    parts: tuple | None = None
    # samplers.default_oc_sampler strategy for operator-commuting pairs
    oc_strategy = "same_generator"

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
        """{x,y,z} = (x o y*) o z + (z o y*) o x - (x o z) o y*."""
        ys = self._inv(y)
        return self._prod(self._prod(x, ys), z) + self._prod(self._prod(z, ys), x) - self._prod(
            self._prod(x, z), ys
        )

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x o y in the algebra basis."""
        cols = [self._prod(x, e) for e in np.eye(self.dim, dtype=complex)]
        return np.stack(cols, axis=1)

    def trace(self, x: np.ndarray) -> float:
        raise PreconditionFailed(f"no trace defined on {self.id}")

    def canonical_projections(self) -> list[Element]:
        return []

    def center_basis(self) -> list[Element]:
        """Centre as the joint kernel of z -> [M_z, M_{e_k}] over the basis.

        The normal equations of the stacked system have order d^5; the
        kernel vectors are split into self-adjoint parts.
        """
        d = self.dim
        eye = np.eye(d, dtype=complex)
        mults = [self._mult_matrix(eye[j]) for j in range(d)]
        gram = np.zeros((d, d), dtype=complex)
        for k in range(d):
            mk = mults[k]
            cols = np.stack([(mj @ mk - mk @ mj).ravel() for mj in mults], axis=1)
            gram += cols.conj().T @ cols
        vals, vecs = np.linalg.eigh(gram)
        thr = max(vals[-1], 1.0) * 1e-12
        halves = []
        for j in range(d):
            if vals[j] <= thr:
                z, zs = vecs[:, j], self._inv(vecs[:, j])
                halves += [0.5 * (z + zs), -0.5j * (z - zs)]
        return self._central_basis(halves)

    def _central_basis(self, vectors) -> list[Element]:
        """Gram-Schmidt over the normalised unit followed by ``vectors``
        (central and self-adjoint), dropping dependent ones."""
        out: list[np.ndarray] = []
        for v in [self._unit.coords / np.linalg.norm(self._unit.coords), *vectors]:
            for q in out:
                v = v - np.vdot(q, v) * q
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                out.append(v / nv)
        return [Element(self.id, v) for v in out]

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

    def __init__(self, n: int, tol: Tolerance = Tolerance()):
        if not (1 <= n <= 12):
            raise SizeOutOfRange(f"hermitian_matrix size must be in [1, 12], got {n}")
        self.n = n
        super().__init__(n * n, tol, f"hermitian_matrix({n})", np.eye(n, dtype=complex).ravel())

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        a = x.reshape(self.n, self.n)
        b = y.reshape(self.n, self.n)
        return (0.5 * (a @ b + b @ a)).ravel()

    def _inv(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n, self.n).conj().T.ravel()

    def _norm(self, x: np.ndarray) -> float:
        return operator_norm(x.reshape(self.n, self.n))

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        m = x.reshape(self.n, self.n)
        eye = np.eye(self.n, dtype=complex)
        # row-major vec: vec(MX) = (M kron I) vec(X), vec(XM) = (I kron M^T) vec(X)
        return 0.5 * (np.kron(m, eye) + np.kron(eye, m.T))

    def trace(self, x: np.ndarray) -> float:
        return float(np.trace(x.reshape(self.n, self.n)).real)

    def canonical_projections(self) -> list[Element]:
        """Diagonal matrix units and the rank-one sum/phase projections
        onto (e_j + e_k)/sqrt 2 and (e_j + i e_k)/sqrt 2."""
        n, eye = self.n, np.eye(self.n, dtype=complex)
        vs = [(1.0, eye[j]) for j in range(n)]
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        vs += [(0.5, eye[j] + ph * eye[k]) for j, k in pairs for ph in (1.0, 1.0j)]
        return [self.element((c * np.outer(v, v.conj())).ravel()) for c, v in vs]

    def center_basis(self) -> list[Element]:
        return self._central_basis([])  # a factor: the centre is C 1


class SpinFactor(AlgebraHandle):
    """Spin factor on C^n with componentwise conjugation and unit e_0.

    Needs n >= 3 so that H^- = {(0, i t_2, ..., i t_n) : t real} has real
    dimension at least 2.
    """

    kind = "spin"
    oc_strategy = "spin_line"

    def __init__(self, n: int, tol: Tolerance = Tolerance()):
        if n < 3:
            raise SizeOutOfRange(f"spin factor needs n >= 3, got {n}")
        self.n = n
        unit = np.zeros(n, dtype=complex)
        unit[0] = 1.0
        super().__init__(n, tol, f"spin({n})", unit)

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # x o y = <x|1> y + <y|1> x - <x|conj(y)> 1, inner product linear
        # in the first slot and conjugate-linear in the second; the
        # bilinear form is averaged over both operand orders so the
        # product commutes bit-exactly despite FMA in complex multiply
        out = x[0] * y + y[0] * x
        out[0] -= 0.5 * (np.sum(x * y) + np.sum(y * x))
        return out

    def _inv(self, x: np.ndarray) -> np.ndarray:
        out = -np.conj(x)
        out[0] += 2.0 * np.conj(x[0])
        return out

    def _norm(self, x: np.ndarray) -> float:
        n2sq = float(np.sum(np.abs(x) ** 2))
        inner = np.sum(x * x)  # <x|conj(x)>
        val = max(n2sq * n2sq - abs(inner) ** 2, 0.0)
        return float(np.sqrt(n2sq + np.sqrt(val)))

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        e0 = np.zeros(self.dim, dtype=complex)
        e0[0] = 1.0
        return x[0] * np.eye(self.dim, dtype=complex) + np.outer(x, e0) - np.outer(e0, x)

    def trace(self, x: np.ndarray) -> float:
        return float(x[0].real)

    def canonical_projections(self) -> list[Element]:
        """The projections (1 +/- b)/2 along each H^- axis b."""
        d, u = self.dim, self.unit.coords
        b = 1j * np.eye(d, dtype=complex)
        return [self.element(0.5 * (u + sg * b[i])) for i in range(1, d) for sg in (1.0, -1.0)]

    def center_basis(self) -> list[Element]:
        return self._central_basis([])  # a factor: the centre is C 1


class DirectSum(AlgebraHandle):
    """Componentwise direct sum; the norm is the max over the summands.

    Every operation runs blockwise over ``summands``, the non-sum summands
    (nested sums flattened) with their coordinate slices.
    """

    kind = "direct_sum"

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

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate([p._prod(x[s], y[s]) for p, s in self.summands])

    def _inv(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([p._inv(x[s]) for p, s in self.summands])

    def _norm(self, x: np.ndarray) -> float:
        return max(p._norm(x[s]) for p, s in self.summands)

    def _mult_matrix(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, s in self.summands:
            out[s, s] = p._mult_matrix(x[s])
        return out

    def trace(self, x: np.ndarray) -> float:
        return sum(p.trace(x[s]) for p, s in self.summands)

    def _embedded(self, per_summand) -> list[np.ndarray]:
        """The elements ``per_summand(p)`` of every summand p, zero-padded."""
        pads = [(p, (s.start, self.dim - s.stop)) for p, s in self.summands]
        return [np.pad(a.coords, pad) for p, pad in pads for a in per_summand(p)]

    def canonical_projections(self) -> list[Element]:
        embedded = self._embedded(lambda p: p.canonical_projections())
        return [self.element(c) for c in embedded] + [self.unit]

    def center_basis(self) -> list[Element]:
        # the centre of a direct sum is the direct sum of the centres
        return self._central_basis(self._embedded(lambda p: p.center_basis()))

    @classmethod
    def from_descriptor(cls, doc: dict, tol: Tolerance) -> "DirectSum":
        parts = doc.get("parts")
        if not isinstance(parts, list):
            raise ValueError(f"direct_sum descriptor needs a list 'parts', got {parts!r}")
        return cls([algebra_from_descriptor(p, tol) for p in parts])

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "parts": [p.to_descriptor() for p in self.parts]}


class Peirce2Algebra(AlgebraHandle):
    """Peirce-2 space of a tripotent e in an ambient model, with product
    {x,e,y} and involution {e,x,e}, carried by the isometric embedding
    ``embed`` (columns spanning the range of P2(e)).

    Built by jbstar.peirce.peirce2_algebra; its centre is the generic one.
    """

    kind = "peirce2"

    def __init__(self, ambient: AlgebraHandle, e: np.ndarray, embed: np.ndarray):
        tag = hashlib.sha1(np.ascontiguousarray(e).tobytes()).hexdigest()[:12]
        self.ambient = ambient
        self.e = e
        self.embed = embed
        unit = embed.conj().T @ e
        super().__init__(embed.shape[1], ambient.tol, f"peirce2[{ambient.id};{tag}]", unit)

    def _prod(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        B = self.embed
        return B.conj().T @ self.ambient._triple(B @ x, self.e, B @ y)

    def _inv(self, x: np.ndarray) -> np.ndarray:
        B = self.embed
        return B.conj().T @ self.ambient._triple(self.e, B @ x, self.e)

    def _norm(self, x: np.ndarray) -> float:
        return self.ambient._norm(self.embed @ x)

    def to_descriptor(self) -> dict:
        raise ValueError(f"algebra kind {self.kind!r} has no descriptor form")


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
    return _random(A, np.random.default_rng(seed), flavor)


def _random(A: AlgebraHandle, rng: np.random.Generator, flavor: str = "general") -> Element:
    g = Element(A.id, rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    if flavor == "general":
        return g
    sa = 0.5 * (g + involution(A, g))
    if flavor == "self_adjoint":
        return sa
    if flavor == "positive":
        return jordan_product(A, sa, sa)
    from . import calculus  # lazy: spectral machinery lives downstream

    if flavor == "projection":
        dec = calculus.spectral_decomposition(A, sa)
        m = len(dec.pairs)
        bits = rng.integers(0, 2, size=m)
        if m >= 2 and (bits.sum() == 0 or bits.sum() == m):
            bits[int(rng.integers(0, m))] ^= 1
        return sum((idem for take, (_, idem) in zip(bits, dec.pairs) if take), A.zero())
    if flavor == "unitary":
        scale = rng.uniform(0.3, 2.2)
        return calculus.exp_i(A, scale * sa, 1.0)
    raise ValueError(f"unknown flavor {flavor!r}")


# -- self-adjoint real structure --------------------------------------------


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _unrealify(r: np.ndarray) -> np.ndarray:
    d = r.size // 2
    return r[:d] + 1j * r[d:]


def selfadjoint_basis(A: AlgebraHandle) -> list[Element]:
    """Orthonormal real basis of the self-adjoint part.

    Orthonormality is with respect to the real coordinate inner product
    Re<x, y>; the basis is the SVD null space of (involution - id) acting on
    the realified coordinates, so it is deterministic per handle.
    """
    d = A.dim
    M = np.zeros((2 * d, 2 * d))
    eye = np.eye(d, dtype=complex)
    for j in range(d):
        M[:, j] = _realify(A._inv(eye[j]))
        M[:, d + j] = _realify(A._inv(1j * eye[j]))
    u, s, vt = np.linalg.svd(M - np.eye(2 * d))
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    null = vt[rank:].T
    return [Element(A.id, _unrealify(null[:, j])) for j in range(null.shape[1])]


def sa_coords(A: AlgebraHandle, a: Element, basis: list[Element] | None = None) -> np.ndarray:
    """Real coordinates of a self-adjoint element in a self-adjoint basis."""
    basis = basis if basis is not None else selfadjoint_basis(A)
    r = _realify(_owned(A, a))
    B = np.stack([_realify(b.coords) for b in basis], axis=1)
    return B.T @ r


def sa_from_coords(A: AlgebraHandle, rho, basis: list[Element] | None = None) -> Element:
    basis = basis if basis is not None else selfadjoint_basis(A)
    return sum((float(c) * b for c, b in zip(np.asarray(rho, dtype=float), basis)), A.zero())


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
