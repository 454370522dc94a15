"""Matrix representations of jbstar's models, built from numpy alone.

The benchmark checks jbstar's outputs against these, so nothing here calls
into jbstar.  Every model is represented by block-diagonal complex
matrices on which the Jordan product is (XY + YX)/2:

* M_n(C) by its own n x n matrices (jbstar's coordinates are the row-major
  entries);
* the spin factor on C^n by x -> x_0 I - i sum_k x_k G_k, where G_1..G_{n-1}
  are anticommuting hermitian unitaries (Jordan-Wigner strings of Pauli
  matrices).  This is a Jordan *-homomorphism for jbstar's spin product
  x o y = x_0 y + y_0 x - (sum_j x_j y_j) e_0 and involution
  x* = (conj x_0, -conj x_1, ..., -conj x_{n-1});
* a direct sum by the block-diagonal sum of its parts.
"""

from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _kron_all(factors) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def gamma_matrices(m: int) -> list[np.ndarray]:
    """m pairwise anticommuting hermitian matrices that square to I."""
    k = max(1, m // 2)  # k qubits give 2k + 1 >= m generators
    gammas = []
    for j in range(k):
        head = [_Z] * j
        tail = [_I2] * (k - j - 1)
        gammas.append(_kron_all(head + [_X] + tail))
        gammas.append(_kron_all(head + [_Y] + tail))
    gammas.append(_kron_all([_Z] * k))
    return gammas[:m]


def flatten_parts(desc: dict) -> list[tuple[str, int]]:
    """Simple summands of an algebra descriptor, in coordinate order."""
    if desc["kind"] == "direct_sum":
        return [p for part in desc["parts"] for p in flatten_parts(part)]
    return [(desc["kind"], int(desc["n"]))]


def model_dim(desc: dict) -> int:
    """Complex dimension of the model a descriptor names."""
    return sum(n * n if kind == "hermitian_matrix" else n for kind, n in flatten_parts(desc))


def slots(kind: str, n: int) -> int:
    """How many eigenvalues (with multiplicity) a self-adjoint part carries
    in the Jordan sense: n for M_n, two for a spin factor."""
    return n if kind == "hermitian_matrix" else 2


class MatrixRep:
    """Block-diagonal matrix representation of one algebra descriptor."""

    def __init__(self, desc: dict):
        self.parts = flatten_parts(desc)
        self.dim = model_dim(desc)
        self.slots = [slots(kind, n) for kind, n in self.parts]
        self._gammas = {}
        self.coord_slices = []
        self.block_slices = []
        c = b = 0
        for kind, n in self.parts:
            d = n * n if kind == "hermitian_matrix" else n
            size = n if kind == "hermitian_matrix" else self._gamma(n)[0].shape[0]
            self.coord_slices.append(slice(c, c + d))
            self.block_slices.append(slice(b, b + size))
            c += d
            b += size
        self.size = b

    def _gamma(self, n: int) -> list[np.ndarray]:
        if n not in self._gammas:
            self._gammas[n] = gamma_matrices(n - 1)
        return self._gammas[n]

    def blocks(self, coords) -> list[np.ndarray]:
        x = np.asarray(coords, dtype=complex)
        out = []
        for (kind, n), cs in zip(self.parts, self.coord_slices):
            xc = x[cs]
            if kind == "hermitian_matrix":
                out.append(xc.reshape(n, n))
            else:
                gs = self._gamma(n)
                blk = xc[0] * np.eye(gs[0].shape[0], dtype=complex)
                for xk, g in zip(xc[1:], gs):
                    blk = blk - 1j * xk * g
                out.append(blk)
        return out

    def matrix(self, coords) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        for bs, blk in zip(self.block_slices, self.blocks(coords)):
            m[bs, bs] = blk
        return m

    def coords(self, m: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for (kind, n), cs, bs in zip(self.parts, self.coord_slices, self.block_slices):
            blk = m[bs, bs]
            if kind == "hermitian_matrix":
                out[cs] = blk.ravel()
            else:
                gs = self._gamma(n)
                d = gs[0].shape[0]
                out[cs] = [np.trace(blk) / d] + [1j * np.trace(blk @ g) / d for g in gs]
        return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_frames(rep: MatrixRep, rng: np.random.Generator) -> list[np.ndarray]:
    """Eigenframes per part: a unitary for M_n, a unit direction for spin."""
    frames = []
    for kind, n in rep.parts:
        if kind == "hermitian_matrix":
            frames.append(random_unitary(rng, n))
        else:
            t = rng.standard_normal(n - 1)
            frames.append(t / np.linalg.norm(t))
    return frames


def selfadjoint_matrix(rep: MatrixRep, frames, values) -> np.ndarray:
    """Hermitian representative with the given per-slot eigenvalues.

    ``values`` lists, part by part, ``rep.slots[i]`` numbers: the diagonal in
    the part's unitary frame for M_n, and the pair (mu - r, mu + r) for a
    spin factor, realised as mu I + r sum_k t_k G_k along direction t.
    """
    m = np.zeros((rep.size, rep.size), dtype=complex)
    pos = 0
    for (kind, n), frame, bs, k in zip(rep.parts, frames, rep.block_slices, rep.slots):
        vals = np.asarray(values[pos : pos + k], dtype=float)
        pos += k
        if kind == "hermitian_matrix":
            m[bs, bs] = (frame * vals) @ frame.conj().T
        else:
            gs = rep._gamma(n)
            mu, r = 0.5 * (vals[0] + vals[1]), 0.5 * (vals[1] - vals[0])
            blk = mu * np.eye(gs[0].shape[0], dtype=complex)
            for tk, g in zip(frame, gs):
                blk = blk + r * tk * g
            m[bs, bs] = blk
    return m


def merged_eigenvalues(m: np.ndarray, gap: float) -> np.ndarray:
    """Distinct eigenvalues of a hermitian matrix, merging those closer than gap."""
    vals = np.linalg.eigvalsh(m)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > gap:
            out.append(v)
    return np.array(out)


def expm_hermitian(m: np.ndarray, t: float) -> np.ndarray:
    """exp(i t m) for hermitian m, through numpy's eigh."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def peirce_ranks(rep: MatrixRep, ranks: list[int]) -> tuple[int, int, int]:
    """Peirce-2/1/0 dimensions for a projection of the given per-part rank.

    For M_n and a rank-r projection: r^2, 2r(n-r), (n-r)^2.  For a spin
    factor on C^n and a projection other than 0 and 1 (rank 1 of 2): 1,
    n-2, 1.
    """
    d2 = d1 = d0 = 0
    for (kind, n), r in zip(rep.parts, ranks):
        if kind == "hermitian_matrix":
            d2, d1, d0 = d2 + r * r, d1 + 2 * r * (n - r), d0 + (n - r) ** 2
        else:
            d2, d1, d0 = d2 + 1, d1 + n - 2, d0 + 1
    return d2, d1, d0
