"""Independent evaluation paths used as oracles by the test suite.

Everything here works directly on raw numpy matrices through the
associative product, bypassing the package's Jordan machinery, so the two
code paths share no logic beyond numpy itself.  Two exceptions work
through a model's own operations: ``is_spin_summand``, a sampled type test
that shares nothing with its type data, and
``peirce_identity_residual_2norm``, which measures the package's Peirce
matrices in the operator 2-norm instead of the Frobenius norm.
``generator_one_at_a_time`` runs the package's one-element exponential and
log in turn, one element and one t at a time: it is the reference of the
stacked generator.  ``oc_equivalences_one_at_a_time`` likewise runs the
residuals of ``unitary.oc_unitary_equivalences_check`` one draw, one
exponent and one identity at a time.  ``random_one_at_a_time``,
``same_generator_pair_one_at_a_time`` and
``commuting_projection_pair_one_at_a_time`` draw one element or one pair,
call by call on the generator: they are the references of the stacked
draws, which must consume the generator alike.

``GenericModel`` holds the generic forms of the model hooks: the
multiplication matrix from basis products, the Krylov spectral route with
its weighted merge (``weighted_merge``), the centre as a joint commutator
kernel, and the rank from one fixed-seed draw.
Called unbound on a concrete model they are the oracles of its closed
forms; ``Peirce2Algebra``, the Peirce-2 algebra of a tripotent built from
the ambient triple product on an eigenbasis of P2, runs on them alone and
is the oracle of the concrete Peirce-2 models.
"""

import hashlib
from functools import cached_property

import numpy as np

from jbstar import calculus
from jbstar.algebras import AlgebraHandle, _normal_eig, _random, selfadjoint_basis
from jbstar.errors import BranchAmbiguity, Inconsistent
from jbstar.kernel import operator_norm
from jbstar.peirce import _lqe, _peirce_projections
from jbstar.unitary import _unitary_log

# Pauli matrices for the 2x2 embedding of small spin factors
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)


def to_matrix(A, a):
    return a.coords.reshape(A.n, A.n)


def from_matrix(A, m):
    return A.element(np.asarray(m, dtype=complex).ravel())


def assoc_jordan(m, w):
    return 0.5 * (m @ w + w @ m)


def assoc_u(m, w):
    return m @ w @ m


def assoc_triple(x, y, z):
    return 0.5 * (x @ y.conj().T @ z + z @ y.conj().T @ x)


def expm_hermitian(h, t=1.0):
    """exp(i t h) for a hermitian matrix via numpy's eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def spin_sa_to_pauli(lam, tvec):
    """Embed a self-adjoint spin element lambda*1 + h (h with real H^-
    coordinates tvec, len <= 3) as a 2x2 hermitian matrix."""
    t = np.zeros(3)
    t[: len(tvec)] = tvec
    return lam * np.eye(2, dtype=complex) + sum(ti * si for ti, si in zip(t, PAULI))


def pauli_to_spin_sa(m):
    """Inverse of spin_sa_to_pauli: (lambda, tvec of length 3)."""
    lam = float(np.trace(m).real) / 2.0
    t = np.array([float(np.trace(m @ s).real) / 2.0 for s in PAULI])
    return lam, t


def eig_projectors(m):
    """Cluster-merged eigenprojectors of a hermitian matrix."""
    vals, vecs = np.linalg.eigh(m)
    groups = []
    for i, v in enumerate(vals):
        if groups and abs(v - groups[-1][0][-1]) < 1e-7 * (1.0 + abs(v)):
            groups[-1][0].append(v)
            groups[-1][1].append(i)
        else:
            groups.append(([v], [i]))
    out = []
    for vs, idx in groups:
        P = sum(np.outer(vecs[:, i], vecs[:, i].conj()) for i in idx)
        out.append((float(np.mean(vs)), P))
    return out


def spin_gammas(count):
    """count mutually anticommuting hermitian involutions (Jordan-Wigner
    strings of Pauli matrices on k qubits, 2k + 1 >= count)."""
    k = max(1, -(-(count - 1) // 2))
    eye = np.eye(2, dtype=complex)

    def string(ops):
        out = np.ones((1, 1), dtype=complex)
        for op in ops:
            out = np.kron(out, op)
        return out

    gams = []
    for j in range(k):
        for p in (SX, SY):
            gams.append(string([SZ] * j + [p] + [eye] * (k - j - 1)))
    gams.append(string([SZ] * k))
    return gams[:count]


def to_block_matrix(A, coords):
    """Faithful *-representation of any concrete model by block-diagonal
    complex matrices: M_n as itself, a spin element x as
    x_0 I - i sum_j x_j gamma_j, a direct sum blockwise."""
    blocks = []
    for part, sl in A.summands:
        x = np.asarray(coords)[sl]
        if part.kind == "hermitian_matrix":
            blocks.append(x.reshape(part.n, part.n))
        else:
            gams = spin_gammas(part.dim - 1)
            blocks.append(x[0] * np.eye(gams[0].shape[0]) - 1j * sum(c * g for c, g in zip(x[1:], gams)))
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def associator(A, a, c, b):
    """[a,c,b] = (a o c) o b - a o (c o b), as a matrix of the faithful
    representation to_block_matrix."""
    x, y, z = (to_block_matrix(A, v.coords) for v in (a, c, b))
    return assoc_jordan(assoc_jordan(x, y), z) - assoc_jordan(x, assoc_jordan(y, z))


def distinct_eigenvalues(m, gap):
    """Sorted eigenvalues of a hermitian matrix (eigvalsh), neighbours closer
    than gap merged into their mean."""
    vals = np.linalg.eigvalsh(m)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= gap:
            groups[-1].append(v)
        else:
            groups.append([v])
    return np.array([np.mean(g) for g in groups])


def kron_mult_matrix(m):
    """Matrix of X -> (mX + Xm)/2 on row-major M_n coordinates, by np.kron."""
    eye = np.eye(m.shape[0], dtype=complex)
    return 0.5 * (np.kron(m, eye) + np.kron(eye, m.T))


def spin_prod_np_sum(x, y):
    """Spin-factor product with the bilinear form summed by np.sum."""
    out = x[0] * y + y[0] * x
    out[0] -= 0.5 * (np.sum(x * y) + np.sum(y * x))
    return out


def spin_norm_np_sum(x):
    """Spin-factor norm with its sums taken by np.sum: Lagrange's form
    ||x||^2 = |x|^2 + 2|a ^ b|, |a ^ b| = |a| |b - (<a,b>/|a|^2) a|, for
    a = Re x and b = Im x."""
    a, b = x.real, x.imag
    aa, bb, ab = float(np.sum(a * a)), float(np.sum(b * b)), float(np.sum(a * b))
    wedge = 0.0
    if aa != 0.0:
        r = b - (ab / aa) * a
        wedge = float(np.sqrt(aa * float(np.sum(r * r))))
    return float(np.sqrt(aa + bb + 2.0 * wedge))


def spin_norm_cancelling(x):
    """Spin-factor norm ||x||^2 = |x|^2 + sqrt(|x|^4 - |<x|conj(x)>|^2): the
    same quantity, but the inner root cancels near unitaries (both terms
    about 1), where it returns about sqrt(eps)."""
    n2sq = float(np.sum(np.abs(x) ** 2))
    inner = np.sum(x * x)
    val = max(n2sq * n2sq - abs(inner) ** 2, 0.0)
    return float(np.sqrt(n2sq + np.sqrt(val)))


def peirce_operators_by_columns(A, e):
    """L(e,e) and Q(e)^2 of a tripotent, one basis column at a time.

    L(e,e) has columns {e,e,b_j}.  Q(e) y = {e,y,e} is conjugate-linear, so
    its columns {e,b_j,e} act on conjugated coordinates, Q(e) y = Mq conj(y),
    and Q(e)^2 = Mq conj(Mq).
    """
    x = e.coords
    eye = np.eye(A.dim, dtype=complex)
    lee = np.stack([A._triple(x, x, eye[j]) for j in range(A.dim)], axis=1)
    mq = np.stack([A._triple(x, eye[j], x) for j in range(A.dim)], axis=1)
    return lee, mq @ np.conj(mq)


def peirce_identity_residual_2norm(A, e):
    """Largest Peirce-identity defect of a tripotent in the operator 2-norm.

    The identities ``peirce_system`` verifies (partition, idempotency,
    orthogonality, P2 e = e and P2 = Q(e)^2) on the same matrices, P2, P1
    and P0 formed from one L(e,e)^2 as the package forms them, each matrix
    defect measured by its largest singular value.  Orthogonality is checked
    in all six orders, where the package checks each pair once, so the
    package's residual is seen to bound the reverse orders too.
    """
    x = e.coords
    lee, q2 = _lqe(A, x)
    l2 = lee @ lee
    eye = np.eye(A.dim, dtype=complex)
    p2 = 2.0 * l2 - lee
    p1 = 4.0 * (lee - l2)
    p0 = eye - 3.0 * lee + 2.0 * l2
    projs = (p2, p1, p0)
    checks = [operator_norm(p2 + p1 + p0 - eye)]
    checks += [operator_norm(p @ p - p) for p in projs]
    checks += [operator_norm(projs[i] @ projs[j]) for i in range(3) for j in range(3) if i != j]
    checks.append(A._norm(p2 @ x - x))
    checks.append(operator_norm(p2 - q2))
    return max(checks)


def vector_prod(A, x, y):
    """Jordan product of two coordinate vectors by the one-vector formulas
    the models had before their operations took batch axes."""
    if A.kind == "hermitian_matrix":
        a, b = x.reshape(A.n, A.n), y.reshape(A.n, A.n)
        return (0.5 * (a @ b + b @ a)).ravel()
    if A.kind == "spin":
        out = x[0] * y + y[0] * x
        out[0] -= 0.5 * ((x * y).sum() + (y * x).sum())
        return out
    if A.kind == "direct_sum":
        return np.concatenate([vector_prod(p, x[s], y[s]) for p, s in A.summands])
    B = A.embed  # peirce2: {Bx, e, By} projected back
    return B.conj().T @ vector_triple(A.ambient, B @ x, A.e, B @ y)


def vector_inv(A, x):
    """Involution of a coordinate vector by the one-vector formulas (see
    vector_prod)."""
    if A.kind == "hermitian_matrix":
        return x.reshape(A.n, A.n).conj().T.ravel()
    if A.kind == "spin":
        out = -np.conj(x)
        out[0] += 2.0 * np.conj(x[0])
        return out
    if A.kind == "direct_sum":
        return np.concatenate([vector_inv(p, x[s]) for p, s in A.summands])
    B = A.embed
    return B.conj().T @ vector_triple(A.ambient, A.e, B @ x, A.e)


def vector_triple(A, x, y, z):
    """{x,y,z} = (x o y*) o z + (z o y*) o x - (x o z) o y* by vector_prod."""
    ys = vector_inv(A, y)
    p = lambda u, v: vector_prod(A, u, v)
    return p(p(x, ys), z) + p(p(z, ys), x) - p(p(x, z), ys)


def is_spin_summand(A: AlgebraHandle, samples: int = 10, seed: int = 7) -> bool:
    """Mechanical spin detector on a single (non-sum) algebra.

    A summand is flagged as spin when its self-adjoint part has real
    dimension >= 3 and every sampled self-adjoint a satisfies
    a o a in span{a, 1}.  This catches spin factors and the 2x2 hermitian
    model (whose self-adjoint part is a 4-dimensional spin factor) alike.
    """
    if A.summands[0][0] is not A:
        raise ValueError("pass a single summand; use spin_summands for sums")
    if len(selfadjoint_basis(A)) < 3:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a = _random(A, rng, "self_adjoint")
        sq = A._prod(a, a)
        P = np.stack([A.unit.coords, a], axis=1)
        c, *_ = np.linalg.lstsq(P, sq, rcond=None)
        if np.linalg.norm(P @ c - sq) > 1e-8 * (1.0 + np.linalg.norm(sq)):
            return False
    return True


def generator_one_at_a_time(m, x, t_small=1.0 / 16.0):
    """The generator of ``preservers._generator`` at one element, from its
    one-element parts in turn: exp(i t x), the map, the log and the branch
    test at t = min(t_small, 1/||x||), then again at t/2, then the halving
    gate.  The stacked generator must equal it row by row, and raise what
    it raises."""
    tgt = m.target
    step = t_small / max(1.0, t_small * m.source._norm(x))

    def f_at(t):
        h, ambiguous = _unitary_log(tgt, m._eval(calculus._exp_i(m.source, x, t)))
        if ambiguous:
            raise BranchAmbiguity("image spectrum touches -1; shrink t_small")
        return (1.0 / t) * h

    f1 = f_at(step)
    f2 = f_at(step / 2.0)
    eps = 10.0 * tgt.tol.abs_eps
    check = calculus._gate(tgt, (f1 - f2,), eps + 1e-9, lambda: eps * (1.0 + tgt._norm(f1)) + 1e-9)
    calculus._require(check, Inconsistent, "halving t_small moved the generator by {:.3e}")
    return f1


def oc_equivalences_one_at_a_time(A, trials, seed):
    """(residual, h, k) of each draw of the oc-equivalences check, one pair
    at a time on its stream: each exponential of h and of k by its own
    scalar-t ``_exp_i``, the 8 commutation residuals, then the 16
    associativity defects and the 16 pairs of exchange defects one by one."""
    grid = (-1.0, -0.5, 0.5, 1.0)
    exponents = grid + tuple(2.0 * t for t in grid)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        h, k = same_generator_pair_one_at_a_time(A, rng)
        eh, ek = ([calculus._exp_i(A, x, t) for t in exponents] for x in (h, k))
        pairs = [(u, w) for u, v in zip(eh[:4], ek[:4]) for w in (v, A._inv(v))]
        residuals = [calculus._operator_commutes(A, u, w).residual for u, w in pairs]
        u1, v1 = eh[3], ek[3]
        words = [u1, v1, A._prod(u1, v1), A._prod(u1, u1)]
        for x in words:
            for y in words:
                residuals.append(A._norm(A._prod(A._prod(x, y), v1) - A._prod(x, A._prod(y, v1))))
        for i in range(4):  # t = grid[i]; s = grid[j], and -2s = 2 grid[3 - j]
            for j in range(4):
                lhs = calculus._u_operator(A, eh[i], ek[4 + j])
                residuals.append(A._norm(lhs - calculus._u_operator(A, ek[j], eh[4 + i])))
                residuals.append(A._norm(lhs - A._triple(eh[i], ek[7 - j], eh[i])))
        draws.append((np.max(residuals), h, k))
    return draws


def random_one_at_a_time(A, rng, flavor="general"):
    """A ``general`` or ``self_adjoint`` draw of one element: the real and
    then the imaginary part, dim normals each."""
    g = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    return g if flavor == "general" else 0.5 * (g + A._inv(g))


def same_generator_pair_one_at_a_time(A, rng):
    """One same-generator pair (a, b): a self-adjoint a, then c1 and c2,
    b = c1 a + c2 a o a, then one normal per central basis row."""
    a = random_one_at_a_time(A, rng, "self_adjoint")
    c1, c2 = rng.standard_normal(2)
    b = float(c1) * a + float(c2) * A._prod(a, a)
    for z in A._center_rows:
        b = b + float(rng.standard_normal()) * z
    return a, b


def commuting_projection_pair_one_at_a_time(A, rng):
    """One commuting projection pair (bits_p @ P, bits_q @ P) over the m
    idempotents P of a self-adjoint draw, or None when m < 2.  The draw
    takes rank bits for p and rank for q (none when rank < 2) whatever m
    is, and uses the first m of each."""
    x = random_one_at_a_time(A, rng, "self_adjoint")
    bits = [rng.integers(0, 2, size=A.rank) for _ in range(2 if A.rank >= 2 else 0)]
    P = calculus._decompose(A, x)[1]
    m = P.shape[0]
    if m < 2:
        return None
    return bits[0][:m] @ P, bits[1][:m] @ P


def weighted_merge(A, nodes, weights, raw):
    """Clustered (unordered) nodes and idempotents of the pieces
    ``weights[j] * raw[j]``, each weighed by its mass |weights[j]|^2.

    Nodes of the heavy pieces, those of weight 1 or not almost orthogonal
    to 1 (mass above abs_eps ||1||^2), that lie within the cluster gap
    cluster_eps (1 + max |heavy node|) are merged by single linkage; a
    cluster's node is the mass-weighted mean and its idempotent the sum.
    Light pieces are dropped unless they lie that close to a heavy node,
    where their vectors mix with its vector.
    """
    mass = np.abs(weights) ** 2
    heavy = np.flatnonzero((weights == 1) | (mass > A.tol.abs_eps * np.linalg.norm(A.unit.coords) ** 2))
    gap = A.tol.cluster_eps * (1.0 + np.max(np.abs(nodes[heavy])))
    near = np.abs(nodes[heavy, None] - nodes[None, heavy]) <= gap
    for _ in range(heavy.size.bit_length()):
        near = (near.astype(float) @ near) > 0  # transitive closure: single linkage
    clusters = near[near.argmax(axis=1) == np.arange(heavy.size)]  # rows of first members
    dist = np.abs(nodes[:, None] - nodes[None, heavy])
    member = (clusters[:, dist.argmin(axis=1)] & (dist.min(axis=1) <= gap)).astype(float)
    return (member @ (mass * nodes)) / (member @ mass), member @ (weights[:, None] * raw)


class GenericModel(AlgebraHandle):
    """The generic model hooks, which hold for any model (see the module
    docstring); a subclass supplies ``_prod``, ``_inv`` and ``_norm``."""

    def _mult_matrix(self, x):
        """Matrix of y -> x o y in the algebra basis (basis products as columns)."""
        return self._prod(x, np.eye(self.dim, dtype=complex)).T

    def _eigenpieces(self, x, real_nodes):
        """Eigenvalues of L_x on C(1, x), for x self-adjoint (real nodes) or
        unitary (nodes on the circle), as (nodes, idempotents), clustered by
        ``weighted_merge``.

        The Arnoldi stop and the merge's cluster gap are absolute, so the
        route runs on xn = x / max(||x||, 1), of norm at most 1, and scales
        the nodes back.  Arnoldi from the normalised unit, on y -> xn o y
        with classical Gram-Schmidt run twice, spans C(1, xn); it stops when
        the new direction falls to rounding level (64 eps dim).  Both kinds
        of element act normally on C(1, xn), so the compression H of L_xn to
        that span goes to ``_normal_eig``, and an eigenvector v yields the
        idempotent <v, 1> v: weight <v, 1>, raw row v.  Rounding lets
        directions outside C(1, xn) into that span; their weights are at
        rounding level.
        """
        d = self.dim
        scale = max(self._norm(x), 1.0)
        xn = x / scale
        norm1 = np.linalg.norm(self.unit.coords)
        Q = np.empty((d, d), dtype=complex)  # orthonormal rows
        XQ = np.empty((d, d), dtype=complex)  # xn o q for every row q of Q
        Q[0] = self.unit.coords / norm1
        stop = 64.0 * np.finfo(float).eps * d
        for k in range(1, d + 1):
            XQ[k - 1] = self._prod(xn, Q[k - 1])
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
        nodes, V = _normal_eig(Q.conj() @ XQ.T, real_nodes)
        # <v, 1>, as 1 = norm1 q_0 and q_0 is row 0 of Q
        nodes, idems = weighted_merge(self, nodes, norm1 * V[0].conj(), V.T @ Q)
        return nodes * scale, idems

    @cached_property
    def rank(self):
        """Number of distinct eigenvalues of a generic self-adjoint element,
        from one draw of a private fixed-seed generator."""
        x = _random(self, np.random.default_rng(0), "self_adjoint")
        return int(calculus._decompose(self, x)[0].size)

    def _center(self):
        """Centre as the joint kernel of z -> [M_z, M_{e_k}] over the basis;
        the kernel vectors are split into self-adjoint parts."""
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


class Peirce2Algebra(GenericModel):
    """Peirce-2 space of a tripotent e in an ambient model, with product
    {x,e,y} and involution {e,x,e}, carried by the isometric embedding
    ``embed`` (columns spanning the range of P2(e)); ``project`` is its
    adjoint, the orthogonal projection onto that range."""

    kind = "peirce2"

    def __init__(self, ambient, e, embed):
        tag = hashlib.sha1(np.ascontiguousarray(e).tobytes()).hexdigest()[:12]
        self.ambient, self.e, self.embed, self.project = ambient, e, embed, embed.conj().T
        self._up, self._down = embed.T, embed.conj()  # x @ _up embeds, y @ _down projects
        super().__init__(embed.shape[1], ambient.tol, f"oracle-peirce2[{ambient.id};{tag}]", e @ self._down)

    def _prod(self, x, y):
        return self.ambient._triple(x @ self._up, self.e, y @ self._up) @ self._down

    def _inv(self, x):
        return self.ambient._triple(self.e, x @ self._up, self.e) @ self._down

    def _norm(self, x):
        return self.ambient._norm(x @ self._up)

    def to_descriptor(self):
        raise ValueError(f"algebra kind {self.kind!r} has no descriptor form")


def peirce2_oracle(A, x):
    """Peirce2Algebra of the tripotent with coordinates x: the carrier basis
    is the eigenvectors of the hermitian P2 whose eigenvalues clear
    abs_eps * max(||P2||, 1) in modulus."""
    w, v = np.linalg.eigh(_peirce_projections(A, x)[0])
    return Peirce2Algebra(A, x, v[:, np.abs(w) > A.tol.abs_eps * max(np.max(np.abs(w)), 1.0)])
