import numpy as np
import pytest

from jbstar.algebras import (
    AlgebraHandle,
    build_direct_sum,
    build_hermitian_matrix_algebra,
    build_spin_factor,
    involution,
    jbstar_norm,
    jordan_product,
    random_element,
)
from jbstar.calculus import center_basis
from jbstar.errors import NotTripotent, VerificationFailed
from jbstar.kernel import operator_norm
from jbstar.peirce import (
    _lqe,
    _peirce2_of,
    is_tripotent,
    kaup_identity_check,
    peirce2_algebra,
    peirce2_embed,
    peirce2_project,
    peirce_invariants_check,
    peirce_system,
    sample_tripotent,
)

import oracles


H2 = build_hermitian_matrix_algebra(2)
H3 = build_hermitian_matrix_algebra(3)
S3 = build_spin_factor(3)


def test_is_tripotent_examples():
    p = random_element(H3, 1, "projection")
    assert bool(is_tripotent(H3, p))
    u = random_element(H3, 2, "unitary")
    assert bool(is_tripotent(H3, u))
    assert not is_tripotent(H3, 2.0 * H3.unit)  # {2,2,2} = 8 != 2


def test_peirce_system_unit_and_zero():
    sys = peirce_system(H2, H2.unit)
    assert np.allclose(sys.p2, np.eye(4))
    assert np.allclose(sys.p1, 0.0)
    assert np.allclose(sys.p0, 0.0)
    sys = peirce_system(H2, H2.zero())
    assert np.allclose(sys.p0, np.eye(4))


def test_peirce_system_projection_blocks():
    # e = diag(1,0): P2 = upper-left entry, P1 = off-diagonals, P0 = lower-right
    e = H2.element(np.diag([1.0, 0.0]).ravel())
    sys = peirce_system(H2, e)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.eye(2) - p
    for b in H2.basis:
        x = oracles.to_matrix(H2, b)
        assert np.allclose((sys.p2 @ b.coords).reshape(2, 2), p @ x @ p)
        assert np.allclose((sys.p1 @ b.coords).reshape(2, 2), p @ x @ q + q @ x @ p)
        assert np.allclose((sys.p0 @ b.coords).reshape(2, 2), q @ x @ q)


def test_peirce_system_eigenprojection_oracle():
    # projections agree with eigenprojections of L(e,e) at {1, 1/2, 0},
    # computed through numpy's general eigendecomposition
    rng = np.random.default_rng(3)
    for A in (H3, S3):
        for _ in range(5):
            e = sample_tripotent(A, rng)
            sys = peirce_system(A, e)
            lee, _ = oracles.peirce_operators_by_columns(A, e)
            vals, vecs = np.linalg.eig(lee)
            vinv = np.linalg.inv(vecs)
            for target, want in ((1.0, sys.p2), (0.5, sys.p1), (0.0, sys.p0)):
                idx = [j for j, v in enumerate(vals) if abs(v - target) < 1e-6]
                proj = sum(
                    (np.outer(vecs[:, j], vinv[j, :]) for j in idx),
                    start=np.zeros((A.dim, A.dim), dtype=complex),
                )
                assert operator_norm(proj - want) <= 1e-7


def test_unitary_peirce2_is_identity():
    for A in (H2, S3):
        u = random_element(A, 4, "unitary")
        sys = peirce_system(A, u)
        assert operator_norm(sys.p2 - np.eye(A.dim)) <= 1e-8
        assert 0.0 <= sys.residual <= 1e-8


def test_peirce2_algebra_unit_tripotent():
    sub = peirce2_algebra(H2, H2.unit)
    assert sub.dim == H2.dim
    a = random_element(sub, 5)
    b = random_element(sub, 6)
    got = jordan_product(sub, a, b)
    # carrier is an isometric copy: products agree through the embedding
    ea, eb = peirce2_embed(sub, a), peirce2_embed(sub, b)
    want = peirce2_project(sub, jordan_product(H2, ea, eb))
    assert jbstar_norm(sub, got - want) <= 1e-9 * (1 + jbstar_norm(sub, got))


def test_peirce2_algebra_minus_unit():
    # e = -1: same carrier, product (a,b) -> -(a o b), same involution
    sub = peirce2_algebra(H2, -1.0 * H2.unit)
    assert sub.dim == H2.dim
    a = random_element(sub, 7)
    b = random_element(sub, 8)
    ea, eb = peirce2_embed(sub, a), peirce2_embed(sub, b)
    got = peirce2_embed(sub, jordan_product(sub, a, b))
    want = -1.0 * jordan_product(H2, ea, eb)
    assert jbstar_norm(H2, got - want) <= 1e-9 * (1 + jbstar_norm(H2, want))
    gi = peirce2_embed(sub, involution(sub, a))
    assert jbstar_norm(H2, gi - involution(H2, ea)) <= 1e-9


def test_peirce2_projection_rank_one():
    sub = peirce2_algebra(H2, H2.element(np.diag([1.0, 0.0]).ravel()))
    assert sub.dim == 1


def test_peirce2_central_symmetry_isometric():
    HH = build_direct_sum([H3, H3])
    p_coords = np.concatenate([np.zeros(9), np.eye(3).ravel()])
    s = HH.unit - 2.0 * HH.element(p_coords)
    assert len(center_basis(HH)) == 2
    sub = peirce2_algebra(HH, s)
    assert sub.dim == HH.dim
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = random_element(sub, int(rng.integers(1 << 30)))
        assert abs(jbstar_norm(sub, a) - jbstar_norm(HH, peirce2_embed(sub, a))) <= 1e-12


def test_not_tripotent_error():
    with pytest.raises(NotTripotent):
        peirce_system(H2, 2.0 * H2.unit)


def test_peirce_invariants_check():
    for A in (H2, H3, S3):
        rep = peirce_invariants_check(A, trials=5, seed=10)
        assert rep.passed, rep.max_residual


def test_kaup_identity_examples():
    rep = kaup_identity_check(H2, H2.unit, trials=20, seed=11)
    assert rep.passed and rep.max_residual <= 1e-12
    e = H3.element(np.diag([1.0, 1.0, 0.0]).ravel())
    assert kaup_identity_check(H3, e, trials=20, seed=12).passed
    assert kaup_identity_check(S3, S3.unit, trials=20, seed=13).passed


H4 = build_hermitian_matrix_algebra(4)
LQE_MODELS = [build_hermitian_matrix_algebra(6), build_hermitian_matrix_algebra(12), build_spin_factor(8)]
LQE_MODELS += [build_direct_sum([H3, build_spin_factor(5)]), build_direct_sum([H2, H3])]
LQE_MODELS.append(peirce2_algebra(H4, H4.element(np.diag([1.0, 1.0, 0.0, 0.0]).ravel())))


def _non_normal_tripotent(A, rng):
    """A tripotent with [M_e, M_{e*}] != 0: u E_11 on each M_n summand (u a
    random unitary), (e_1 + i e_2)/2 on each spin summand, and E_12 of the
    corner on the Peirce-2 algebra of diag(1, 1, 0, 0) in M_4."""
    if A.ambient is not None:
        return peirce2_project(A, A.ambient.element(np.outer(np.eye(4)[0], np.eye(4)[1]).ravel()))
    parts = []
    for p, _ in A.summands:
        if p.kind == "hermitian_matrix":
            z = rng.standard_normal((p.n, p.n)) + 1j * rng.standard_normal((p.n, p.n))
            u = np.linalg.qr(z)[0]
            parts.append(np.outer(u[:, 0], np.eye(p.n)[0]).ravel())
        else:
            parts.append(0.5 * (np.eye(p.dim)[1] + 1j * np.eye(p.dim)[2]))
    return A.element(np.concatenate(parts))


@pytest.mark.parametrize("A", LQE_MODELS, ids=lambda A: A.id)
def test_closed_form_peirce_operators_match_column_loop(A):
    # L(e,e) from multiplication matrices and Q(e)^2 = U_e U_{e*} against
    # the triple product applied to one basis vector at a time
    rng = np.random.default_rng(14)
    tripotents = [sample_tripotent(A, rng) for _ in range(3)]
    for e in [*tripotents, _non_normal_tripotent(A, rng)]:
        assert is_tripotent(A, e)
        lee, q2 = _lqe(A, e.coords)
        want_lee, want_q2 = oracles.peirce_operators_by_columns(A, e)
        assert operator_norm(lee - want_lee) <= 1e-13
        assert operator_norm(q2 - want_q2) <= 1e-13


BOUND_MODELS = [build_hermitian_matrix_algebra(n) for n in range(1, 13)]
BOUND_MODELS += [build_spin_factor(n) for n in (3, 6, 12)]
BOUND_MODELS += [build_direct_sum([H3, build_spin_factor(5)]), build_direct_sum([H3, H4])]
BOUND_MODELS.append(LQE_MODELS[-1])  # Peirce-2 algebra of diag(1, 1, 0, 0) in M_4


def _split_tripotents(A, seed, count=4):
    """sample_tripotent draws whose P1 and P0 are both nonzero (sign
    combinations that leave some spectral idempotent out); none on M_1."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(60):
        e = sample_tripotent(A, rng)
        sys = peirce_system(A, e)
        if np.linalg.norm(sys.p1) > 0.5 and np.linalg.norm(sys.p0) > 0.5:
            found.append(e)
        if len(found) == count:
            break
    assert len(found) == count or A.dim == 1, A.id
    return found


@pytest.mark.parametrize("A", BOUND_MODELS, ids=lambda A: A.id)
def test_frobenius_residual_bounds_the_2norm_oracle(A):
    # ||D||_2 <= ||D||_F <= sqrt(rank D) ||D||_2 on every matrix defect, so the
    # reported residual lies between the 2-norm residual and sqrt(dim) times it;
    # the oracle checks orthogonality in all six orders, the package once a pair
    tripotents = [random_element(A, seed, flavor) for seed in (15, 16) for flavor in ("projection", "unitary")]
    tripotents += _split_tripotents(A, 21)
    for e in (e for e in tripotents if np.any(e.coords)):
        got = peirce_system(A, e).residual
        want = oracles.peirce_identity_residual_2norm(A, e)
        assert want <= got <= np.sqrt(A.dim) * want + 1e-15
        # ||L(e,e)||_2 = 1 on a tripotent: the threshold 1e-7 (1 + ||L||^2) is 2e-7
        lee, _ = _lqe(A, e.coords)
        assert abs(operator_norm(lee) - 1.0) <= 1e-12


GUARD_MODELS = [build_hermitian_matrix_algebra(12), build_spin_factor(12), build_direct_sum([H3, build_spin_factor(5)])]
GUARD_MODELS.append(peirce2_algebra(H4, random_element(H4, 17, "unitary")))


@pytest.mark.parametrize("A", GUARD_MODELS, ids=lambda A: A.id)
def test_peirce_system_takes_no_operator_svd(A, monkeypatch):
    # The model norm of M_n is an n x n SVD; no SVD of an operator matrix
    # (dim x dim) remains.  The Peirce-2 handle is built before the guard.
    import jbstar.kernel
    import jbstar.peirce

    svd = np.linalg.svd

    def guarded_svd(a, *args, **kwargs):
        if max(np.shape(a)[-2:]) >= A.dim:
            raise AssertionError(f"SVD of a {np.shape(a)} matrix")
        return svd(a, *args, **kwargs)

    def no_operator_norm(m):
        raise AssertionError("kernel.operator_norm called")

    assert not hasattr(jbstar.peirce, "operator_norm")
    rng = np.random.default_rng(18)
    tripotents = [sample_tripotent(A, rng) for _ in range(3)] + [random_element(A, 19, "projection")]
    monkeypatch.setattr(np.linalg, "svd", guarded_svd)
    monkeypatch.setattr(jbstar.kernel, "operator_norm", no_operator_norm)
    for e in tripotents:
        assert peirce_system(A, e).residual <= 1e-12


HHH = build_direct_sum([H2, H3, H4])
MATRIX_LQE_MODELS = [build_hermitian_matrix_algebra(n) for n in (1, 2, 12)]
MATRIX_LQE_MODELS += [HHH, LQE_MODELS[-1], GUARD_MODELS[-1], peirce2_algebra(HHH, random_element(HHH, 29, "projection"))]


@pytest.mark.parametrize("A", MATRIX_LQE_MODELS, ids=lambda A: A.id)
def test_matrix_peirce_operators_match_the_generic_form(A):
    # L(e,e) and Q(e)^2 from two n x n products on each M_n summand against
    # the generic products of whole multiplication and U-operator matrices,
    # and against the triple product one basis column at a time; the
    # non-normal partial isometry needs an ambient M_4 on a Peirce-2 model
    rng = np.random.default_rng(30)
    tripotents = [sample_tripotent(A, rng) for _ in range(3)]
    if A.ambient in (None, H4):
        tripotents.append(_non_normal_tripotent(A, rng))
    for e in tripotents:
        assert is_tripotent(A, e)
        lee, q2 = A._lqe(e.coords)
        for want_lee, want_q2 in (AlgebraHandle._lqe(A, e.coords), oracles.peirce_operators_by_columns(A, e)):
            assert operator_norm(lee - want_lee) <= 1e-13
            assert operator_norm(q2 - want_q2) <= 1e-13


MATRIX_GUARD_MODELS = [A for A in GUARD_MODELS if any(p.kind == "hermitian_matrix" for p, _ in A.summands)]


@pytest.mark.parametrize("A", MATRIX_GUARD_MODELS, ids=lambda A: A.id)
def test_peirce_system_forms_no_operator_matrix_of_a_matrix_summand(A, monkeypatch):
    # on an M_n summand L(e,e) and Q(e)^2 come from n x n products: neither
    # its multiplication nor its U-operator matrix is formed
    def refused(name):
        def hook(*args):
            raise AssertionError(f"{name} of an M_n summand called")

        return hook

    rng = np.random.default_rng(18)
    tripotents = [sample_tripotent(A, rng) for _ in range(3)] + [random_element(A, 19, "projection")]
    for p in (p for p, _ in A.summands if p.kind == "hermitian_matrix"):
        for name in ("_mult_matrix", "_u_matrix"):
            monkeypatch.setattr(p, name, refused(name))
    for e in tripotents:
        assert peirce_system(A, e).residual <= 1e-12


def _with_lqe_defect(monkeypatch, size, slot=1):
    """Patch peirce._lqe so that L(e,e) (slot 0) or Q(e)^2 (slot 1) carries a
    rank-one defect of 2-norm size."""
    import jbstar.peirce

    lqe = jbstar.peirce._lqe

    def perturbed(A, x):
        mats = list(lqe(A, x))
        u = np.zeros(A.dim)
        u[0] = 1.0
        mats[slot] = mats[slot] + size * np.outer(u, u[::-1])
        return tuple(mats)

    monkeypatch.setattr(jbstar.peirce, "_lqe", perturbed)


def test_q2_defect_fails_the_peirce_check(monkeypatch):
    A = build_hermitian_matrix_algebra(12)
    e = random_element(A, 20, "projection")
    _with_lqe_defect(monkeypatch, 1e-6)
    with pytest.raises(VerificationFailed):
        peirce_system(A, e)
    monkeypatch.undo()
    _with_lqe_defect(monkeypatch, 1e-12)
    assert peirce_system(A, e).residual <= 2e-12


@pytest.mark.parametrize("A", [build_hermitian_matrix_algebra(12), H3, build_spin_factor(5)], ids=lambda A: A.id)
def test_lee_defect_fails_the_peirce_check(A, monkeypatch):
    # P2, P1 and P0 all come from the perturbed L(e,e), so only the
    # identities between them (and P2 = Q(e)^2) can see the defect
    e = random_element(A, 20, "projection")
    assert np.linalg.norm(peirce_system(A, e).p1) > 0.5  # neither 0 nor the unit
    _with_lqe_defect(monkeypatch, 1e-6, slot=0)
    with pytest.raises(VerificationFailed):
        peirce_system(A, e)
    monkeypatch.undo()
    _with_lqe_defect(monkeypatch, 1e-12, slot=0)
    assert peirce_system(A, e).residual <= 2e-12


@pytest.mark.parametrize("A", BOUND_MODELS, ids=lambda A: A.id)
def test_peirce_projections_commute(A):
    # the P's are polynomials in one L(e,e), so P_i P_j = P_j P_i up to
    # rounding: checking one order of each pair loses no identity
    tripotents = [random_element(A, 15, "projection")] + _split_tripotents(A, 22)
    for e in tripotents:
        sys = peirce_system(A, e)
        projs = (sys.p2, sys.p1, sys.p0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(projs[i] @ projs[j] - projs[j] @ projs[i]) <= 1e-13


@pytest.mark.parametrize("A", GUARD_MODELS, ids=lambda A: A.id)
def test_peirce_system_forms_seven_products_past_lqe(A, monkeypatch):
    # one L(e,e)^2, three idempotency and three orthogonality products of
    # operator matrices; the three in _lqe make ten per call
    import jbstar.peirce

    count = [0]

    class Counted(np.ndarray):
        def __matmul__(self, other):
            if np.ndim(self) == np.ndim(other) == 2:
                count[0] += 1
            return np.ndarray.__matmul__(self, other)

    lqe = jbstar.peirce._lqe
    monkeypatch.setattr(jbstar.peirce, "_lqe", lambda A, x: tuple(m.view(Counted) for m in lqe(A, x)))
    peirce_system(A, random_element(A, 23, "projection"))
    assert count[0] == 7


HERMITIAN_MODELS = [build_hermitian_matrix_algebra(n) for n in (3, 12)]
HERMITIAN_MODELS += [build_spin_factor(n) for n in (4, 12)]
HERMITIAN_MODELS += [build_direct_sum([H3, build_spin_factor(5)]), build_direct_sum([H2, H3])]
HERMITIAN_MODELS.append(LQE_MODELS[-1])  # Peirce-2 algebra of diag(1, 1, 0, 0) in M_4


@pytest.mark.parametrize("A", HERMITIAN_MODELS, ids=lambda A: A.id)
def test_p2_is_hermitian_in_the_coordinates(A):
    # P2 is the orthogonal projection onto the range of the embedding; the
    # embedding is isometric in the coordinates on M_n summands, not on a
    # minimal tripotent of a spin factor (|e|^2 = 1/2)
    tripotents = [random_element(A, 24, flavor) for flavor in ("projection", "unitary")]
    tripotents += _split_tripotents(A, 25, count=2)
    for e in tripotents:
        p2 = peirce_system(A, e).p2
        assert np.linalg.norm(p2 - p2.conj().T) <= 1e-13
        sub = peirce2_algebra(A, e)
        assert sub.dim == round(np.trace(p2).real)
        assert np.linalg.norm(sub.embed @ np.linalg.pinv(sub.embed) - p2) <= 1e-12
        if all(p.kind == "hermitian_matrix" for p, _ in A.summands):
            assert np.linalg.norm(sub.embed @ sub.embed.conj().T - p2) <= 1e-12


def test_non_hermitian_p2_fails_the_peirce2_check():
    A = build_hermitian_matrix_algebra(12)
    x = random_element(A, 20, "projection").coords
    p2 = peirce_system(A, A.element(x)).p2
    defect = np.zeros_like(p2)
    defect[0, -1] = 1e-6
    with pytest.raises(VerificationFailed, match="hermitian"):
        _peirce2_of(A, x, p2 + defect)
    assert _peirce2_of(A, x, p2 + 1e-3 * defect).dim == peirce2_algebra(A, A.element(x)).dim


@pytest.mark.parametrize("A", [H3, build_spin_factor(4), build_direct_sum([H2, S3])], ids=lambda A: A.id)
def test_a_broken_peirce2_hook_fails_the_isomorphism_check(A, monkeypatch):
    # an embedding off by a phase keeps range(P2) but not the product, and
    # a model of the wrong size cannot match the trace of P2
    e = random_element(A, 26, "unitary")
    model, embed, project = A._peirce2(e.coords)
    hooks = [
        (lambda x: (model, 1j * embed, -1j * project), "isomorphism"),
        (lambda x: (build_hermitian_matrix_algebra(1), embed[:, :1], project[:1]), "trace"),
    ]
    for hook, match in hooks:
        monkeypatch.setattr(A, "_peirce2", hook)
        with pytest.raises(VerificationFailed, match=match):
            peirce2_algebra(A, e)


def test_zero_tripotent_keeps_the_threshold_1e7(monkeypatch):
    # L(0,0) = 0, so 1e-7 (1 + ||L||^2) is 1e-7 there, not 2e-7
    _with_lqe_defect(monkeypatch, 1.5e-7)
    with pytest.raises(VerificationFailed):
        peirce_system(H3, H3.zero())
    e = H3.element(np.diag([1.0, 0.0, 0.0]).ravel())
    assert peirce_system(H3, e).residual <= 2e-7
