"""The benchmark's three workloads: their operations, inputs and checks.

An operation (``Op``) is one timed call into jbstar's public API plus a
check of its output that is computed apart from jbstar (``oracles``) or is
the property the call's theorem asserts.  A workload is a fixed list of
operations built from the seed; every round of a run calls each of them
once, so rounds are identical and the share of failed operations is the
same in every run.

The jbstar modules are passed in as a namespace and looked up at call
time, so the traced run sees the wrappers it binds into them.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


class Mismatch(Exception):
    """An output disagreed with the benchmark's own check."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # inputs fixed whatever the seed: such an operation may fail, because of
    # a fault in jbstar, and then fails in every run alike (counted as failed)
    pinned: bool = False


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _sub_seed(seed: int, label: str) -> int:
    """Per-operation seed, stable when other operations are added or removed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(1)[0] % (2**31 - 1))


def _hm(n: int) -> dict:
    return {"kind": "hermitian_matrix", "n": n}


def _spin(n: int) -> dict:
    return {"kind": "spin", "n": n}


def _sum(*parts: dict) -> dict:
    return {"kind": "direct_sum", "parts": list(parts)}


# -- CLI suites ---------------------------------------------------------------

# (suite, algebra, trials).  Trials are the CLI's default of 200 where a
# call at 200 trials takes at most about 0.15 s on a 2-core x86 host with
# one BLAS thread; elsewhere they are cut to the most trials that keep the
# call near 0.15 s, or to 1 where a single trial already takes longer.  So
# the counts follow call cost, not user traffic: a round of every operation
# must repeat several times in one run, and a mix of 5 ms and 5 s calls has
# no meaningful median.  bench/README.md lists the measured time of each
# call.
SUITE_ALGEBRAS = {"H3": _hm(3), "S4": _spin(4), "H3+S3": _sum(_hm(3), _spin(3))}
SUITE_TABLE = [
    ("axioms", "H3", 200),
    ("oc-equivalences", "H3", 5),
    ("unitary-piecewise", "H3", 30),
    ("circle-inequality", "H3", 120),
    ("peirce", "H3", 200),
    ("kaup", "H3", 150),
    ("factor-dichotomy", "H3", 40),
    ("structure-recovery", "H3", 15),
    ("linearity", "H3", 15),
    ("symmetric-difference", "H3", 100),
    ("axioms", "S4", 200),
    ("oc-equivalences", "S4", 10),
    ("unitary-piecewise", "S4", 60),
    ("circle-inequality", "S4", 150),
    ("peirce", "S4", 200),
    ("kaup", "S4", 100),
    ("preserver", "S4", 15),
    ("structure-recovery", "S4", 80),
    ("counterexample", "S4", 80),
    ("symmetric-difference", "S4", 120),
    ("axioms", "H3+S3", 150),
    ("oc-equivalences", "H3+S3", 2),
    ("unitary-piecewise", "H3+S3", 15),
    ("circle-inequality", "H3+S3", 50),
    ("kaup", "H3+S3", 50),
    ("structure-recovery", "H3+S3", 8),
]
# Operations whose outcome depends on the draw: at some seeds they fail
# because of faults in jbstar (CHANGES.md).  They run at the CLI's default
# seed, whatever --seed is, so each of them passes or fails in every run
# alike, and a fix shows as fewer failures.
PINNED_SEED = 42
SUITE_PINNED = [
    ("preserver", "H3", 10),
    ("preserver", "H3+S3", 10),  # NotSelfAdjoint from unitary_log -> exp_i
    ("peirce", "H3+S3", 200),  # NotTripotent from sample_tripotent
    ("symmetric-difference", "H3+S3", 40),
]

# Sampler-driven suites on the larger algebras, where the centre
# computation and Peirce-2 products dominate.  Same trial rule as above.
LARGE_ALGEBRAS = {
    "M5": _hm(5),
    "M6": _hm(6),
    "M2+M3": _sum(_hm(2), _hm(3)),
    "M3+S5": _sum(_hm(3), _spin(5)),
}
LARGE_TABLE = [
    ("structure-recovery", "M5", 1),
    ("structure-recovery", "M6", 1),
    ("structure-recovery", "M2+M3", 1),
    ("structure-recovery", "M3+S5", 1),
    ("unitary-piecewise", "M5", 6),
    ("unitary-piecewise", "M6", 2),
    ("unitary-piecewise", "M2+M3", 15),
    ("unitary-piecewise", "M3+S5", 12),
    ("kaup", "M5", 80),
    ("kaup", "M6", 60),
    ("kaup", "M2+M3", 60),
    ("symmetric-difference", "M5", 60),
    ("symmetric-difference", "M6", 60),
]
LARGE_PINNED = [
    ("kaup", "M3+S5", 40),
    ("symmetric-difference", "M2+M3", 50),
    ("symmetric-difference", "M3+S5", 60),
]

_NEEDS_MAP = {"preserver", "factor-dichotomy", "structure-recovery", "linearity"}


def _map_for(desc: dict) -> str:
    """transpose when every summand is a matrix algebra, star otherwise."""
    kinds = {kind for kind, _ in oracles.flatten_parts(desc)}
    return "transpose" if kinds == {"hermitian_matrix"} else "star"


def _write_descriptors(workdir: Path, algebras: dict) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in list(algebras.items()) + [
        ("map-transpose", {"kind": "transpose"}),
        ("map-star", {"kind": "star"}),
    ]:
        path = workdir / f"{name}.json"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)  # a reader never sees a half-written file
        paths[name] = str(path)
    return paths


def _suite_check(suite: str, desc: dict) -> Callable[[object], None]:
    dim = oracles.model_dim(desc)

    def check(result) -> None:
        doc, status = result
        _expect(status == 0 and doc["verdict"] == "pass", f"verdict {doc['verdict']}")
        _expect(doc["checks"], "report has no checks")
        for chk in doc["checks"]:
            _expect(chk["passed"] != chk["expected_fail"], f"check {chk['name']} passed={chk['passed']}")
        if suite == "structure-recovery":
            # transpose and star are unital bijections, so Phi(1) = 1 and the
            # Peirce-2 space of Phi(1) is the whole algebra
            got = doc["checks"][0]["details"]["peirce2_dim"]
            _expect(got == dim, f"peirce2_dim {got} != dim {dim}")
        if suite == "counterexample":
            gap = doc["checks"][1]["details"]["witness_gap"]
            _expect(gap >= 0.05, f"witness_gap {gap} < 0.05")

    return check


def _suite_op(mods, paths, algebras, suite, alg, trials, op_seed, pinned=False) -> Op:
    desc = algebras[alg]
    cfg = mods.cli.RunConfig(
        command=suite,
        algebra_path=paths[alg],
        map_path=paths["map-" + _map_for(desc)] if suite in _NEEDS_MAP else None,
        trials=trials,
        seed=op_seed,
    )
    return Op(suite, f"{suite}[{alg}]", lambda: mods.cli.run(cfg), _suite_check(suite, desc), pinned)


def _build_suite_workload(mods, algebras, table, pinned, seed, workdir):
    """Operations for every row of the table, plus warm-ups: one call of each
    suite on its smallest algebra, with one trial and a fixed seed."""
    paths = _write_descriptors(workdir, algebras)
    rows = [(suite, alg, trials, _sub_seed(seed, f"{suite}[{alg}]")) for suite, alg, trials in table]
    ops = [_suite_op(mods, paths, algebras, *row) for row in rows]
    ops += [_suite_op(mods, paths, algebras, suite, alg, trials, PINNED_SEED, True) for suite, alg, trials in pinned]
    smallest: dict[str, str] = {}
    for suite, alg, _, _ in rows:
        best = smallest.get(suite)
        if best is None or oracles.model_dim(algebras[alg]) < oracles.model_dim(algebras[best]):
            smallest[suite] = alg
    warmups = [_suite_op(mods, paths, algebras, suite, alg, 1, 0) for suite, alg in smallest.items()]
    return ops, warmups


def build_suites(mods, seed: int, workdir: Path):
    return _build_suite_workload(mods, SUITE_ALGEBRAS, SUITE_TABLE, SUITE_PINNED, seed, workdir)


def build_structure_large(mods, seed: int, workdir: Path):
    return _build_suite_workload(mods, LARGE_ALGEBRAS, LARGE_TABLE, LARGE_PINNED, seed, workdir)


# -- library primitives -------------------------------------------------------

PRIMITIVE_ALGEBRAS = (
    [(f"M{n}", _hm(n)) for n in range(2, 13)]
    + [("S3", _spin(3)), ("S6", _spin(6)), ("S12", _spin(12))]
    + [
        ("M2+S4", _sum(_hm(2), _spin(4))),
        ("M3+M4", _sum(_hm(3), _hm(4))),
        ("M4+S5+M2", _sum(_hm(4), _spin(5), _hm(2))),
    ]
)


# The clustered pair is CLUSTER_GAP apart.  Up to SEEDED_CLUSTER_MAX
# eigenvalues spectral_decomposition separates it at every seed tried;
# beyond, whether it does depends on the draw (CHANGES.md), so there the
# clustered input is drawn from PINNED_SEED whatever --seed is.
CLUSTER_GAP = 1e-6
SEEDED_CLUSTER_MAX = 5


# Tolerances of the independent checks, relative to 1 + ||a||; the largest
# errors seen over 400 seeds were 7e-8 (eigenvalues, reconstruction, exp_i).
# An eigenvalue must also lie within a quarter of the gap to its nearest
# neighbour, so two clustered eigenvalues cannot pass as one.
EIG_TOL = 1e-7
RECON_TOL = 1e-6
EXP_TOL = 1e-6
ALG_TOL = 1e-9


def _distinct_values(rng, count: int) -> np.ndarray:
    """count eigenvalues with random signs and distinct magnitudes in
    [0.25, 2.25], one per cell of width 2/count and at least 0.2 cells from
    each cell edge: well apart from each other and from 0."""
    w = 2.0 / count
    mags = 0.25 + w * (np.arange(count) + 0.2 + 0.6 * rng.random(count))
    return rng.permutation(mags * rng.choice([-1.0, 1.0], size=count))


def _repeated_values(rng, count: int) -> np.ndarray:
    """About count/3 distinct values, each repeated (shortens the minimal
    polynomial)."""
    m = max(2, -(-count // 3))
    base = _distinct_values(rng, m)
    return rng.permutation(np.resize(base, count))


def _clustered_values(rng, count: int, gap: float) -> np.ndarray:
    """Distinct values, two of which are only gap apart."""
    vals = np.sort(_distinct_values(rng, count))
    vals[1] = vals[0] + gap
    return rng.permutation(vals)


def _prim_ops(mods, name: str, desc: dict, seed: int) -> list[Op]:
    rng = np.random.default_rng(_sub_seed(seed, name))
    rep = oracles.MatrixRep(desc)
    A = mods.algebras.algebra_from_descriptor(desc)
    calc, unit, peirce = mods.calculus, mods.unitary, mods.peirce
    total = sum(rep.slots)
    frames = oracles.random_frames(rep, rng)

    def element(values, fr=frames):
        m = oracles.selfadjoint_matrix(rep, fr, values)
        return m, A.element(rep.coords(m))

    # (values, frames, generator of the remaining inputs)
    if total > SEEDED_CLUSTER_MAX:
        fixed = np.random.default_rng(_sub_seed(PINNED_SEED, f"{name},clustered"))
        clustered = (_clustered_values(fixed, total, CLUSTER_GAP), oracles.random_frames(rep, fixed), fixed)
    else:
        clustered = (_clustered_values(rng, total, CLUSTER_GAP), frames, rng)
    spectra = {
        "distinct": (_distinct_values(rng, total), frames, rng),
        "repeated": (_repeated_values(rng, total), frames, rng),
        "clustered": clustered,
    }
    ops: list[Op] = []

    for spec, (values, fr, gen) in spectra.items():
        m, a = element(values, fr)
        pinned = gen is not rng
        scale = 1.0 + np.linalg.norm(m, 2)
        expected = np.unique(values)
        oracle = oracles.merged_eigenvalues(m, 1e-9 * scale)
        t = float(gen.uniform(0.5, 1.5))

        def check_dec(dec, m=m, expected=expected, oracle=oracle, scale=scale):
            got = np.array(dec.eigenvalues)
            _expect(got.shape == expected.shape, f"{got.size} eigenvalues, expected {expected.size}")
            _expect(oracle.shape == expected.shape, "eigvalsh disagrees with the construction")
            err = max(np.max(np.abs(got - expected)), np.max(np.abs(got - oracle)))
            tol = min(EIG_TOL * scale, np.min(np.diff(expected)) / 4)
            _expect(err <= tol, f"eigenvalue error {err:.3e} above {tol:.3e}")
            recon = sum(lam * rep.matrix(e.coords) for lam, e in dec.pairs)
            r = np.linalg.norm(recon - m, 2)
            _expect(r <= RECON_TOL * scale, f"reconstruction residual {r:.3e}")

        def check_exp(u, m=m, t=t, scale=scale):
            r = np.linalg.norm(rep.matrix(u.coords) - oracles.expm_hermitian(m, t), 2)
            _expect(r <= EXP_TOL * scale, f"exp_i differs from eigh exponential by {r:.3e}")

        ops.append(
            Op("spectral_decomposition", f"spectral_decomposition[{name},{spec}]",
               lambda a=a: calc.spectral_decomposition(A, a), check_dec, pinned)
        )
        ops.append(Op("exp_i", f"exp_i[{name},{spec}]", lambda a=a, t=t: calc.exp_i(A, a, t), check_exp, pinned))

    # operator commutativity: same eigenframes (commuting) vs fresh frames
    ma, a = element(spectra["distinct"][0])
    for label, fr in (("commuting", frames), ("noncommuting", oracles.random_frames(rep, rng))):
        mb, b = element(_distinct_values(rng, total), fr)
        commuting = label == "commuting"
        matrix_only = all(kind == "hermitian_matrix" for kind, _ in rep.parts)

        def check_oc(chk, ma=ma, mb=mb, commuting=commuting, matrix_only=matrix_only):
            _expect(chk.ok == commuting, f"operator_commutes said {chk.ok}")
            if matrix_only:
                # in a special Jordan algebra [L_a, L_b] x = [[a, b], x] / 4, the
                # norm of ad_c for skew-hermitian c is its spectral diameter, and
                # a direct sum takes the largest over its summands
                spread = max(
                    np.ptp(np.linalg.eigvalsh(-1j * (ma[s, s] @ mb[s, s] - mb[s, s] @ ma[s, s])))
                    for s in rep.block_slices
                )
                _expect(abs(chk.residual - spread / 4) <= ALG_TOL * (1 + spread),
                        f"residual {chk.residual:.3e} vs |[a,b]| bound {spread / 4:.3e}")

        ops.append(
            Op("operator_commutes", f"operator_commutes[{name},{label}]",
               lambda a=a, b=b: calc.operator_commutes(A, a, b), check_oc)
        )

    # U-operator matrix applied to a general element vs a x a
    x = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    mx = rep.matrix(x)

    def check_u(U, ma=ma, mx=mx):
        got = rep.matrix(U @ x)
        want = ma @ mx @ ma
        r = np.linalg.norm(got - want, 2)
        _expect(r <= ALG_TOL * (1 + np.linalg.norm(want, 2)), f"U_a x differs from a x a by {r:.3e}")

    ops.append(Op("u_operator_matrix", f"u_operator_matrix[{name}]",
                  lambda a=a: calc.u_operator_matrix(A, a), check_u))

    # invertibility: the distinct spectrum avoids 0; the singular one has 0
    singular = spectra["distinct"][0].copy()
    singular[0] = 0.0
    _, s = element(singular)

    def check_inv(b, ma=ma):
        _expect(b is not None, "invertible element reported singular")
        want = np.linalg.inv(ma)
        r = np.linalg.norm(rep.matrix(b.coords) - want, 2)
        _expect(r <= 1e-8 * np.linalg.norm(want, 2), f"inverse differs by {r:.3e}")

    def check_sing(b):
        _expect(b is None, "singular element reported invertible")

    ops.append(Op("is_invertible", f"is_invertible[{name},invertible]", lambda a=a: calc.is_invertible(A, a), check_inv))
    ops.append(Op("is_invertible", f"is_invertible[{name},singular]", lambda s=s: calc.is_invertible(A, s), check_sing))

    # Peirce projections of a projection tripotent of seeded rank
    ranks = [int(rng.integers(1, n)) if kind == "hermitian_matrix" else 1 for kind, n in rep.parts]
    pvals: list[float] = []
    for (kind, n), r in zip(rep.parts, ranks):
        pvals += [1.0] * r + [0.0] * (n - r) if kind == "hermitian_matrix" else [0.0, 1.0]
    _, e = element(pvals)
    want = oracles.peirce_ranks(rep, ranks)

    def check_peirce(sys_, want=want):
        got = tuple(int(np.linalg.matrix_rank(p, tol=1e-6)) for p in (sys_.p2, sys_.p1, sys_.p0))
        _expect(got == want, f"Peirce ranks {got}, expected {want}")

    ops.append(Op("peirce_system", f"peirce_system[{name}]", lambda e=e: peirce.peirce_system(A, e), check_peirce))

    # principal logarithm of exp(i a), spectrum of a inside (-pi, pi)
    u = A.element(rep.coords(oracles.expm_hermitian(ma, 1.0)))

    def check_log(lg, ma=ma):
        r = np.linalg.norm(rep.matrix(lg.h.coords) - ma, 2)
        _expect(r <= EXP_TOL * (1 + np.linalg.norm(ma, 2)), f"log differs from the generator by {r:.3e}")

    ops.append(Op("unitary_log", f"unitary_log[{name}]", lambda u=u: unit.unitary_log(A, u), check_log))
    return ops


def build_primitives(mods, seed: int, workdir: Path):
    ops = []
    for name, desc in PRIMITIVE_ALGEBRAS:
        ops += _prim_ops(mods, name, desc, seed)
    first = PRIMITIVE_ALGEBRAS[0][0]
    return ops, [op for op in ops if f"[{first}" in op.label]


WORKLOADS = {
    "suites": build_suites,
    "structure-large": build_structure_large,
    "primitives": build_primitives,
}
