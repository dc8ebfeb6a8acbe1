"""Property suites: every structural fact the library relies on, executable.

Each suite checks one family of invariants (route equivalence, homogeneity,
witness verification, and so on) and is one trial: ``suite(rng, i)`` draws
trial ``i``'s instance from the generator and returns a failure record, or
None where the trial passes or is skipped. ``run_trials`` runs the trials of
one suite on one generator and adds ``"trial": i`` to each record.
``run_selftest`` gives each suite of ``SUITES`` a child generator keyed by
its registry position and reports one pass/fail row per suite together with
serialized counterexamples.

Suites whose single trial has cubic cost cap the effective trial count; the
cap is visible in the result table. The cheap invariant suites always honor
the requested count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import sampling as smp
from .core import Tolerances, hermitian_eig, null_basis, psd_decompose, sqrt_psd
from .operators import (
    bind_operator,
    is_a_isometry,
    norm_attainment_set,
    operator_norm_a,
    tilde_reduce,
)
from .orthogonality import (
    attainment_subset,
    op_orth_attainment_real,
    op_orth_direct,
    op_orth_pointwise,
    op_orth_theta_sweep_complex,
)
from .symmetry import (
    ConstructionTag,
    SymmetryKind,
    classify_left,
    classify_right,
    left_parameters,
)
from .vectors import (
    ConeTag,
    cone_membership,
    directional_derivative,
    inner_a,
    is_a_null,
    is_a_orthogonal,
    is_chmielinski_orthogonal_vec,
    is_eps_orthogonal,
    norm_a,
    orthogonal_decomposition,
)

EPS_POOL = (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9)


def _pick_eps(rng: np.random.Generator) -> float:
    if rng.random() < 0.5:
        return float(rng.choice(EPS_POOL))
    return float(rng.uniform(0.0, 0.99))


def _fail(detail: str, **values: float) -> dict:
    return {"detail": detail, **{k: float(v) for k, v in values.items()}}


# ----------------------------- suites ---------------------------------------


def _suite_core_spectral(rng: np.random.Generator, i: int) -> Optional[dict]:
    n = int(rng.integers(2, 9))
    complex_field = bool(rng.random() < 0.5)
    h = smp.random_hermitian(rng, n, complex_field)
    w, v = hermitian_eig(h)
    scale = 1.0 + float(np.max(np.abs(w)))
    recon = float(np.max(np.abs(h - (v * w[None, :]) @ v.conj().T)))
    unit = float(np.max(np.abs(v.conj().T @ v - np.eye(n))))
    if recon > 1e-9 * scale or unit > 1e-9:
        return _fail("spectral round trip", recon=recon, unit=unit)

    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
    p = a.projector
    lam_scale = 1e-10 * (1.0 + a.lam_max)
    proj = max(
        float(np.max(np.abs(p @ p - p))),
        float(np.max(np.abs(p - p.conj().T))),
        float(np.max(np.abs(p @ a.matrix - a.matrix))),
        float(np.max(np.abs(a.matrix @ p - a.matrix))),
    )
    if proj > lam_scale:
        return _fail("projection identity", defect=proj)

    u = smp.gaussian(rng, (a.rank,), complex_field)
    iso = abs(norm_a(a, a.from_coords(u)) - float(np.linalg.norm(u)))
    if iso > 1e-10 * (1.0 + float(np.linalg.norm(u))):
        return _fail("coordinate isometry", defect=iso)

    b = sqrt_psd(a)
    root = float(np.max(np.abs(b @ b - a.matrix)))
    if root > 1e-9 * (1.0 + a.lam_max):
        return _fail("psd square root", defect=root)

    nb = null_basis(a)
    if nb.shape[1]:
        resid = float(np.max(np.linalg.norm(a.matrix @ nb, axis=0)))
        if resid > a.tol.rank_tol * max(a.lam_max, 1.0):
            return _fail("null basis residual", resid=resid)

    # clipping is monotone in the rank tolerance
    tiny = 10.0 ** rng.uniform(-15, -8)
    spectrum = np.diag([1.0, float(tiny)])
    r_loose = psd_decompose(spectrum, Tolerances(rank_tol=1e-6)).rank
    r_tight = psd_decompose(spectrum, Tolerances(rank_tol=1e-16)).rank
    if r_loose > r_tight:
        return _fail("clipping monotonicity", loose=r_loose, tight=r_tight)
    return None


def _vec_instance(rng: np.random.Generator):
    complex_field = bool(rng.random() < 0.5)
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
    x = smp.random_vector(rng, n, complex_field)
    y = smp.random_vector(rng, n, complex_field)
    return a, x, y


def _suite_vec_symmetry(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    eps = _pick_eps(rng)
    if is_eps_orthogonal(a, x, y, eps).holds != is_eps_orthogonal(a, y, x, eps).holds:
        return _fail("eps orthogonality not symmetric", eps=eps)
    return None


def _suite_vec_homogeneity(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    eps = _pick_eps(rng)
    scale_x = float(rng.uniform(0.2, 5.0)) * float(rng.choice([-1.0, 1.0]))
    scale_y = float(rng.uniform(0.2, 5.0)) * float(rng.choice([-1.0, 1.0]))
    if a.is_complex:
        scale_x = scale_x * np.exp(1j * rng.uniform(0, 2 * math.pi))
        scale_y = scale_y * np.exp(1j * rng.uniform(0, 2 * math.pi))
    base = is_chmielinski_orthogonal_vec(a, x, y, eps)
    scaled = is_chmielinski_orthogonal_vec(a, scale_x * x, scale_y * y, eps)
    if base.holds != scaled.holds:
        return _fail("homogeneity violated", eps=eps, m0=base.margin, m1=scaled.margin)
    return None


def _suite_vec_route_equivalence(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    eps = _pick_eps(rng)
    if rng.random() < 0.4:
        # bias toward near-threshold instances
        target = eps * norm_a(a, x) * 1.0 * float(rng.uniform(0.0, 1.5))
        x, y = smp.forced_inner_pair(rng, a, target)
    inner = is_eps_orthogonal(a, x, y, eps)
    direct = is_chmielinski_orthogonal_vec(a, x, y, eps)
    if inner.holds != direct.holds:
        return _fail("vector routes disagree", eps=eps, inner=inner.margin, direct=direct.margin)
    return None


def _suite_vec_characterization(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    eps = _pick_eps(rng)
    if rng.random() < 0.5:
        nx, ny = norm_a(a, x), norm_a(a, y)
        x, y = smp.forced_inner_pair(rng, a, eps * nx * ny * float(rng.uniform(0.0, 1.3)))
    z = orthogonal_decomposition(a, x, y)
    nx, ny = norm_a(a, x), norm_a(a, y)
    ip_xz = abs(inner_a(a, x, z))
    if ip_xz > 1e-10 * (1.0 + nx * norm_a(a, z)):
        return _fail("z not A-orthogonal to x", value=ip_xz)
    if is_eps_orthogonal(a, x, y, eps).holds:
        drift = norm_a(a, z - y)
        if drift > eps * ny + 1e-10 * (1.0 + ny):
            return _fail("forward tracking bound", drift=drift, bound=eps * ny)

    # reverse direction: any (z', y') built to satisfy (ii) must satisfy (i).
    # quadratic forms have a sqrt(machine eps) noise floor, so skip draws
    # whose z' is A-null to within that floor
    z_perp = orthogonal_decomposition(a, x, smp.random_vector(rng, a.dim, a.is_complex))
    nz = norm_a(a, z_perp)
    if nz < 1e-5 * max(1.0, float(np.linalg.norm(z_perp))):
        return None
    d = smp.random_vector(rng, a.dim, a.is_complex)
    nd = norm_a(a, d)
    if nd < 1e-12:
        return None
    shift = 0.9 * eps * nz / (1.0 + eps)
    if not is_eps_orthogonal(a, x, z_perp + d * (shift / nd), eps).holds:
        return _fail("reverse direction", eps=eps)
    return None


def _suite_vec_cone_dichotomy(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    alpha = complex(np.exp(1j * rng.uniform(0.0, math.pi * 0.999))) if a.is_complex else 1.0
    tag = cone_membership(a, x, y, alpha)
    ts = np.linspace(-10.0, 10.0, 10_000)
    grid = x[:, None] + y[:, None] * (ts * alpha)[None, :]
    norm_sq = np.real(np.einsum("in,ij,jn->n", grid.conj(), a.matrix, grid))
    norms = np.sqrt(np.clip(norm_sq, 0.0, None))
    base = norm_a(a, x)
    plus_ok = bool(np.all(norms[ts >= 0.0] >= base - 1e-9))
    minus_ok = bool(np.all(norms[ts <= 0.0] >= base - 1e-9))
    if tag in (ConeTag.PLUS_ONLY, ConeTag.BOTH) and not plus_ok:
        return _fail(f"tag {tag} but norm dips for t >= 0")
    if tag in (ConeTag.MINUS_ONLY, ConeTag.BOTH) and not minus_ok:
        return _fail(f"tag {tag} but norm dips for t <= 0")
    if not (plus_ok or minus_ok):
        return _fail("dichotomy violated on the grid")
    return None


def _suite_vec_degeneracy(rng: np.random.Generator, i: int) -> Optional[dict]:
    complex_field = bool(rng.random() < 0.5)
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n)), complex_field=complex_field)
    x = null_basis(a) @ smp.gaussian(rng, (a.null_dim,), complex_field)
    y = smp.random_vector(rng, n, complex_field)
    eps = _pick_eps(rng)
    if not is_a_null(a, x):
        return _fail("null vector not recognized as A-null")
    checks = (
        is_a_orthogonal(a, x, y).holds,
        is_eps_orthogonal(a, x, y, eps).holds,
        is_chmielinski_orthogonal_vec(a, x, y, eps).holds,
        cone_membership(a, x, y) == ConeTag.BOTH if not complex_field else True,
    )
    if not all(checks):
        return _fail("degenerate x does not satisfy all predicates")
    return None


def _suite_vec_directional_derivative(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, x, y = _vec_instance(rng)
    nx = norm_a(a, x)
    if nx < 1e-6:
        return None
    x = x / nx
    h = 1e-6
    exact = directional_derivative(a, x, y)
    fd = (norm_a(a, x + h * y) - norm_a(a, x - h * y)) / (2.0 * h)
    if abs(exact - fd) > 1e-5 * (1.0 + abs(exact)):
        return _fail("finite difference mismatch", exact=exact, fd=fd)
    return None


def _op_instance(rng: np.random.Generator, complex_field: bool = False):
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=complex_field)
    t = smp.random_a_bounded(rng, a)
    s = smp.random_a_bounded(rng, a)
    return a, t, s


def _suite_op_tilde(rng: np.random.Generator, i: int) -> Optional[dict]:
    complex_field = bool(rng.random() < 0.5)
    n = int(rng.integers(3, 7))
    rank = int(rng.integers(1, n))  # rank-deficient on purpose
    a = smp.random_psd(rng, n, rank=rank, complex_field=complex_field)
    t = smp.random_a_bounded(rng, a)
    s = smp.random_a_bounded(rng, a)
    lam = float(rng.uniform(-3.0, 3.0))

    tilde_t = tilde_reduce(a, t)
    norm_gap = abs(operator_norm_a(a, t) - float(np.linalg.norm(tilde_t, 2)))
    if norm_gap > 1e-9 * (1.0 + float(np.linalg.norm(tilde_t, 2))):
        return _fail("norm vs reduction mismatch", gap=norm_gap)
    lin = float(
        np.max(np.abs(tilde_reduce(a, t + s) - (tilde_t + tilde_reduce(a, s))))
    )
    hom = float(np.max(np.abs(tilde_reduce(a, lam * t) - lam * tilde_t)))
    if lin > 1e-10 * (1.0 + float(np.max(np.abs(tilde_t)))) or hom > 1e-10 * (
        1.0 + abs(lam) * float(np.max(np.abs(tilde_t)))
    ):
        return _fail("reduction not linear", lin=lin, hom=hom)

    att = norm_attainment_set(a, t)
    p = a.projector
    defect = None
    for j in range(att.multiplicity):
        v = att.attain_basis[:, j]
        in_range = float(np.linalg.norm(v - p @ v))
        unit_gap = abs(norm_a(a, v) - 1.0)
        attain_gap = abs(norm_a(a, t @ v) - att.norm)
        if in_range > 1e-9 or unit_gap > 1e-8 or attain_gap > 1e-8 * (1.0 + att.norm):
            defect = _fail("attainment basis defect", in_range=in_range, unit=unit_gap, att=attain_gap)
            break

    # null-space absorption; drawn after a defect too, as the draws are pinned
    u = null_basis(a) @ smp.gaussian(rng, (a.null_dim,), complex_field)
    v = a.from_coords(smp.gaussian(rng, (a.rank,), complex_field))
    if defect is not None:
        return defect
    gap = abs(norm_a(a, t @ (u + v)) - norm_a(a, t @ v))
    if gap > 1e-9 * (1.0 + norm_a(a, t @ v)):
        return _fail("null-space absorption", gap=gap)
    return None


def _suite_op_attainment_certificate(rng: np.random.Generator, i: int) -> Optional[dict]:
    samples = 2000
    complex_field = bool(rng.random() < 0.5)
    a, t, _ = _op_instance(rng, complex_field=complex_field)
    op = bind_operator(a, t)
    coords = smp.gaussian(rng, (a.rank, samples), complex_field)
    coords /= np.linalg.norm(coords, axis=0)[None, :]
    xs = a.from_coords(coords)
    norms = np.linalg.norm(op.tilde @ coords, axis=0)
    if float(np.max(norms)) > op.norm + 1e-7:
        return _fail("Monte-Carlo exceeds norm", excess=float(np.max(norms)) - op.norm)
    # sup over pairs of |<Tx, y>_A| is also bounded by the norm
    ys = smp.gaussian(rng, (a.rank, samples), complex_field)
    ys = a.from_coords(ys / np.linalg.norm(ys, axis=0)[None, :])
    pair_vals = np.abs(np.einsum("ik,ik->k", (a.matrix @ (t @ xs)).conj(), ys))
    if float(np.max(pair_vals)) > op.norm + 1e-7:
        return _fail("sup-form exceeds norm")
    v = norm_attainment_set(a, t).attain_basis[:, 0]
    if abs(norm_a(a, t @ v) - op.norm) > 1e-8 * (1.0 + op.norm):
        return _fail("certificate vector does not attain")
    return None


def _routes_agree(a, t, s, eps: float, **extra: float) -> Optional[dict]:
    """The direct route against the field's attainment route: the
    attainment characterization over R, the theta sweep over C."""
    direct = op_orth_direct(a, t, s, eps)
    if a.is_complex:
        field_name, key, other = "complex", "sweep", op_orth_theta_sweep_complex(a, t, s, eps)
    else:
        field_name, key, other = "real", "attain", op_orth_attainment_real(a, t, s, eps)
    if direct.holds != other.holds:
        return _fail(
            f"{field_name} routes disagree", **extra, eps=eps, direct=direct.margin, **{key: other.margin}
        )
    return None


def _suite_op_routes_real(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, t, s = _op_instance(rng)
    return _routes_agree(a, t, s, _pick_eps(rng))


def _suite_op_routes_complex(rng: np.random.Generator, i: int) -> Optional[dict]:
    n = int(rng.integers(2, 5))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n + 1)), complex_field=True)
    t = smp.random_a_bounded(rng, a)
    s = smp.random_a_bounded(rng, a)
    return _routes_agree(a, t, s, _pick_eps(rng))


def _suite_op_routes_complex_multiplicity(rng: np.random.Generator, i: int) -> Optional[dict]:
    # T attains its norm on m = 2..4 dimensions; S random, an A-isometry or of multiplicity m
    n = int(rng.integers(3, 7))
    rank = int(rng.integers(2, n + 1))
    m = int(rng.integers(2, min(4, rank) + 1))
    a = smp.random_psd(rng, n, rank=rank, complex_field=True)
    t = smp.operator_with_multiplicity(rng, a, m)
    kind = i % 3
    if kind == 0:
        s = smp.random_a_bounded(rng, a)
    elif kind == 1:
        s = smp.random_a_isometry(rng, a)
    else:
        s = smp.operator_with_multiplicity(rng, a, m)
    return _routes_agree(a, t, s, _pick_eps(rng), m=m)


def _suite_op_homogeneity(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, t, s = _op_instance(rng)
    eps = _pick_eps(rng)
    ct = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1.0, 1.0]))
    cs = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1.0, 1.0]))
    base = op_orth_direct(a, t, s, eps)
    scaled = op_orth_direct(a, ct * t, cs * s, eps)
    if base.holds != scaled.holds:
        return _fail("operator homogeneity", eps=eps, m0=base.margin, m1=scaled.margin)
    return None


def _suite_op_monotonicity(rng: np.random.Generator, i: int) -> Optional[dict]:
    a, t, s = _op_instance(rng)
    eps_lo = float(rng.uniform(0.0, 0.8))
    eps_hi = float(rng.uniform(eps_lo, 0.99))
    lo = op_orth_direct(a, t, s, eps_lo)
    hi = op_orth_direct(a, t, s, eps_hi)
    if hi.margin < lo.margin - 1e-10:
        return _fail("margin not monotone in eps", lo=lo.margin, hi=hi.margin)
    if lo.holds and not hi.holds:
        return _fail("verdict not monotone in eps")
    return None


def _suite_op_zero_degeneracy(rng: np.random.Generator, i: int) -> Optional[dict]:
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n)))
    z = smp.zero_a_norm_operator(rng, a)
    s = smp.random_a_bounded(rng, a)
    eps = _pick_eps(rng)
    if not op_orth_direct(a, z, s, eps).holds:
        return _fail("zero-norm T fails T perp S")
    if not op_orth_direct(a, s, z, eps).holds:
        return _fail("zero-norm S fails T perp S")
    return None


def _suite_op_subset_reverse(rng: np.random.Generator, i: int) -> Optional[dict]:
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    t, s = smp.shared_attainment_pair(rng, a, multiplicity=1)
    eps = float(rng.uniform(0.2, 0.9))
    if not attainment_subset(a, t, s):
        return _fail("constructed pair lost shared attainment")
    fwd = op_orth_direct(a, t, s, eps)
    if fwd.holds:
        bwd = op_orth_direct(a, s, t, eps)
        if not bwd.holds:
            return _fail("subset does not reverse", eps=eps, bwd=bwd.margin)
    if op_orth_pointwise(a, t, s, eps).holds != fwd.holds:
        return _fail("pointwise route disagrees", eps=eps)
    return None


def _witness_verifies(report, a, t, eps: float, side: str) -> Optional[dict]:
    """The report's witness, checked both ways by the direct route: the
    relation holds one way and fails the other."""
    fwd, bwd = report.verify(a, t)
    if not fwd.holds or bwd.holds:
        return _fail(f"{side} witness fails verification", eps=eps, fwd=fwd.margin, bwd=bwd.margin)
    return None


def _suite_sym_right_witness(rng: np.random.Generator, i: int, complex_field: bool = False) -> Optional[dict]:
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(2, n + 1)), complex_field=complex_field)
    t = smp.random_a_bounded(rng, a)
    if is_a_isometry(a, t).ok:
        return None
    eps = float(EPS_POOL[i % len(EPS_POOL)])
    report = classify_right(a, t, eps)
    if report.kind is not SymmetryKind.NOT_RIGHT_SYMMETRIC or report.witness is None:
        return _fail("non-isometry classified right symmetric")
    return _witness_verifies(report, a, t, eps, "right")


def _suite_sym_right_isometry(rng: np.random.Generator, i: int, complex_field: bool = False) -> Optional[dict]:
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(2, n + 1)), complex_field=complex_field)
    t = smp.random_a_isometry(rng, a)
    eps = float(EPS_POOL[i % len(EPS_POOL)])
    if classify_right(a, t, eps).kind is not SymmetryKind.RIGHT_SYMMETRIC:
        return _fail("isometry not classified right symmetric")
    for _ in range(8):
        s = (
            smp.eps_orthogonal_probe(rng, a, t, eps)
            if rng.random() < 0.7
            else smp.random_a_bounded(rng, a)
        )
        if op_orth_direct(a, s, t, eps).holds and not op_orth_direct(a, t, s, eps).holds:
            return _fail("probe broke right symmetry of an isometry", eps=eps)
    return None


def _suite_sym_left_witness(rng: np.random.Generator, i: int, complex_field: bool = False) -> Optional[dict]:
    n = int(rng.integers(2, 7))
    a = smp.random_psd(rng, n, rank=int(rng.integers(2, n + 1)), complex_field=complex_field)
    # three branches by i % 3: a multi-pair, case I and (most often) case II
    if i % 3 == 0:
        t, expected = smp.operator_with_multiplicity(rng, a, min(2, a.rank)), ConstructionTag.LEFT_MULTI_PAIR
    elif i % 3 == 1:
        t, expected = smp.rank_one_operator(rng, a), ConstructionTag.LEFT_CASE_I
    else:
        t, expected = smp.operator_with_multiplicity(rng, a, 1), None
    eps = float(EPS_POOL[i % len(EPS_POOL)])
    report = classify_left(a, t, eps)
    if report.kind is not SymmetryKind.NOT_LEFT_SYMMETRIC:
        return _fail("nonzero operator classified left symmetric")
    tag = report.construction.tag
    if expected is not None and tag is not expected:
        return _fail(f"expected {expected.value} branch, got {tag}")
    return _witness_verifies(report, a, t, eps, "left")


def _suite_left_parameter_grid(rng: np.random.Generator, i: int) -> Optional[dict]:
    for eps in np.linspace(0.0, 0.99, 100):
        p = left_parameters(float(eps))
        checks = {
            "a*eps1 > eps": p.a * p.eps1 > eps,
            "interval bound < 1": p.alpha_lo < 1.0,
            "unit circle": abs(p.a**2 + p.b**2 - 1.0) < 1e-12,
            "b > 0": p.b > 0.0,
            "alpha inside": p.alpha_lo - 1e-12 <= p.alpha <= p.alpha_hi + 1e-12,
            "t interior": 0.0 < p.t < 0.5,
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            return _fail(f"parameter inequalities failed: {bad}", eps=float(eps))
    return None


# ----------------------------- runner ---------------------------------------

Trial = Callable[[np.random.Generator, int], Optional[dict]]

SUITES: dict[str, tuple[Trial, Optional[int]]] = {
    "core_spectral": (_suite_core_spectral, None),
    "vec_symmetry": (_suite_vec_symmetry, None),
    "vec_homogeneity": (_suite_vec_homogeneity, None),
    "vec_route_equivalence": (_suite_vec_route_equivalence, None),
    "vec_characterization": (_suite_vec_characterization, None),
    "vec_cone_dichotomy": (_suite_vec_cone_dichotomy, 60),
    "vec_degeneracy": (_suite_vec_degeneracy, None),
    "vec_directional_derivative": (_suite_vec_directional_derivative, None),
    "op_tilde_reduction": (_suite_op_tilde, None),
    "op_attainment_certificate": (_suite_op_attainment_certificate, 60),
    "op_route_equivalence_real": (_suite_op_routes_real, 150),
    "op_route_equivalence_complex": (_suite_op_routes_complex, 80),
    "op_homogeneity": (_suite_op_homogeneity, None),
    "op_eps_monotonicity": (_suite_op_monotonicity, None),
    "op_zero_degeneracy": (_suite_op_zero_degeneracy, None),
    "op_subset_reverse": (_suite_op_subset_reverse, 100),
    "sym_right_witness": (_suite_sym_right_witness, 60),
    "sym_right_isometry": (_suite_sym_right_isometry, 40),
    "sym_left_witness": (_suite_sym_left_witness, 100),
    "left_parameter_grid": (_suite_left_parameter_grid, 1),
    # appended, so the suites above keep their generators (keyed by position)
    "op_route_equivalence_complex_multiplicity": (_suite_op_routes_complex_multiplicity, 80),
    "sym_right_witness_complex": (partial(_suite_sym_right_witness, complex_field=True), 60),
    "sym_right_isometry_complex": (partial(_suite_sym_right_isometry, complex_field=True), 40),
    "sym_left_witness_complex": (partial(_suite_sym_left_witness, complex_field=True), 100),
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    passed: bool
    failures: list[dict]
    seconds: float


@dataclass(frozen=True)
class SelftestOutcome:
    seed: int
    results: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> str:
        lines = [f"{'suite':42s} {'trials':>7s} {'time':>8s}  status"]
        for r in self.results:
            status = "pass" if r.passed else f"FAIL ({len(r.failures)})"
            lines.append(f"{r.name:42s} {r.trials:7d} {r.seconds:7.2f}s  {status}")
        overall = "SELFTEST PASS" if self.passed else "SELFTEST FAIL"
        lines.append(overall)
        return "\n".join(lines)


def run_trials(trial: Trial, rng: np.random.Generator, trials: int) -> list[dict]:
    """Run trials 0 .. trials - 1 of one suite on one generator and return
    the failure records, each with its trial index under ``"trial"``."""
    return [{"trial": i, **rec} for i in range(trials) if (rec := trial(rng, i)) is not None]


def run_selftest(seed: int, trials: int) -> SelftestOutcome:
    """Run every property suite at a seed and trial budget.

    Results are deterministic for a fixed (seed, trials) pair: each suite
    gets its own child generator keyed by the suite's registry position.
    """
    results = []
    for index, (name, (fn, cap)) in enumerate(SUITES.items()):
        effective = trials if cap is None else min(trials, cap)
        rng = np.random.default_rng([seed, index])
        start = time.perf_counter()
        failures = run_trials(fn, rng, effective)
        elapsed = time.perf_counter() - start
        results.append(
            SuiteResult(
                name=name,
                trials=effective,
                passed=not failures,
                failures=failures,
                seconds=elapsed,
            )
        )
    return SelftestOutcome(seed=seed, results=results)
