"""The canonical 2x2 worked instance used as a golden test throughout.

A = diag(1, 2), T = diag(2, 1), S = diag(0, 1), eps = 1/3. Here ||T||_A = 2
with attainment set {+-(1, 0)} and ||S||_A = 1 with attainment set
{+-(0, 1/sqrt(2))}; T is approximately orthogonal to S but not conversely,
which is the asymmetry the symmetry classification is built around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PsdOperator, psd_decompose
from .operators import NormAttainment, norm_attainment_set
from .orthogonality import op_orth_attainment_real, op_orth_direct
from .vectors import OrthoVerdict


@dataclass(frozen=True)
class ReferenceInstance:
    a: PsdOperator
    t: np.ndarray
    s: np.ndarray
    epsilon: float
    norm_t: float
    norm_s: float
    attain_t: NormAttainment
    attain_s: NormAttainment
    t_perp_s_direct: OrthoVerdict
    s_perp_t_direct: OrthoVerdict
    t_perp_s_attainment: OrthoVerdict
    s_perp_t_attainment: OrthoVerdict


def example_3_1() -> ReferenceInstance:
    """Build the reference instance and its full verdict chain."""
    a = psd_decompose(np.diag([1.0, 2.0]))
    t = np.diag([2.0, 1.0])
    s = np.diag([0.0, 1.0])
    eps = 1.0 / 3.0
    attain_t = norm_attainment_set(a, t)
    attain_s = norm_attainment_set(a, s)
    return ReferenceInstance(
        a=a,
        t=t,
        s=s,
        epsilon=eps,
        norm_t=attain_t.norm,
        norm_s=attain_s.norm,
        attain_t=attain_t,
        attain_s=attain_s,
        t_perp_s_direct=op_orth_direct(a, t, s, eps),
        s_perp_t_direct=op_orth_direct(a, s, t, eps),
        t_perp_s_attainment=op_orth_attainment_real(a, t, s, eps),
        s_perp_t_attainment=op_orth_attainment_real(a, s, t, eps),
    )
