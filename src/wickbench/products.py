"""Wick, pointwise, and interpolating products in chaos coordinates.

The Wick product is coefficient convolution (H_m diamond H_m' = H_{m+m'}).
The pointwise product uses the per-coordinate Hermite linearization

    He_a He_b = sum_k C(a,k) C(b,k) k! He_{a+b-2k}

tensorized over coordinates.  The alpha-product interpolates the two:

    f o_a g = Gamma(1/sqrt(a)) (Gamma(sqrt(a)) f * Gamma(sqrt(a)) g)

weights the order-k term of the linearization by a^k, and is computed in
that form, so no intermediate Gamma(sqrt(a)) f can lose coefficients
below COEFF_EPS.  Chaos inputs are polynomials and stay polynomials.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .chaos import ChaosExpansion, check_alpha, check_dims, is_real


def pointwise_chaos(f: ChaosExpansion, g: ChaosExpansion, alpha: float = 1.0) -> ChaosExpansion:
    """Exact polynomial product of two chaos expansions.

    alpha in [0, 1] weights each order-k term of the linearization by
    alpha^|k|, which is f o_alpha g (see alpha_chaos); alpha = 1 is the
    ordinary product and alpha = 0 the Wick product.
    """
    check_alpha(alpha)
    check_dims(f, g)
    alpha = float(alpha)
    out: dict[tuple, float] = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            cab = ca * cb
            if not alpha:
                # the Wick product's fast path: only k = 0 has weight,
                # so skip the linearization sums
                m = tuple(map(operator.add, a, b))
                out[m] = out.get(m, 0.0) + cab
                continue
            ranges = [range(min(ai, bi) + 1) for ai, bi in zip(a, b)]
            for k in itertools.product(*ranges):
                coef = 1
                for ai, bi, ki in zip(a, b, k):
                    coef *= math.comb(ai, ki) * math.comb(bi, ki) * math.factorial(ki)
                m = tuple(ai + bi - 2 * ki for ai, bi, ki in zip(a, b, k))
                out[m] = out.get(m, 0.0) + coef * alpha ** sum(k) * cab
    return ChaosExpansion(f.dim, out)


def wick_chaos(f: ChaosExpansion, g: ChaosExpansion) -> ChaosExpansion:
    """Wick product: (f diamond g)_m = sum_{a+b=m} c_a d_b; degrees add."""
    return pointwise_chaos(f, g, 0.0)


def alpha_chaos(f: ChaosExpansion, g: ChaosExpansion, alpha: float) -> ChaosExpansion:
    """Interpolating product on chaos expansions, alpha in [0, 1].

    alpha = 0 keeps only the order-0 terms, the Wick product; alpha = 1
    is the pointwise product.
    """
    return pointwise_chaos(f, g, alpha)


@dataclass(frozen=True)
class HolderParams:
    """Exponents (p, q, r) and interpolation parameter for the norm inequality.

    Admissible exponents satisfy

        1/(r - (1-a)/(1+a)) = (1+a)/(2(p-1)+2a) + (1+a)/(2(q-1)+2a)

    with p, q > 1 and r >= 1 (r = 1 occurs at the classical endpoint
    alpha = 1, p = q = 2).
    """

    p: float
    q: float
    r: float
    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if not all(is_real(x) and math.isfinite(x) for x in (self.p, self.q, self.r)):
            raise ValueError(f"p, q and r must be finite numbers, got {self.p!r}, {self.q!r}, {self.r!r}")
        if self.p <= 1 or self.q <= 1:
            raise ValueError("p and q must be > 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")

    @classmethod
    def conjugate_family(cls, alpha: float) -> "HolderParams":
        """The sharp family p = q = 2(1+alpha), r = 2."""
        return cls(p=2 * (1 + alpha), q=2 * (1 + alpha), r=2.0, alpha=alpha)


def holder_relation_check(params: HolderParams) -> tuple[bool, float]:
    """Residual of the exponent relation; admissible when |residual| <= 1e-12."""
    a = params.alpha
    shift = (1 - a) / (1 + a)
    denom = params.r - shift
    if denom <= 0:
        raise ValueError(f"inadmissible r: r - (1-a)/(1+a) = {denom} must be > 0")
    residual = 1.0 / denom - (1 + a) / (2 * (params.p - 1) + 2 * a) - (1 + a) / (2 * (params.q - 1) + 2 * a)
    return abs(residual) <= 1e-12, residual
