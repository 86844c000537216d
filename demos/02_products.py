"""
Wick, pointwise, and interpolating products
===========================================

Exponential functions E(h) = exp(<w,h> - |h|^2/2) turn all three products
into one-line closed forms, and finite combinations of them are closed
under everything.  The same products exist on chaos coefficients; the two
routes agree, which is the backbone of the verification harness.
"""

import math

import numpy as np

from wickbench import (
    ChaosExpansion,
    ExpCombo,
    alpha_chaos,
    alpha_exp,
    exp_eval,
    gammas_exp,
    mu_inner_exp,
    pointwise_chaos,
    pointwise_exp,
    to_chaos,
    to_chaos_tail_bound,
    wick_chaos,
    wick_exp,
)

# --- products on exponentials -----------------------------------------------

e1 = ExpCombo.exponential([1.0])

# Wick:      E(h) <> E(k) = E(h+k)          (no scalar factor)
# pointwise: E(h)  E(k)   = e^{<h,k>} E(h+k)
# alpha:     E(h) o_a E(k) = e^{a<h,k>} E(h+k), sliding between the two
print("E(1) <> E(1)    =", wick_exp(e1, e1).terms)
print("E(1)  * E(1)    =", pointwise_exp(e1, e1).terms)
print("E(1) o_.5 E(1)  =", alpha_exp(e1, e1, 0.5).terms)

# the endpoints are the other two products, exactly
assert alpha_exp(e1, e1, 0.0).terms == wick_exp(e1, e1).terms
assert alpha_exp(e1, e1, 1.0).terms == pointwise_exp(e1, e1).terms

# --- the Gaussian does the bookkeeping ---------------------------------------

# int E(h) E(k) dmu = e^{<h,k>}: inner products never need quadrature
print("\n<E(1), E(1)>  =", mu_inner_exp(e1, e1), "= e =", math.e)

# the Wick product is L2-orthogonal to lower chaos: its mean vanishes
print("mean of E<>E   =", mu_inner_exp(wick_exp(e1, e1), ExpCombo.one(1)))

# --- second quantization acts by scaling directions --------------------------

print("\nGamma(1/2) E(2) =", gammas_exp([0.5], [ExpCombo.exponential([2.0])])[0].terms)

# Gamma(lam) is a homomorphism for Wick and rescales alpha in general:
# Gamma(lam)(f o_a g) = Gamma(lam) f o_{a/lam^2} Gamma(lam) g
f = ExpCombo.exponential([0.8], 1.2) + ExpCombo.exponential([-0.4], 0.7)
g = ExpCombo.exponential([0.5], -0.3) + ExpCombo.exponential([1.1], 0.9)
lam, alpha = 1.5, 0.9
lhs = gammas_exp([lam], [alpha_exp(f, g, alpha)])[0]
rhs = alpha_exp(*gammas_exp([lam, lam], [f, g]), alpha / lam**2)
print("homomorphism   :", lhs.allclose(rhs, tol=1e-12))

# --- the same products in chaos coordinates ----------------------------------

h1 = ChaosExpansion.basis((1,))
print("\nHe_1 <> He_1 =", wick_chaos(h1, h1).coeffs)
print("He_1  * He_1 =", pointwise_chaos(h1, h1).coeffs)
print("He_1 o_a He_1 =", alpha_chaos(h1, h1, 0.25).coeffs)

# lowering an exponential to chaos: c_m = h^m / m!, with a tail bound
combo = ExpCombo.exponential([0.5])
trunc = to_chaos(combo, 2)
print("\nE(0.5) -> chaos cap 2:", trunc.coeffs)
print("tail bound:", to_chaos_tail_bound(combo, 2))

# the two product routes agree after lowering
hi = to_chaos(ExpCombo.exponential([0.5]), 12)
prod_exp = to_chaos(alpha_exp(combo, combo, 0.25), 6)
prod_chaos = alpha_chaos(hi, hi, 0.25)
worst = max(abs(prod_chaos.coeffs.get(m, 0.0) - c) for m, c in prod_exp.coeffs.items())
print("route mismatch through degree 6:", worst)
assert worst < 1e-9

# evaluation agrees with the algebra, pointwise
w = np.array([[0.3], [-1.2]])
assert np.allclose(exp_eval(pointwise_exp(f, g), w), exp_eval(f, w) * exp_eval(g, w))
print("\npointwise product evaluates correctly at sample points")
