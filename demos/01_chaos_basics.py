"""
Hermite chaos expansions and the diagonal operators
===================================================

A function of a standard Gaussian vector is stored as a sparse table of
coefficients against the tensorized probabilists' Hermite basis.  The
basis is orthogonal, so norms, energies, and the whole second-quantized
operator family act coefficient by coefficient.
"""

import math

import numpy as np

from wickbench import (
    ChaosExpansion,
    dirichlet_energy,
    eval_chaos,
    gamma_apply,
    gradient,
    l2_inner,
    l2_norm,
    number_apply,
    ou_apply,
)

# --- the basis itself -------------------------------------------------------

# He_2(x) = x^2 - 1, evaluated at x = 2
print("He_2(2) =", eval_chaos(ChaosExpansion.basis((2,)), (2.0,)))

# a tensorized element in two variables: He_1(x) He_2(y)
print("He_(1,2)(1, 1) =", eval_chaos(ChaosExpansion.basis((1, 2)), (1.0, 1.0)))

# --- building and evaluating expansions -------------------------------------

# f(x) = 2 + He_1(x) - 0.5 He_3(x)
f = (ChaosExpansion.constant(1, 2.0)
     + ChaosExpansion.basis((1,))
     - 0.5 * ChaosExpansion.basis((3,)))
print("\nf =", f)
print("f(0.7) =", eval_chaos(f, [0.7]))

# batch evaluation over many points at once
pts = np.linspace(-2, 2, 5).reshape(-1, 1)
print("f on a grid:", eval_chaos(f, pts))

# --- orthogonality does the integrals ---------------------------------------

# ||f||^2 = sum_m m! c_m^2; the cross terms vanish
print("\n||f||_2      =", l2_norm(f))
print("by hand      =", math.sqrt(4 + 1 + 0.25 * 6))

# the Dirichlet energy weights each coefficient by the degree
print("E(f)         =", dirichlet_energy(f))
print("<grad, grad> =", sum(l2_inner(g, g) for g in gradient(f)))

# --- the operator family ----------------------------------------------------

# Gamma(lambda) multiplies degree-d coefficients by lambda^d
g = gamma_apply(0.5, f)
print("\nGamma(1/2) f =", g.coeffs)

# the OU semigroup is Gamma(e^{-tau}); tau -> infinity leaves the mean
print("P_log(2) f   =", ou_apply(math.log(2), f).coeffs)
print("P_inf f      =", ou_apply(50.0, f).coeffs)

# the number operator generates the semigroup: <N f, f> is the energy
print("<N f, f>     =", l2_inner(number_apply(f), f))
