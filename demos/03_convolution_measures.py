"""
Convolution measures rho = mu * nu
==================================

Shifting the Gaussian by a discrete factor nu keeps every integral in
closed form: the density against mu is a positive exponential combination,
moments come from a shift identity, and the characteristic-function Gram
matrix is positive semidefinite by construction.  Monte Carlo and
quadrature reproduce the same numbers from the definition alone.
"""

import math

import numpy as np

from wickbench import (
    ChaosExpansion,
    ConvolutionMeasure,
    DiscreteMeasure,
    ExpCombo,
    char_gram,
    convolve_nu,
    density_xi,
    g_lambda_norm,
    gauss_hermite_grid,
    integrate_rho,
    mc_integral_rho,
    rho_integral_chaos,
    rho_integral_exp,
    wick_exp,
)

# a symmetric two-atom factor: rho is a Gaussian mixture with means +-1
nu = DiscreteMeasure(1, [[1.0], [-1.0]], [0.5, 0.5])
rho = ConvolutionMeasure(nu)

# --- the density and its integrals -------------------------------------------

xi = density_xi(rho)
print("density xi      =", xi.terms)
print("xi(0)           =", xi.eval([0.0]), "= e^{-1/2} =", math.exp(-0.5))

# int E(h) drho = sum_i p_i e^{<y_i, h>}; here cosh(2)
f = ExpCombo.exponential([2.0])
print("\nint E(2) drho   =", rho_integral_exp(f, rho), "= cosh(2) =", math.cosh(2.0))

# Hermite moments shift: int He_m drho = mean of y^m over the atoms
print("int He_2 drho   =", rho_integral_chaos(ChaosExpansion.basis((2,)), rho))
print("int He_3 drho   =", rho_integral_chaos(ChaosExpansion.basis((3,)), rho))

# --- two independent oracles confirm the closed forms -------------------------

grid = gauss_hermite_grid(1, 30)
print("\nquadrature      =", integrate_rho(f.eval, rho, grid))
est, se = mc_integral_rho(f.eval, rho, seed=7, count=100_000)
print("monte carlo     =", est, "+-", se)

# --- convolving factors multiplies densities in the Wick sense ----------------

other = DiscreteMeasure(1, [[0.5]], [1.0])
combined = convolve_nu(nu, other)
print("\nnu * delta_1/2  atoms:", combined.atoms.ravel().tolist())

lhs = density_xi(ConvolutionMeasure(combined))
rhs = wick_exp(density_xi(rho), density_xi(ConvolutionMeasure(other)))
print("densities agree :", lhs.allclose(rhs, tol=0.0))

# --- positivity certificates ---------------------------------------------------

# characteristic-function Gram matrix: PSD for any probability measure
gram = char_gram(nu, [[0.0], [1.0]])
print("\nchar gram       =\n", gram.real)
print("min eigenvalue  =", np.linalg.eigvalsh(gram)[0], ">= 0")

# the weighted norm of xi obeys a closed-form bound, tight for one atom
norm_sq, bound = g_lambda_norm(rho, 1.0)
print("\n|xi|_G^2        =", norm_sq, "= cosh(1) =", math.cosh(1.0))
print("bound           =", bound, "= e^{1/2}  =", math.exp(0.5))
print("sqrt(norm) <= bound:", math.sqrt(norm_sq) <= bound)
