"""Desk-scale laboratory for weakly non-radiative waves.

The package constructs exterior data families whose evolutions keep no
energy outside expanding light cones, evolves them exactly (coefficient
chains) and numerically (radial finite differences), maps data to
radiation profiles, and measures the decay mechanisms that power the
nonlinear exterior estimates.

Submodules
----------
polylib
    Exact rational polynomials, two orthogonal families,
    quadrature, and the sup / weighted-derivative inequality checks.
exterior_basis
    Mode specifications and the exterior data families, with exact
    norm identities and decay-bound checks.
exact_evolution
    Closed-form coefficient-chain evolutions of the exterior families
    and exact exterior cone energies.
radial_solver
    Finite-difference evolution of radial profiles in lifted
    dimension, cone energies, and exterior tail norms.
radiation3
    Radiation profiles: explicit transform in three dimensions,
    inverse, tail norms, and the two-sided energy identity.
decay_lab
    Recursion-driven decay rates, adversarial envelopes, power-law
    fits, and the end-to-end nonlinear decay pipeline.
cli
    Deterministic command-line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
