"""Independent numerical cross-checks used by several test modules.

These deliberately avoid the exact rational code paths: everything here
is float quadrature over the physical radial variable, so agreement
with the library's closed forms is meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from wavechannel import exterior_basis as eb
from wavechannel.polylib import gauss_nodes


def halfline_rule(R: float, n: int = 120) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for integrals over (R, infinity) under r = R/u.

    Exact for integrands that are polynomials in 1/r after the
    substitution, which covers every profile-squared moment used here.
    """
    rule = gauss_nodes(n).mapped(0.0, 1.0)
    u = rule.nodes
    r = R / u
    w = rule.weights * R / u**2
    return r, w


def exterior_norms_quadrature(data: eb.ExteriorModeData, n: int = 120) -> eb.SeriesNorms:
    """Full-space integrals over {|x| > R} of the single-mode field."""
    d, nu = data.spec.d, data.spec.nu
    r, w = halfline_rule(data.R, n)
    vals = eb.eval_profiles(data, r)
    angular = nu * (d - 2 + nu) * float(np.sum(w * vals.u0**2 * r ** (d - 3)))
    u1_norm2 = float(np.sum(w * vals.u1**2 * r ** (d - 1)))
    du0_norm2 = float(np.sum(w * vals.du0_dr**2 * r ** (d - 1)))
    return eb.SeriesNorms(angular, u1_norm2, du0_norm2)


def reference_leapfrog(initial, config) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The linear leapfrog stepper written plainly, as a bit-for-bit reference.

    Same scheme and the same float operations in the same order as
    `radial_solver._solve` on a grid from r = 0, but with fresh arrays
    every step and the descriptor ghost from `ExteriorDescriptor.eval`
    at every step.  Returns stored times, u and u_t rows, and blown_up.
    """
    r = config.radial_grid()
    D, desc = initial.lifted_dim, initial.descriptor
    dr, dt = config.dr, config.dt
    assert r[0] == 0.0 and config.nonlinearity == "none"

    def rhs(u, t):
        out = np.empty_like(u)
        inv_dr2 = 1.0 / dr**2
        out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) * inv_dr2 + (D - 1) / r[1:-1] * (
            u[2:] - u[:-2]
        ) / (2 * dr)
        out[0] = D * 2.0 * (u[1] - u[0]) * inv_dr2
        if desc is not None:
            g = float(desc.eval(r[-1] + dr, t).u)
        else:
            g = 3.0 * u[-1] - 3.0 * u[-2] + u[-3]
        out[-1] = (g - 2 * u[-1] + u[-2]) * inv_dr2 + (D - 1) / r[-1] * (g - u[-2]) / (2 * dr)
        return out + 0.0  # the linear equation's zero nonlinearity

    def healthy(u):
        return bool(np.all(np.isfinite(u)) and np.max(np.abs(u)) <= config.blowup_threshold)

    times, us, uts = [0.0], [initial.u], [initial.ut]
    u_prev = initial.u.copy()
    u_curr = u_prev + dt * initial.ut + 0.5 * dt**2 * rhs(u_prev, 0.0)
    blown_up = not healthy(u_curr)
    n = 1
    while n <= config.n_steps and not blown_up:
        u_next = 2 * u_curr - u_prev + dt**2 * rhs(u_curr, n * dt)
        if not healthy(u_next):
            blown_up = True
            break
        if n % config.stride == 0:
            times.append(n * dt)
            us.append(u_curr.copy())
            uts.append((u_next - u_prev) / (2 * dt))
        u_prev, u_curr = u_curr, u_next
        n += 1
    return np.asarray(times), np.asarray(us), np.asarray(uts), blown_up
