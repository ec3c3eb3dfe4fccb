"""Independent numerical cross-checks used by several test modules.

Most of these avoid the exact rational code paths: they are float
quadrature over the physical radial variable, so agreement with the
library's closed forms is meaningful evidence.  The extended-profile
reference evaluates the mode profiles on plain float coefficients, for
bit-for-bit comparison with the library's exact polynomials.  The family references
are second constructions of the library's objects: Legendre P_n by
Rodrigues' formula, both families' float three-term recurrences, and
the radial exponent span from the power-law count.  The Sturm references
are the library's root isolation written plainly, in ``Fraction`` long
division and ``np.polyval`` bisection, for bit-for-bit comparison with
its integer form.  The leapfrog references are the radial stepper
written plainly: once in the solver's own rounding order but on every
row at every step, once in the centred-stencil order.  The chain references apply the wave operator
and collect the cone energy in plain `Fraction` sums, and the envelope
reference builds the extremal S one row at a time with a boolean mask,
for bit-for-bit comparison with the integer and block forms.  The
command-line references are the CSV table written cell by cell with
format(v, ".17g"), and the parser with all seven subcommands' flags
built, for byte-for-byte comparison with the block writer and the
parser that builds only the chosen subcommand's flags.

Two test-data builders live here too, since several modules draw the
same data: ``random_mode``, a blended exterior mode with uniform random
coefficients, and ``compact_bump``, a C^3 bump at rest on a solver grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from wavechannel import cli
from wavechannel import exterior_basis as eb
from wavechannel import radial_solver as rs
from wavechannel.polylib import Poly, gauss_nodes


def random_mode(rng, d, nu, R=None):
    spec = eb.ModeSpec(d, nu)
    R = float(rng.uniform(0.5, 3.0)) if R is None else R
    A = rng.uniform(-2, 2, size=spec.k1_max)
    B = rng.uniform(-2, 2, size=spec.k2_max)
    return eb.build_exterior_mode(spec, R, A, B)


def compact_bump(config, amplitude=0.5, support=4.0, lifted_dim=3):
    r = config.radial_grid()
    s = np.clip(r / support, 0.0, 1.0)
    u = amplitude * (1 - s**2) ** 4
    return rs.RadialGridField(
        r=r, u=u, ut=np.zeros_like(r), lifted_dim=lifted_dim, descriptor=None
    )


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
    vals = eb.eval_extended(data, r)
    angular = nu * (d - 2 + nu) * float(np.sum(w * vals.u0**2 * r ** (d - 3)))
    u1_norm2 = float(np.sum(w * vals.u1**2 * r ** (d - 1)))
    du0_norm2 = float(np.sum(w * vals.du0_dr**2 * r ** (d - 1)))
    return eb.SeriesNorms(angular, u1_norm2, du0_norm2)


def extended_profiles_reference(data: eb.ExteriorModeData, r: np.ndarray) -> eb.ProfileValues:
    """The C1-extended profiles in plain floats, for bit-for-bit comparison.

    P and Q enter as the floats of their exact coefficients and their
    derivatives as i*float(c); exterior values come from
    ``np.polynomial.polynomial.polyval`` and the blend's end values at R
    from a Python-float Horner loop and R ** -mu.
    """
    mu, R = data.spec.mu, data.R
    p = [float(c) for c in data.position_poly().coeffs]
    q = [float(c) for c in data.velocity_poly().coeffs]
    dp = [i * c for i, c in enumerate(p)][1:] or [0.0]
    dq = [i * c for i, c in enumerate(q)][1:] or [0.0]

    def horner(cs, x):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * x + c
        return acc

    zR = 1.0 / R
    du0R = R ** (-mu - 1) * (-mu * horner(p, zR) - zR * horner(dp, zR))
    du1R = R ** (-mu - 2) * (-(mu + 1) * horner(q, zR) - zR * horner(dq, zR))
    b0, b1 = du0R / (2.0 * R), du1R / (2.0 * R)
    a0 = R ** (-mu) * horner(p, zR) - b0 * R**2
    a1 = R ** (-mu - 1) * horner(q, zR) - b1 * R**2

    polyval = np.polynomial.polynomial.polyval
    outside = r >= R
    safe = np.maximum(r, R)
    z = np.where(outside, 1.0 / safe, 0.0)
    return eb.ProfileValues(
        u0=np.where(outside, safe ** (-mu) * polyval(z, p), a0 + b0 * r**2),
        u1=np.where(outside, safe ** (-mu - 1) * polyval(z, q), a1 + b1 * r**2),
        du0_dr=np.where(
            outside, safe ** (-mu - 1) * (-mu * polyval(z, p) - z * polyval(z, dp)), 2.0 * b0 * r
        ),
    )


def legendre_eval(n: int, x):
    """Legendre P_n by the three-term recurrence; accepts arrays."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = x.copy()
    for k in range(2, n + 1):
        p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
    return p if p.ndim else float(p)


def modified_legendre_eval(n: int, x):
    """Shifted-weight family Q_n by its three-term recurrence.

    Q_0 = 1/2, Q_1 = (3x-1)/4, and
    (n+1)(2n-1) Q_n = [(4n^2-1)x - 1] Q_{n-1} - (n-1)(2n+1) Q_{n-2}.
    """
    x = np.asarray(x, dtype=float)
    q_prev = np.full_like(x, 0.5)
    if n == 0:
        return q_prev if q_prev.ndim else float(q_prev)
    q = (3.0 * x - 1.0) / 4.0
    for k in range(2, n + 1):
        q, q_prev = (((4 * k * k - 1) * x - 1.0) * q - (k - 1) * (2 * k + 1) * q_prev) / (
            (k + 1) * (2 * k - 1)
        ), q
    return q if q.ndim else float(q)


def legendre_poly_rodrigues(n: int) -> Poly:
    """Exact P_n as the n-th derivative of (x^2-1)^n / (2^n n!)."""
    base = Poly([-1, 0, 1])
    p = Poly([1])
    for _ in range(n):
        p = p * base
    for _ in range(n):
        p = p.deriv()
    return p.scale(Fraction(1, 2**n * math.factorial(n)))


@dataclass(frozen=True)
class RadialSpan:
    """Admissible power laws for radial (nu = 0) non-radiative data."""

    u0_exponents: tuple[int, ...]
    u1_exponents: tuple[int, ...]


def radial_span(d: int) -> RadialSpan:
    """Exponent sets {2k-d} spanned by radial exterior data in dimension d.

    Position: 1 <= k <= floor((d+1)/4); velocity: 1 <= k <= floor((d-1)/4).
    Dimension 2 admits none (data supported in the light cone only).
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    u0 = tuple(2 * k - d for k in range(1, (d + 1) // 4 + 1))
    u1 = tuple(2 * k - d for k in range(1, (d - 1) // 4 + 1))
    return RadialSpan(u0, u1)


def folded_leapfrog(initial, config) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The leapfrog stepper on its three diagonals, as a bit-for-bit reference.

    The same float operations in the same order as `radial_solver._solve`
    on a grid from r = 0, but on every row at every step, with the
    weights formed inline and fresh arrays every step, and the descriptor
    ghost from `ExteriorDescriptor.eval` at every step.  The quintic term
    is dt^2 F(u) = +-dt^2 u (u^2)^2, as `_fifth_power` forms u^5.
    Returns stored times, u and u_t rows, and blown_up.
    """
    r = config.radial_grid()
    D, desc = initial.lifted_dim, initial.descriptor
    dr, dt = config.dr, config.dt
    assert r[0] == 0.0
    quintic = {"none": 0.0, "defocusing_quintic": -(dt**2), "focusing_quintic": dt**2}[
        config.nonlinearity
    ]

    def advance(u, t):
        # 2 u + dt^2 (u_rr + ((D-1)/r) u_r + F(u)): interior, parity origin and ghost rows
        a = dt**2 / dr**2
        c = (0.5 * (D - 1) * dt**2 / dr) / r[1:]
        di = np.concatenate([[2.0 - 2.0 * D * a], np.full(r.size - 1, 2.0 - 2.0 * a)])
        lo = a - c
        up = np.concatenate([[2.0 * D * a], a + c[:-1]])
        if desc is not None:
            g = float(desc.eval(r[-1] + dr, t).u)
        else:
            g = 3.0 * u[-1] - 3.0 * u[-2] + u[-3]
        out = di * u
        out[1:] = out[1:] + lo * u[:-1]
        out[:-1] = out[:-1] + up * u[1:]
        out[-1] = out[-1] + (a + c[-1]) * g
        if quintic:
            u2 = u * u
            out = out + (u2 * u2 * u) * quintic
        return out

    def healthy(u):
        return bool(np.all(np.isfinite(u)) and np.max(np.abs(u)) <= config.blowup_threshold)

    times, us, uts = [0.0], [initial.u], [initial.ut]
    u_prev = initial.u.copy()
    u_curr = 0.5 * advance(u_prev, 0.0) + dt * initial.ut
    blown_up = not healthy(u_curr)
    n = 1
    while n <= config.n_steps and not blown_up:
        u_next = advance(u_curr, n * dt) - u_prev
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


def centred_leapfrog(initial, config) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The linear leapfrog stepper in its centred-stencil form.

    The same scheme as `radial_solver._solve`, rounded in another order:
    the operator u_rr + ((D-1)/r) u_r is applied as a stencil, then
    u_next = 2 u - u_prev + dt^2 rhs.  Its snapshots agree with the
    solver's to rounding, not bit for bit.  Fresh arrays every step and
    the descriptor ghost from `ExteriorDescriptor.eval` at every step.
    Returns stored times, u and u_t rows, and blown_up.
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


def _divmod_reference(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a / b, coefficients lowest degree first."""
    quot = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = q
        for i, bc in enumerate(b):
            rem[shift + i] -= q * bc
        rem.pop()
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _remainder_chain_reference(f: list[Fraction]) -> list[list[Fraction]]:
    """f, f' and the negated remainders, down to the last nonzero one."""
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        rem = _divmod_reference(chain[-2], chain[-1])[1]
        if rem == [0]:
            break
        chain.append([-c for c in rem])
    return chain


def _primitive(f: list[Fraction]) -> list[int]:
    """The content-free integer multiple of f with a positive factor."""
    denom = math.lcm(*(c.denominator for c in f))
    ints = [int(c * denom) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def sturm_chain_reference(coeffs) -> list[list[int]]:
    """Sturm chain of the square-free part of a polynomial of degree >= 1.

    Fraction long division; when the last remainder is not constant it
    is gcd(f, f'), and the chain is rebuilt from f / gcd(f, f').  Each
    member is returned as its content-free integer multiple.
    """
    f = [Fraction(c) for c in coeffs]
    chain = _remainder_chain_reference(f)
    if len(chain[-1]) > 1:
        chain = _remainder_chain_reference(_divmod_reference(f, chain[-1])[0])
    return [_primitive(g) for g in chain]


def _sign_changes_reference(chain: list[list[int]], x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * x + c
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots_reference(chain, a: Fraction, b: Fraction, max_depth: int = 64) -> list:
    """Brackets (lo, hi], each holding one distinct root, by bisection on
    the sign changes of a Sturm chain."""
    brackets = []
    stack = [(a, b, _sign_changes_reference(chain, a), _sign_changes_reference(chain, b), 0)]
    while stack:
        lo, hi, v_lo, v_hi, depth = stack.pop()
        count = v_lo - v_hi
        if count <= 0:
            continue
        if count == 1 or depth >= max_depth:
            brackets.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _sign_changes_reference(chain, mid)
        stack.append((lo, mid, v_lo, v_mid, depth + 1))
        stack.append((mid, hi, v_mid, v_hi, depth + 1))
    return brackets


def refine_root_reference(coeffs, lo: Fraction, hi: Fraction) -> Fraction | float:
    """``hi`` if the coefficients vanish there (`Fraction` Horner); else 80
    np.polyval bisection steps, keeping the half whose sign differs from that at ``hi``."""
    hi_value = Fraction(0)
    for c in reversed(coeffs):
        hi_value = hi_value * hi + c
    if hi_value == 0:
        return hi
    pf = np.asarray([float(c) for c in coeffs][::-1])
    a, b = float(lo), float(hi)
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = np.polyval(pf, m)
        if fm == 0.0:
            return m
        if np.sign(fm) == (1 if hi_value > 0 else -1):
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def wave_residual_reference(sol) -> dict[tuple[int, int], Fraction]:
    """u_tt - u_rr - ((D-1)/r) u_r of a chain in `Fraction`s, dropping each sum that cancels."""
    D = sol.lifted_dim
    acc: dict[tuple[int, int], Fraction] = {}

    def add(coeff: Fraction, a: int, b: int) -> None:
        if coeff == 0:
            return
        key = (a, b)
        acc[key] = acc.get(key, Fraction(0)) + coeff
        if acc[key] == 0:
            del acc[key]

    for coeff, a, b in sol.monomials():
        if a >= 2:
            add(coeff * a * (a - 1), a - 2, b)
        add(-coeff * b * (b + D - 2), a, b - 2)
    return acc


def cone_energy_terms_reference(monomials, D: int) -> list[tuple[Fraction, int, int]]:
    """Sorted nonzero (coeff, t_power, rho_power) of int_rho^inf (ut^2+ur^2) r^(D-1) dr, in `Fraction`s.

    `monomials` are the (coeff, t_power, r_power) of u in lifted dimension D.
    """
    ut, ur = [], []
    for coeff, a, b in monomials:
        if a >= 1:
            ut.append((coeff * a, a - 1, b))
        ur.append((coeff * b, a, b - 1))
    acc: dict[tuple[int, int], Fraction] = {}
    for family in (ut, ur):
        for (c1, a1, b1), (c2, a2, b2) in product(family, family):
            m = b1 + b2 + D
            assert m < 0
            key = (a1 + a2, m)
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2 / (-m)
    return [(c, a, m) for (a, m), c in sorted(acc.items()) if c != 0]


def worst_case_S_reference(params, R: float, r_max: float, grid_ratio: float = 1.05,
                           seed_value: float = 0.499) -> np.ndarray:
    """S of the extremal envelope, one row at a time.

    Each row masks the admissible r1 out of the whole built prefix and
    forms its candidates afresh; the probes interpolate through
    `np.searchsorted` on the prefix.  The rules are those of
    `decay_lab.worst_case_S`, whose grid ratio and seed value are the
    defaults here.
    """
    inner = sep = 4.0
    n = int(math.floor(math.log(r_max / R) / math.log(grid_ratio)))
    x = grid_ratio ** np.arange(n + 1)
    logx = np.log(x)
    S = np.empty(n + 1)
    alpha, l = params.alpha, params.l
    gstar = params.gamma_star

    def s_interp(p: float, i: int) -> float:
        j = int(np.searchsorted(logx[:i], math.log(p)))
        if j <= 0:
            return float(S[0])
        if j >= i:
            return float(S[i - 1])
        w = (math.log(p) - logx[j - 1]) / (logx[j] - logx[j - 1])
        lo = math.log(max(S[j - 1], 1e-300))
        hi = math.log(max(S[j], 1e-300))
        return math.exp((1 - w) * lo + w * hi)

    for i in range(n + 1):
        xi = float(x[i])
        if xi < inner * sep:
            S[i] = seed_value
            continue
        hi = xi / sep
        mask = (x[:i] >= inner) & (x[:i] <= hi)
        best = math.inf
        if np.any(mask):
            cand = 0.5 * (x[:i][mask] / xi) ** alpha + 0.5 * S[:i][mask] ** l
            best = float(np.min(cand))
        for p in (inner, hi, xi ** (1.0 / l), xi ** (alpha / (alpha + gstar * l))):
            if inner <= p <= hi:
                sp = s_interp(p, i)
                best = min(best, 0.5 * (p / xi) ** alpha + 0.5 * sp**l)
        if xi <= inner**l:
            best = min(best, seed_value)
        S[i] = best
    return S


def write_csv_reference(path: Path, header, rows) -> None:
    """The CLI's CSV table, one format(float(v), ".17g") per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def build_parser_reference() -> cli._Parser:
    """The CLI's parser with every subcommand's flags built, whatever the command line."""
    parser = cli._Parser(prog="wavechannel", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand")
    for name in cli._HANDLERS:
        schema = cli._schema(name)
        p = sub.add_parser(name, help=schema["description"])
        if name == "pipeline":
            p.add_argument("--config", required=True, help="JSON config file (required)")
            p.add_argument("--out", help=schema["properties"]["out"]["description"])
        else:
            cli._add_schema_flags(p, schema)
            p.add_argument("--config", help="JSON config file, schema-validated")
    return parser
