"""Parameter sequences theta and their calculus.

ThetaParam stores a non-increasing positive prefix theta_1 >= ... >= theta_N
plus a declared bound on the squared tail mass.  The module provides the
degree normalizer Psi(t) = sum of phi(theta_i * t) with phi(x) = e^-x - 1 + x,
its inverse, the coverage function gamma(eps) = sum of theta_i above eps, and
the constants attached to a stable exponent alpha in (1, 2).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize
from scipy.special import gamma as gamma_fn

PSI_INV_TOL = 1e-10


@dataclass(frozen=True)
class ThetaParam:
    """Finite prefix of a ranked parameter sequence.

    tail_l2 bounds the squared mass of the dropped tail (0 for exactly finite
    sequences).  nominal_alpha is set when the sequence was sampled as a
    truncated stable-jump surrogate.
    """

    atoms: np.ndarray
    tail_l2: float = 0.0
    nominal_alpha: float | None = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).reshape(-1)
        if atoms.size and (np.any(atoms <= 0) or np.any(np.diff(atoms) > 0)):
            raise ValueError("atoms must be positive and non-increasing")
        if self.tail_l2 < 0:
            raise ValueError("tail_l2 must be nonnegative")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    def __len__(self):
        return self.atoms.size

    def to_json(self):
        obj = {"atoms": self.atoms.tolist(), "tail_l2": self.tail_l2}
        if self.nominal_alpha is not None:
            obj["nominal_alpha"] = self.nominal_alpha
        return obj

    @classmethod
    def from_json(cls, obj):
        return cls(np.asarray(obj["atoms"], dtype=float),
                   float(obj.get("tail_l2", 0.0)),
                   obj.get("nominal_alpha"))


@dataclass(frozen=True)
class StableConstants:
    """Constants attached to the exponent alpha of a one-sided stable law."""

    alpha: float
    c_alpha: float
    gamma_limit: float
    height_prefactor: float


def stable_constants(alpha):
    """c_alpha = alpha(alpha-1)/Gamma(2-alpha) and its companions."""
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    g = gamma_fn(2.0 - alpha)
    return StableConstants(
        alpha=alpha,
        c_alpha=alpha * (alpha - 1.0) / g,
        gamma_limit=alpha / g,
        height_prefactor=g / alpha,
    )


def _phi(x):
    # e^-x - 1 + x, accurate for small x
    return np.expm1(-x) + x


def psi(theta: ThetaParam, t, with_bound=False):
    """Psi(t) over the stored prefix.

    With with_bound=True, also returns the upper bound tail_l2 * t^2 / 2 on
    the contribution of the dropped tail (phi(x) <= x^2 / 2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    value = float(np.sum(_phi(theta.atoms * t)))
    if with_bound:
        return value, theta.tail_l2 * t * t / 2.0
    return value


def psi_inv(theta: ThetaParam, y):
    """t with |psi(t) - y| <= 1e-10 * max(1, y); strictly increasing in y."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    if len(theta) == 0:
        raise ValueError("theta has no atoms")
    if y == 0.0:
        return 0.0
    hi = 1.0
    while psi(theta, hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("psi never reaches y")
    t = optimize.brentq(lambda u: psi(theta, u) - y, 0.0, hi,
                        xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=200)
    return float(t)


def gamma_coverage(theta: ThetaParam, eps):
    """gamma(eps) = sum of stored atoms strictly above eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if theta.tail_l2 > 0 and len(theta) and eps < theta.atoms[-1]:
        warnings.warn("eps below the stored prefix: gamma is truncated", RuntimeWarning)
    return float(theta.atoms[theta.atoms > eps].sum())


def stable_phi_integral(alpha, t, a, b):
    """Integral of phi(t x) against the jump intensity c_alpha x^{-1-alpha} dx
    over [a, b].  Over (0, inf) the integral equals t^alpha exactly."""
    c = stable_constants(alpha).c_alpha

    def f(x):
        return (math.expm1(-t * x) + t * x) * c * x ** (-1.0 - alpha)

    val, _ = integrate.quad(f, a, b, limit=200)
    return val


@dataclass
class AsymptoticsReport:
    """Normalized ratios of the three limit statements on a grid."""

    alpha: float
    psi_ratios: list = field(default_factory=list)        # (t, Psi(t)/t^alpha)
    psi_inv_ratios: list = field(default_factory=list)    # (k, PsiInv(k)/k^(1/alpha))
    gamma_ratios: list = field(default_factory=list)      # (eps, eps^(a-1) gamma / limit)

    def max_deviation(self):
        devs = [abs(r - 1.0) for _, r in
                self.psi_ratios + self.psi_inv_ratios + self.gamma_ratios]
        return max(devs) if devs else 0.0


def check_asymptotics(theta: ThetaParam, t_grid, eps_grid, small_jump_floor=None):
    """Ratios Psi(t)/t^alpha, PsiInv(t)/t^(1/alpha) and the normalized
    coverage eps^(alpha-1) gamma(eps) / (alpha / Gamma(2-alpha)).

    Requires nominal_alpha.  When small_jump_floor = (delta, cutoff) is given,
    the mean contribution of unstored jumps in [delta, cutoff) is added to
    Psi analytically (the fluctuation of that contribution is negligible at
    the grid scales used here).
    """
    if theta.nominal_alpha is None:
        raise ValueError("check_asymptotics requires nominal_alpha")
    alpha = theta.nominal_alpha
    consts = stable_constants(alpha)
    report = AsymptoticsReport(alpha=alpha)
    for t in t_grid:
        v = psi(theta, t)
        if small_jump_floor is not None:
            delta, cutoff = small_jump_floor
            v += stable_phi_integral(alpha, t, delta, cutoff)
        report.psi_ratios.append((t, v / t ** alpha))
        report.psi_inv_ratios.append((t, psi_inv(theta, t) / t ** (1.0 / alpha)))
    for eps in eps_grid:
        r = eps ** (alpha - 1.0) * gamma_coverage(theta, eps) / consts.gamma_limit
        report.gamma_ratios.append((eps, r))
    return report


def parse_theta_spec(spec, rng=None):
    """Inline parameter specs.

    "geometric:r,N"      -> theta_i = r^(i-1), i <= N (0 < r < 1)
    "polynomial:c,p,N"   -> theta_i = c * i^-p, i <= N
    "stable:alpha,delta[,seed]" -> truncated stable-jump surrogate; uses the
    provided generator, or one derived from the inline seed.
    """
    kind, _, rest = spec.partition(":")
    parts = [p for p in rest.split(",") if p]
    arity = {"geometric": (2,), "polynomial": (3,), "stable": (2, 3)}
    if kind in arity and len(parts) not in arity[kind]:
        raise ValueError(f"{kind} spec takes {' or '.join(map(str, arity[kind]))} "
                         f"values, got {len(parts)}: {spec!r}")
    if kind == "geometric":
        r, n = float(parts[0]), int(parts[1])
        if not 0 < r < 1:
            raise ValueError("geometric ratio must lie in (0, 1)")
        return ThetaParam(r ** np.arange(n, dtype=float))
    if kind == "polynomial":
        c, p, n = float(parts[0]), float(parts[1]), int(parts[2])
        return ThetaParam(c * np.arange(1, n + 1, dtype=float) ** (-p))
    if kind == "stable":
        from .rng import make_generator
        from .samplers import sample_stable_jump_surrogate
        alpha, delta = float(parts[0]), float(parts[1])
        if len(parts) > 2:
            rng = make_generator(int(parts[2]))
        if rng is None:
            raise ValueError("stable spec requires a generator or an inline seed")
        return sample_stable_jump_surrogate(alpha, delta, rng)
    raise ValueError(f"unknown theta spec kind: {kind!r}")
