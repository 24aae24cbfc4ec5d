"""Recovery of local times and distances from spanning-tree statistics.

Both flavours share the same estimators and differ only in the normalizer:
the stable flavour divides degrees by k^(1/alpha) and multiplies branch
counts by (Gamma(2-alpha)/alpha) * eps^(alpha-1); the theta flavour divides
degrees by PsiInv(k) and branch counts by gamma(eps).
"""
from __future__ import annotations

from dataclasses import dataclass

from .paths import StepPath, record_ancestors, running_min, tau
from .theta import ThetaParam, gamma_coverage, psi_inv, stable_constants


@dataclass(frozen=True)
class Normalizer:
    kind: str
    _degree_norm: callable
    _distance_norm: callable

    def degree_norm(self, k):
        v = self._degree_norm(k)
        if v <= 0:
            raise ValueError("degree norm must be positive")
        return v

    def distance_norm(self, eps):
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self._distance_norm(eps)


def stable_normalizer(alpha):
    consts = stable_constants(alpha)
    return Normalizer(
        kind=f"stable({alpha})",
        _degree_norm=lambda k: k ** (1.0 / alpha),
        _distance_norm=lambda eps: consts.height_prefactor * eps ** (alpha - 1.0),
    )


def icrt_normalizer(theta: ThetaParam):
    return Normalizer(
        kind="icrt",
        _degree_norm=lambda k: psi_inv(theta, k),
        _distance_norm=lambda eps: 1.0 / gamma_coverage(theta, eps),
    )


@dataclass
class EstimateResult:
    """Final normalized value plus the whole diagnostic trajectory."""

    value: float
    trajectory: list


def estimate_local_time(degree_sequence, norm: Normalizer):
    """Normalized degree deg/norm(k) at the largest k, with trajectory."""
    pairs = sorted(degree_sequence)
    if not pairs:
        raise ValueError("empty degree sequence")
    traj = [(k, deg / norm.degree_norm(k)) for k, deg in pairs]
    return EstimateResult(value=traj[-1][1], trajectory=traj)


def estimate_distance(branch_count, eps, norm: Normalizer):
    """branch_count * distance_norm(eps)."""
    return branch_count * norm.distance_norm(eps)


def path_distance_estimate(path: StepPath, t1, t2, eps, norm: Normalizer):
    """Distance between the points above t1 and t2 from record-jump counts.

    d(t1, t2) = d(root, t1) + d(root, t2) - 2 d(root, b), where b is the
    common-ancestor jump of the pair and d(root, t) counts record jumps of
    size above eps on the way to t, scaled by the distance normalizer.
    """
    if t1 == t2:
        return 0.0
    lo, hi = min(t1, t2), max(t1, t2)
    b = tau(path, lo, running_min(path, lo, hi))

    def droot(t):
        return len(record_ancestors(path, t, eps)) * norm.distance_norm(eps)

    return droot(t1) + droot(t2) - 2.0 * droot(b)
