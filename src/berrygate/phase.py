"""Decomposition of cyclic-evolution phases into dynamic and geometric parts.

The total phase of a closed evolution splits as total = dynamic + geometric,
with the dynamic part -int <psi|H|psi> dt and the geometric part depending
only on the path traced in projective space.  The geometric part is computed
here as the discrete Bargmann/Pancharatnam holonomy

    gamma = - sum_k arg <psi_k | psi_{k+1}>      (endpoints identified)

which is gauge invariant mod 2*pi by construction, needs no smooth reference
lift, and converges at second order to the continuum line integral.  For a
densely sampled path the accumulated sum also carries the winding (e.g. -2*pi
for a full-sphere cone loop) rather than collapsing to a principal value;
branch bookkeeping beyond mod 2*pi is only meaningful for such continuous
paths.  wrap_to_pi is the canonicalizer onto (-pi, pi].  berry_cone_phase is
the closed form the cone loop and the echo report against, and
eigenstate_path continues instantaneous eigenstates along a Hamiltonian path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_OVERLAP = 0.1


class DegenerateSpectrumError(RuntimeError):
    """Eigenstate tracking hit a (near-)degenerate spectrum."""


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total, dynamic and geometric phase (rad) of one cyclic evolution."""

    total: float
    dynamic: float
    geometric: float

    @classmethod
    def from_total_and_dynamic(cls, total: float, dynamic: float) -> "PhaseDecomposition":
        return cls(total=total, dynamic=dynamic, geometric=total - dynamic)


@dataclass(frozen=True)
class LoopSpec:
    """Cone loop on the Bloch sphere: half-angle theta in [0, pi], number of
    discretization points (>= 8) of the azimuth over [0, 2*pi), and traversal
    orientation 'forward' or 'reversed'."""

    theta: float
    n_steps: int
    orientation: str = "forward"

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if self.n_steps < 8:
            raise ValueError("need at least 8 discretization steps")
        if self.orientation not in ("forward", "reversed"):
            raise ValueError("orientation must be 'forward' or 'reversed'")


def cone_state_path(spec: LoopSpec) -> np.ndarray:
    """States along the closed cone loop of the given spec, azimuth sampled on
    [0, 2*pi) without the duplicate endpoint (shape (n_steps, 2))."""
    sign = 1.0 if spec.orientation == "forward" else -1.0
    alphas = sign * 2.0 * math.pi * np.arange(spec.n_steps) / spec.n_steps
    c, s = math.cos(0.5 * spec.theta), math.sin(0.5 * spec.theta)
    out = np.empty((spec.n_steps, 2), dtype=complex)
    out[:, 0] = c
    out[:, 1] = s * np.exp(1j * alphas)
    return out


def geometric_phase_discrete(states: np.ndarray) -> float:
    """Discrete holonomy -sum_k arg<psi_k|psi_{k+1}> around a closed path.

    The product wraps around to the first state, making the result
    independent of each state's individual phase (mod 2*pi).  Any
    consecutive overlap with magnitude below 0.1 means the path is too coarse
    and raises ValueError.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[0] < 2:
        raise ValueError("need at least 2 states")
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    mags = np.abs(overlaps)
    if np.any(mags <= MIN_OVERLAP):
        k = int(np.argmin(mags))
        raise ValueError(
            f"consecutive states {k},{k+1} nearly orthogonal "
            f"(|overlap| = {mags[k]:.3g}); path too coarse"
        )
    return float(-np.sum(np.angle(overlaps)))


def berry_cone_phase(theta: float) -> float:
    """Closed-form geometric phase -pi*(1 - cos theta) of a full cone loop at
    half-angle theta (aligned branch, forward traversal)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return -math.pi * (1.0 - math.cos(theta))


def cos_theta_resonance(omega0: float, omega: float, omega1: float) -> float:
    """Cone angle cosine (omega0 - omega) / sqrt((omega0 - omega)^2 + omega1^2)
    of the rotating-frame Rabi vector against the z axis."""
    dz = omega0 - omega
    denom = math.hypot(dz, omega1)
    if denom == 0.0:
        raise ValueError("Rabi vector vanishes (on resonance with zero amplitude)")
    return dz / denom


def solid_angle_spherical_polygon(vertices) -> float:
    """Signed solid angle (steradian) subtended by a closed spherical polygon.

    Computed as the sum of signed spherical excesses of the fan triangles
    (v0, vi, vi+1), each from the stable half-angle form
    tan(Omega/2) = det[a b c] / (1 + a.b + b.c + c.a).  Positive for
    counterclockwise traversal seen from outside the sphere.  Vertices must be
    unit 3-vectors, at least 3, with no two consecutive ones antipodal.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 3:
        raise ValueError("need at least 3 vertices of dimension 3")
    norms = np.linalg.norm(verts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("vertices must be unit vectors")
    dots = np.einsum("ij,ij->i", verts, np.roll(verts, -1, axis=0))
    if np.any(dots < -1.0 + 1e-12):
        raise ValueError("consecutive vertices are antipodal")
    if np.any(dots > 1.0 - 1e-15):
        raise ValueError("degenerate polygon: repeated consecutive vertices")

    total = 0.0
    v0 = verts[0]
    for i in range(1, len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        num = float(np.dot(v0, np.cross(a, b)))
        den = 1.0 + float(np.dot(v0, a) + np.dot(a, b) + np.dot(b, v0))
        total += 2.0 * math.atan2(num, den)
    return total


def eigenstate_path(hams, branch: int) -> np.ndarray:
    """Instantaneous eigenvectors of a sequence of Hamiltonians, tracked
    continuously: each step's eigenvector is phase-aligned so its overlap with
    the previous one is real positive.

    branch indexes the eigenvalues in ascending order (0 = lowest).  A gap
    |E_branch - E_other| below 1e-9 times the spectral scale max(|E_min|,
    |E_max|) (1e-300 for the zero matrix) aborts with
    DegenerateSpectrumError, since tracking through a degeneracy is
    ill-defined.
    """
    hams = [np.asarray(h, dtype=complex) for h in hams]
    dim = hams[0].shape[0]
    if not 0 <= branch < dim:
        raise ValueError(f"branch must be in [0, {dim})")
    out = np.empty((len(hams), dim), dtype=complex)
    prev = None
    for k, h in enumerate(hams):
        evals, evecs = np.linalg.eigh(h)
        ref = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        gaps = [abs(evals[branch] - evals[j]) for j in range(dim) if j != branch]
        if min(gaps) < 1e-9 * ref:
            raise DegenerateSpectrumError(
                f"eigenvalue gap {min(gaps):.3e} below 1e-9 * {ref:.3e} at step {k}"
            )
        vec = evecs[:, branch]
        if prev is not None:
            ov = np.vdot(prev, vec)
            if abs(ov) < MIN_OVERLAP:
                raise ValueError(
                    f"eigenstate continuity lost at step {k} (|overlap| = {abs(ov):.3g})"
                )
            vec = vec * (np.conj(ov) / abs(ov))
        out[k] = vec
        prev = vec
    return out


def wrap_to_pi(x: float) -> float:
    """Canonicalize an angle onto (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    elif y > math.pi:
        y -= 2.0 * math.pi
    return y


def circle_distance(a: float, b: float) -> float:
    """Distance |a - b| on the circle, i.e. up to multiples of 2*pi."""
    return abs(wrap_to_pi(a - b))
