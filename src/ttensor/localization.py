"""t-eigenvalue localization and perturbation bounds.

Disc localization, the quadratic spectral-sum bound, the conditioned
perturbation bound for diagonalizable tensors, and the optimal-matching bound
for normal pairs.  Matching bounds are certified against two constants: the
stated ``n3 * ||B - A||_F`` and the tighter ``sqrt(n3) * ||B - A||_F`` that
the unfolding identity ``||bcirc(X)||_F = sqrt(n3) * ||X||_F`` yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PREDICATE_TOL, is_f_diagonal, is_normal, is_symmetric, t_inverse, t_product
from .certificates import (
    DEFAULT_TOL,
    FROBENIUS,
    SPECTRAL,
    InequalityCertificate,
    norm_certificate,
)
from .core import ComplexTensor3, Tensor3, frobenius_norm, spectral_norm
from .errors import HypothesisViolationError, ShapeMismatchError
from .spectral import TEigenSpectrum, _solve_ahead, _t_eigenvalues, t_eigenvalues

__all__ = [
    "GershgorinDisc",
    "MatchingReport",
    "ComponentCount",
    "schur_bound",
    "gershgorin_discs",
    "gershgorin_gaps",
    "gershgorin_contains",
    "gershgorin_component_count",
    "bauer_fike",
    "hoffman_wielandt",
    "sorted_pairing_distance",
    "diag_spectrum_bound",
]


@dataclass(frozen=True)
class GershgorinDisc:
    """Disc in the complex plane: center is the (i, i, 0) entry, radius the
    remaining absolute row mass across all slices."""

    center: complex
    radius: float

    def to_json_dict(self) -> dict:
        return {
            "center_re": float(self.center.real),
            "center_im": float(self.center.imag),
            "radius": float(self.radius),
        }


@dataclass(frozen=True)
class MatchingReport:
    """Optimal assignment between two spectra with both matching bounds.

    ``bound_stated`` is the stated n3-factor bound; ``bound_sqrt`` the tighter
    sqrt(n3) form.  The wire format keys are fixed by the report schema.
    """

    permutation: tuple
    matched_distance: float
    bound_sqrt: float
    bound_stated: float

    def to_json_dict(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "matched_distance": self.matched_distance,
            "bound_sqrt": self.bound_sqrt,
            "bound_paper": self.bound_stated,
        }


@dataclass(frozen=True)
class ComponentCount:
    """Connected disc component with its disc count and the number of
    t-eigenvalues it holds, normalized by the tube count n3."""

    discs: tuple
    disc_count: int
    eigenvalue_count: float


def schur_bound(a, tol: float = DEFAULT_TOL) -> InequalityCertificate:
    """Quadratic spectral-sum bound: sum |lambda_i|^2 <= n3 * ||A||_F^2."""
    spectrum = t_eigenvalues(a)
    lhs = float(np.sum(np.abs(spectrum.values) ** 2))
    rhs = a.n3 * frobenius_norm(a) ** 2
    return norm_certificate(
        "schur", dims=a.shape, params={}, norm_kind=FROBENIUS, lhs=lhs, rhs=rhs, tol=tol
    )


def gershgorin_discs(a) -> list[GershgorinDisc]:
    """One disc per row: center a[i, i, 0], radius the full absolute row sum
    over all columns and slices minus |a[i, i, 0]|."""
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"discs require a square tensor, got {a.shape}")
    out = []
    row_mass = np.abs(a.data).sum(axis=(1, 2))
    for i in range(a.n1):
        center = complex(a.data[i, i, 0])
        out.append(GershgorinDisc(center, float(row_mass[i] - abs(center))))
    return out


def gershgorin_gaps(discs, spectrum) -> tuple[np.ndarray, np.ndarray, float]:
    """``(gaps, nearest, scale)`` for the values of ``spectrum``.

    ``gaps[i]`` is value i's distance outside its nearest disc (negative
    inside), ``nearest[i]`` that disc's index (the lowest index wins ties),
    and ``scale = 1 + max(|center| + radius)`` the magnitude that disc
    tolerances are relative to.  Distances use ``hypot`` on the real and
    imaginary parts, so they equal scalar ``abs`` bit for bit.
    """
    values = spectrum.values if isinstance(spectrum, TEigenSpectrum) else spectrum
    diff = np.asarray(values, dtype=complex)[:, None] - np.array([d.center for d in discs])
    all_gaps = np.hypot(diff.real, diff.imag) - np.array([d.radius for d in discs])
    nearest = np.argmin(all_gaps, axis=1)
    scale = 1.0 + max((abs(d.center) + d.radius for d in discs), default=0.0)
    return all_gaps[np.arange(len(nearest)), nearest], nearest, scale


def gershgorin_contains(discs, spectrum, tol: float = DEFAULT_TOL) -> bool:
    """True iff every value lies within ``tol * scale`` of some disc."""
    gaps, _, scale = gershgorin_gaps(discs, spectrum)
    return not np.any(gaps > tol * scale)


def gershgorin_component_count(
    discs, spectrum, tol: float = DEFAULT_TOL
) -> list[ComponentCount]:
    """Group discs into overlap-connected components and count the
    t-eigenvalues each component holds.

    Each of the n tensor discs stands for n3 identical rows of the unfolding,
    so a disjoint component of k discs must hold exactly k * n3 t-eigenvalues;
    the returned count is normalized by n3 so it can be compared with the disc
    count directly.
    """
    values = spectrum.values if isinstance(spectrum, TEigenSpectrum) else np.asarray(spectrum)
    n = len(discs)
    if n == 0:
        return []
    if len(values) % n != 0:
        raise HypothesisViolationError(
            f"{len(values)} eigenvalues cannot be grouped by {n} discs"
        )
    n3 = len(values) // n
    gaps, nearest, scale = gershgorin_gaps(discs, values)
    slack = tol * scale

    # union-find over the disc overlap graph
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(discs[i].center - discs[j].center) <= discs[i].radius + discs[j].radius + slack:
                parent[find(i)] = find(j)

    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)

    counts = {root: 0 for root in members}
    for z, gap, best in zip(values, gaps, nearest):
        if gap > slack:
            raise HypothesisViolationError(f"eigenvalue {z} escapes every disc by {gap:.3e}")
        counts[find(int(best))] += 1

    return [
        ComponentCount(tuple(idx), len(idx), counts[root] / n3)
        for root, idx in sorted(members.items(), key=lambda kv: min(kv[1]))
    ]


def bauer_fike(
    a: Tensor3,
    b: Tensor3,
    q: Tensor3,
    s: Tensor3,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Perturbation bound for a diagonalizable tensor a = q^-1 * s * q.

    Certifies that every t-eigenvalue of ``a`` has a t-eigenvalue of ``b``
    within ``||q^-1||_2 * ||q||_2 * ||a - b||_2``.
    """
    hypothesis_tol = max(tol, PREDICATE_TOL)
    fd = is_f_diagonal(s, hypothesis_tol)
    if not fd:
        raise HypothesisViolationError(f"S is not f-diagonal: {fd.reason}")
    q_inv = t_inverse(q)
    recon = t_product(t_product(q_inv, s), q)
    residual = frobenius_norm(a - recon)
    if residual > hypothesis_tol * (1.0 + frobenius_norm(a)):
        raise HypothesisViolationError(
            f"a is not reproduced by q^-1 * s * q (residual {residual:.3e})"
        )
    lam, mu = (spectrum.values for spectrum in _t_eigenvalues(a, b))
    lhs = float(max(np.abs(mu - z).min() for z in lam))
    rhs = spectral_norm(q_inv) * spectral_norm(q) * spectral_norm(a - b)
    return norm_certificate(
        "bauer-fike", dims=a.shape, params={}, norm_kind=SPECTRAL, lhs=lhs, rhs=rhs, tol=tol
    )


def _matched_distance(lam: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float]:
    from scipy.optimize import linear_sum_assignment  # deferred: scipy loads slowly

    cost = np.abs(mu[None, :] - lam[:, None]) ** 2
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows)
    perm = cols[order]
    return perm, float(np.sqrt(cost[rows, cols].sum()))


def hoffman_wielandt(
    a: Tensor3, b: Tensor3, tol: float = DEFAULT_TOL
) -> tuple[MatchingReport, InequalityCertificate, InequalityCertificate]:
    """Optimal spectral matching bound for normal tensors.

    Returns the minimal-distance assignment between the two spectra plus
    certificates against the stated constant (``n3``) and the tightened
    constant (``sqrt(n3)``).
    """
    for name, t in (("A", a), ("B", b)):
        nv = is_normal(t, max(tol, PREDICATE_TOL))
        if not nv:
            raise HypothesisViolationError(f"{name} is not normal: {nv.reason}")
    _solve_ahead(spectra=[a, b])
    lam = t_eigenvalues(a).values
    mu = t_eigenvalues(b).values
    perm, dist = _matched_distance(lam, mu)
    diff = frobenius_norm(b - a)
    report = MatchingReport(
        tuple(int(i) for i in perm), dist,
        float(np.sqrt(a.n3) * diff), float(a.n3 * diff),
    )
    cert_sqrt, cert_stated = (
        norm_certificate(
            "hoffman-wielandt", dims=a.shape, params={"pairing": "optimal", "constant": const},
            norm_kind=FROBENIUS, lhs=dist, rhs=rhs, tol=tol,
        )
        for const, rhs in (("sqrt-n3", report.bound_sqrt), ("n3", report.bound_stated))
    )
    return report, cert_sqrt, cert_stated


def sorted_pairing_distance(a: Tensor3, b: Tensor3) -> float:
    """Distance of the ascending-sorted pairing of two real (symmetric) spectra."""
    for name, t in (("A", a), ("B", b)):
        if not is_symmetric(t):
            raise HypothesisViolationError(f"{name} must be symmetric for sorted pairing")
    lam = np.sort(t_eigenvalues(a).values.real)
    mu = np.sort(t_eigenvalues(b).values.real)
    return float(np.sqrt(((mu - lam) ** 2).sum()))


def diag_spectrum_bound(
    a: Tensor3, b: Tensor3, tol: float = DEFAULT_TOL
) -> list[InequalityCertificate]:
    """Norm bounds on the paired-spectra diagonal of T = A + iB (A, B symmetric).

    With both spectra sorted by descending magnitude, certifies the stated
    Frobenius form with prefactor 1/n3, the spectral form
    ``max_k sqrt(alpha_k^2 + beta_k^2) <= sqrt(2) ||T||_2``, and the tightened
    Frobenius variant with prefactor 1/sqrt(n3).
    """
    for name, t in (("A", a), ("B", b)):
        sv = is_symmetric(t, max(tol, PREDICATE_TOL))
        if not sv:
            raise HypothesisViolationError(f"{name} is not symmetric: {sv.reason}")
    if a.shape != b.shape:
        raise HypothesisViolationError(f"shape mismatch: {a.shape} vs {b.shape}")
    _solve_ahead(spectra=[a, b])
    alpha = t_eigenvalues(a).values.real
    beta = t_eigenvalues(b).values.real
    alpha = alpha[np.argsort(-np.abs(alpha), kind="stable")]
    beta = beta[np.argsort(-np.abs(beta), kind="stable")]
    t_complex = ComplexTensor3.from_parts(a, b)
    ft = frobenius_norm(t_complex)
    st = spectral_norm(t_complex)
    paired = np.sqrt(alpha**2 + beta**2)
    diag_fro = float(np.sqrt((paired**2).sum()))

    def cert(claim, norm_kind, lhs, rhs):
        return norm_certificate(
            "diag-spectrum", dims=a.shape, params={"claim": claim}, norm_kind=norm_kind,
            lhs=lhs, rhs=rhs, tol=tol,
        )

    return [
        cert("frobenius-stated", FROBENIUS, diag_fro / a.n3, np.sqrt(2) * ft),
        cert("spectral", SPECTRAL, float(paired.max()), np.sqrt(2) * st),
        cert("frobenius-tight", FROBENIUS, diag_fro / np.sqrt(a.n3), np.sqrt(2) * ft),
    ]
