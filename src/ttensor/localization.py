"""t-eigenvalue localization and perturbation bounds.

Disc localization, the quadratic spectral-sum bound, the conditioned
perturbation bound for diagonalizable tensors, and the optimal-matching bound
for normal pairs.  Matching bounds are certified against two constants: the
stated ``n3 * ||B - A||_F`` and the tighter ``sqrt(n3) * ||B - A||_F`` that
the unfolding identity ``||bcirc(X)||_F = sqrt(n3) * ||X||_F`` yields.

The certifiers are the ``b = 1`` case of stacked ones (``_schur``,
``_bauer_fike``, ``_hoffman_wielandt``, ``_diag_spectrum``) that take their
tensors as stacks along a leading trial axis (:class:`ttensor.core._Stack`)
and return their certificates as numbers, one list of rows per member
(:class:`ttensor.certificates._Blocks`), which the public certifiers and
the campaigns build; ``_gershgorin`` is the stacked
containment and component-count certificate that the ``gershgorin``
campaign runs, from the public disc functions.  They read
spectra only through :meth:`ttensor.core._Stack.eigenvalues`, one array
of each member's t-eigenvalues, and a
certifier of two stacks takes those of ``a.cat(b)``: its non-symmetric
members share one general solver call, and its symmetric members read the
cat's Hermitian half spectra, so a campaign window solves the symmetric
pairs of ``_sorted_pairing_distances``, ``_diag_spectrum`` and the
Hoffman-Wielandt campaign in one Jacobi call.  The matchings and the disc
components are found member by member.

The stacked certifiers call only stack methods, so they run on any stack
type (the tests run them at 50 digits).  Gershgorin's discs and
Bauer-Fike's f-diagonal gate read their inputs' entries, through the
stack's ``data`` and ``member``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import PREDICATE_TOL, _hypothesis_tol, _normality, _off_diagonality, _require_symmetric
from .certificates import (
    DEFAULT_TOL,
    FROBENIUS,
    NO_NORM,
    SPECTRAL,
    InequalityCertificate,
    _Blocks,
    _build,
    _square,
)
from .core import Tensor3, _check_same_shape, _Stack, frobenius_norm
from .errors import ShapeMismatchError, _require, _require_each, _require_tol
from .spectral import TEigenSpectrum, _matched_distance, _sorted_pairing, t_eigenvalues

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
    _require_tol(tol)
    row = _schur_row(t_eigenvalues(a).values, frobenius_norm(a), a.n3)
    return _build(_Blocks("schur", a.shape, tol, [[row]]))[0][0]


def _schur(x: _Stack, tol: float) -> _Blocks:
    """:func:`schur_bound` of each member of a real stack."""
    rows = [[_schur_row(values, norm, x.n3)] for values, norm in zip(x.eigenvalues(), x.frobenius())]
    return _Blocks("schur", x.shape, tol, rows)


def _schur_row(values: np.ndarray, norm: float, n3: int) -> tuple:
    return {}, FROBENIUS, float(np.sum(np.abs(values) ** 2)), n3 * _square(norm), None


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
    _require_tol(tol)
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
    count directly.  The count assumes Gershgorin's theorem: a value more
    than ``tol * scale`` (:func:`gershgorin_gaps`) outside every disc raises
    :class:`HypothesisViolationError`.
    """
    _require_tol(tol)
    values = spectrum.values if isinstance(spectrum, TEigenSpectrum) else np.asarray(spectrum)
    if not len(discs):
        return []
    _require(len(values) % len(discs) == 0, f"{len(values)} eigenvalues cannot be grouped by {len(discs)} discs")
    gaps, nearest, scale = gershgorin_gaps(discs, values)
    _require_each(
        (f"{z} escapes every disc by {gap:.3e}" if gap > tol * scale else "" for z, gap in zip(values, gaps)),
        "eigenvalue {}",
    )
    return _component_count(discs, nearest, tol * scale)


def _component_count(discs, nearest, slack: float) -> list[ComponentCount]:
    """:func:`gershgorin_component_count` of nonempty ``discs`` from the
    nearest disc of each value (:func:`gershgorin_gaps`), discs within
    ``slack`` of each other overlapping: a value is counted in its nearest
    disc's component however far outside that disc it lies."""
    n = len(discs)
    n3 = len(nearest) // n

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

    members: dict[int, list[int]] = {}  # each component in order of its lowest disc
    for i in range(n):
        members.setdefault(find(i), []).append(i)

    counts = Counter(find(int(best)) for best in nearest)
    return [ComponentCount(tuple(idx), len(idx), counts[root] / n3) for root, idx in members.items()]


def _gershgorin(x: _Stack, tol: float) -> _Blocks:
    """The containment and component-count certificates of each member;
    the discs and their components are found member by member, both
    certificates from one :func:`gershgorin_gaps` of the member."""
    out = []
    for i, values in enumerate(x.eigenvalues()):
        discs = gershgorin_discs(x.member(i))
        gaps, nearest, scale = gershgorin_gaps(discs, values)
        components = _component_count(discs, nearest, tol * scale)
        miscount = max(abs(c.eigenvalue_count - c.disc_count) for c in components)
        out.append([
            ({"claim": claim}, NO_NORM, lhs, 0.0, None)
            for claim, lhs in (("containment", float(gaps.max()) / scale), ("component-count", miscount))
        ])
    return _Blocks("gershgorin", x.shape, tol, out)


def bauer_fike(
    a: Tensor3,
    b: Tensor3,
    q: Tensor3,
    s: Tensor3,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Perturbation bound for a diagonalizable tensor a = q^-1 * s * q.

    Certifies that every t-eigenvalue of ``a`` has a t-eigenvalue of ``b``
    within ``||q^-1||_2 * ||q||_2 * ||a - b||_2``.  ``q`` is inverted
    first, so a singular ``q`` raises :class:`SingularTensorError` before
    ``s`` is checked to be f-diagonal.
    """
    _require_tol(tol)
    return _build(_bauer_fike(*(_Stack.of(t) for t in (a, b, q, s)), tol))[0][0]


def _bauer_fike(a: _Stack, b: _Stack, q: _Stack, s: _Stack, tol: float) -> _Blocks:
    """:func:`bauer_fike` of each member.  ``q`` is inverted first
    (``q.inverse()``, which a float stack keeps, so the draw's inverse is
    read again), and the reproduction gate and the bound read the inverse;
    both spectra of every member take one general solver call."""
    q_inverse = q.inverse()
    hypothesis_tol = _hypothesis_tol(tol)
    _require_each(_off_diagonality(s.data, hypothesis_tol), "S is not f-diagonal: {}")
    for res, norm in zip((a - q_inverse @ s @ q).frobenius(), a.frobenius()):
        _require(
            not res > hypothesis_tol * (1.0 + norm),
            f"a is not reproduced by q^-1 * s * q (residual {res:.3e})",
        )
    spectra = a.cat(b).eigenvalues()
    norms = zip(*(x.spectral() for x in (q_inverse, q, a - b)))
    out = []
    for lam, mu, (n_inv, n_q, n_diff) in zip(spectra, spectra[len(a):], norms):
        blocks = np.split(lam, range(64, len(lam), 64))  # each block's matrix: 64 x n*n3
        lhs = float(max(np.abs(mu - z[:, None]).min(axis=1).max() for z in blocks))
        out.append([({}, SPECTRAL, lhs, n_inv * n_q * n_diff, None)])
    return _Blocks("bauer-fike", a.shape, tol, out)


def hoffman_wielandt(
    a: Tensor3, b: Tensor3, tol: float = DEFAULT_TOL
) -> tuple[MatchingReport, InequalityCertificate, InequalityCertificate]:
    """Optimal spectral matching bound for normal tensors.

    Returns the minimal-distance assignment between the two spectra plus
    certificates against the stated constant (``n3``) and the tightened
    constant (``sqrt(n3)``).
    """
    _require_tol(tol)
    reports, blocks = _hoffman_wielandt(_Stack.of(a), _Stack.of(b), tol)
    return (reports[0], *_build(blocks)[0])


def _hoffman_wielandt(a: _Stack, b: _Stack, tol: float) -> tuple[list[MatchingReport], _Blocks]:
    """:func:`hoffman_wielandt` of each member: the reports and the rows of
    the optimal pairing; the spectra are those of ``a.cat(b)``."""
    for name, x in (("A", a), ("B", b)):
        _require_each(_normality(x, _hypothesis_tol(tol)), f"{name} is not normal: {{}}")
    spectra = a.cat(b).eigenvalues()
    reports = []
    for lam, mu, diff in zip(spectra, spectra[len(a):], (b - a).frobenius()):
        perm, dist = _matched_distance(lam, mu)
        reports.append(MatchingReport(
            tuple(int(i) for i in perm), dist,
            float(np.sqrt(a.n3) * diff), float(a.n3 * diff),
        ))
    rows = [_matching_rows("optimal", report) for report in reports]
    return reports, _Blocks("hoffman-wielandt", a.shape, tol, rows)


def _matching_rows(pairing: str, report: MatchingReport) -> list:
    """The rows of the pairing's distance, ``report.matched_distance``,
    against both bounds of ``report``: the ``sqrt(n3)`` one, then the
    stated ``n3`` one."""
    return [
        ({"pairing": pairing, "constant": const}, FROBENIUS, report.matched_distance, rhs, None)
        for const, rhs in (("sqrt-n3", report.bound_sqrt), ("n3", report.bound_stated))
    ]


def sorted_pairing_distance(a: Tensor3, b: Tensor3) -> float:
    """Distance of the ascending-sorted pairing of two real (symmetric) spectra."""
    return _sorted_pairing_distances(_Stack.of(a), _Stack.of(b))[0]


def _sorted_pairing_distances(a: _Stack, b: _Stack) -> list[float]:
    """:func:`sorted_pairing_distance` of each member pair."""
    _check_same_shape(a, b)
    _require_symmetric(PREDICATE_TOL, A=a, B=b)
    spectra = a.cat(b).eigenvalues()
    return [_sorted_pairing(lam.real, mu.real)[1] for lam, mu in zip(spectra, spectra[len(a):])]


def diag_spectrum_bound(
    a: Tensor3, b: Tensor3, tol: float = DEFAULT_TOL
) -> list[InequalityCertificate]:
    """Norm bounds on the paired-spectra diagonal of T = A + iB (A, B symmetric).

    With both spectra sorted by descending magnitude, certifies the stated
    Frobenius form with prefactor 1/n3, the spectral form
    ``max_k sqrt(alpha_k^2 + beta_k^2) <= sqrt(2) ||T||_2``, and the tightened
    Frobenius variant with prefactor 1/sqrt(n3).
    """
    _require_tol(tol)
    return _build(_diag_spectrum(_Stack.of(a), _Stack.of(b), tol))[0]


def _diag_spectrum(a: _Stack, b: _Stack, tol: float) -> _Blocks:
    """:func:`diag_spectrum_bound` of each member; the spectra take one
    solver call.  The norms of ``T = A + iB`` come first, so the stack of
    both spectra carries the Fourier slices they transformed."""
    _require_symmetric(tol, A=a, B=b)
    norms = zip(*a.cartesian_norms(b))
    spectra = a.cat(b).eigenvalues()
    n3 = a.n3

    def row(claim, norm_kind, lhs, rhs):
        return {"claim": claim}, norm_kind, lhs, rhs, None

    out = []
    for alpha, beta, (ft, st) in zip(spectra, spectra[len(a):], norms):
        alpha, beta = alpha.real, beta.real
        alpha = alpha[np.argsort(-np.abs(alpha), kind="stable")]
        beta = beta[np.argsort(-np.abs(beta), kind="stable")]
        paired = np.sqrt(alpha**2 + beta**2)
        diag_fro = float(np.sqrt((paired**2).sum()))
        out.append([
            row("frobenius-stated", FROBENIUS, diag_fro / n3, np.sqrt(2) * ft),
            row("spectral", SPECTRAL, float(paired.max()), np.sqrt(2) * st),
            row("frobenius-tight", FROBENIUS, diag_fro / np.sqrt(n3), np.sqrt(2) * ft),
        ])
    return _Blocks("diag-spectrum", a.shape, tol, out)
