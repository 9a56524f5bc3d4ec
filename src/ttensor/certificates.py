"""Machine-readable certificates for inequality evaluations.

Every certificate carries both sides of the comparison, the margin, the
effective tolerance, and a verdict, plus enough descriptor data (dims, seed,
parameters) to rebuild the instance bit-identically.  Certificates serialize
to JSON with a fixed field order so reports are byte-reproducible.

A certifier is a pure function of its instance: it records only its own
parameters, and its certificate has ``seed = -1``.  A campaign
(:mod:`ttensor.campaigns`) stamps the provenance afterwards, setting ``seed``
and putting ``"trial"`` first in ``params``.

Two tolerance policies, both relative:

* norm inequalities ``lhs <= rhs``: holds iff ``lhs <= rhs + tol * (1 + |rhs|)``;
* semidefinite-order inequalities ``L <= R``: the margin is the smallest
  eigenvalue over the Fourier slices of ``R - L`` and must be at least
  ``-tol * (1 + lambda_max(R))``.

:func:`loewner_certificate` is the one-member case of
:func:`_loewner_certificates`, which certifies every member of a stack of
pairs (:class:`ttensor.core._Stack`) with one solver call for the gaps.  It
calls only the stack methods (the min gaps of :meth:`_Stack.extremes` and
the norms of :meth:`_Stack.spectral`), so it certifies any stack type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor3, _Stack

__all__ = [
    "InequalityCertificate",
    "norm_certificate",
    "loewner_certificate",
    "loewner_min_gap",
    "FROBENIUS",
    "SPECTRAL",
    "NO_NORM",
]

FROBENIUS = "frobenius"
SPECTRAL = "spectral"
NO_NORM = "n/a"

DEFAULT_TOL = 1e-8


def _require_tol(tol: float) -> None:
    """Raise :class:`ValueError` unless ``tol`` is a finite number ``>= 0``:
    a NaN, infinite or negative tolerance makes every verdict against it
    wrong."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


@dataclass(frozen=True)
class InequalityCertificate:
    """Single inequality evaluation; ``holds`` iff ``margin >= -tol``.

    ``margin`` always equals ``rhs - lhs``.  For semidefinite-order checks the
    margin is the minimum gap eigenvalue, stored with ``lhs = -margin`` and
    ``rhs = 0`` so the same field convention covers both certificate kinds.
    ``tol`` is the effective (already scaled) tolerance.  ``seed`` is -1
    until a campaign stamps its certificates.
    """

    theorem_id: str
    seed: int
    dims: tuple[int, ...]
    params: dict
    norm_kind: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "seed": self.seed,
            "dims": list(self.dims),
            "params": _plain(self.params),
            "norm_kind": self.norm_kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "holds": self.holds,
        }


def _plain(value):
    """Recursively convert numpy scalars so json round-trips canonically."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def norm_certificate(
    theorem_id: str,
    *,
    dims,
    params: dict,
    norm_kind: str,
    lhs: float,
    rhs: float,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Certificate for a scalar inequality ``lhs <= rhs``."""
    lhs = float(lhs)
    rhs = float(rhs)
    effective = tol * (1.0 + abs(rhs))
    margin = rhs - lhs
    return InequalityCertificate(
        theorem_id, -1, tuple(int(d) for d in dims), dict(params),
        norm_kind, lhs, rhs, margin, effective, bool(margin >= -effective),
    )


def loewner_min_gap(lhs_tensor: Tensor3, rhs_tensor: Tensor3) -> float:
    """Smallest eigenvalue over the Fourier slices of ``rhs - lhs``."""
    return (_Stack.of(rhs_tensor) - _Stack.of(lhs_tensor)).sym().extremes()[0][0]


def loewner_certificate(
    theorem_id: str,
    lhs_tensor: Tensor3,
    rhs_tensor: Tensor3,
    *,
    dims,
    params: dict,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Certificate for ``lhs_tensor <= rhs_tensor`` in the semidefinite order."""
    return _loewner_certificates(
        theorem_id, _Stack.of(lhs_tensor), _Stack.of(rhs_tensor), dims=dims, params=[params], tol=tol
    )[0]


def _loewner_certificates(
    theorem_id: str, lhs: _Stack, rhs: _Stack, *, dims, params: list, tol: float
) -> list[InequalityCertificate]:
    """:func:`loewner_certificate` of each member pair, member ``i`` with
    ``params[i]``; the gaps' slice spectra take one solver call."""
    gaps, _ = (rhs - lhs).sym().extremes()
    norms = rhs.spectral()
    dims = tuple(int(d) for d in dims)
    out = []
    for gap, norm, p in zip(gaps, norms, params):
        effective = tol * (1.0 + norm)
        out.append(InequalityCertificate(
            theorem_id, -1, dims, dict(p), NO_NORM, -gap, 0.0, gap, effective, bool(gap >= -effective),
        ))
    return out
