"""Machine-readable certificates for inequality evaluations.

Every certificate carries both sides of the comparison, the margin, the
effective tolerance, and a verdict, plus enough descriptor data (dims, seed,
parameters) to rebuild the instance bit-identically.  Certificates serialize
to JSON with a fixed field order so reports are byte-reproducible.

A stacked certifier returns numbers, not certificates: its :class:`_Blocks`
hold each member's rows ``(params, norm_kind, lhs, rhs, scale)``.  One
builder, :func:`_build`, computes every margin, effective tolerance and
verdict from them and makes each :class:`InequalityCertificate` once, where
it leaves the lab.  A certifier's own certificates (the ``check_*``
functions, :func:`norm_certificate`, :func:`loewner_certificate`) are built
with ``seed = -1`` and their own parameters only; a campaign
(:mod:`ttensor.campaigns`) builds its certificates with the campaign
``seed`` and ``"trial"`` as the first key of ``params``.

Two tolerance policies, both relative:

* norm inequalities ``lhs <= rhs``: holds iff ``lhs <= rhs + tol * (1 + |rhs|)``;
* semidefinite-order inequalities ``L <= R``: the margin is the smallest
  eigenvalue over the Fourier slices of ``R - L`` and must be at least
  ``-tol * (1 + ||R||_2)``.

:func:`loewner_certificate` is the one-member case of
:func:`_loewner_blocks`, which gives the rows of every member of a
stack of pairs (:class:`ttensor.core._Stack`) with one solver call for the
gaps.  It calls only the stack methods (the min gaps of
:meth:`_Stack.extremes` and the norms of :meth:`_Stack.spectral`), so it
certifies any stack type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Tensor3, _Stack
from .errors import _require_tol

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


@dataclass(frozen=True)
class InequalityCertificate:
    """Single inequality evaluation; ``holds`` iff ``margin >= -tol``.

    ``margin`` always equals ``rhs - lhs``.  For semidefinite-order checks the
    margin is the minimum gap eigenvalue, stored with ``lhs = -margin`` and
    ``rhs = 0`` so the same field convention covers both certificate kinds.
    ``tol`` is the effective (already scaled) tolerance.  ``seed`` is -1
    unless a campaign built the certificate.
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


class _Blocks(NamedTuple):
    """A stacked certifier's result, in numbers: ``members[i]`` lists member
    ``i``'s rows ``(params, norm_kind, lhs, rhs, scale)``, one per
    certificate, all of theorem ``theorem_id`` at shape ``dims`` and
    tolerance ``tol``.  ``scale`` is ``None`` for a norm inequality and
    ``||R||_2`` for a semidefinite order, whose row has ``lhs = -gap`` and
    ``rhs = 0``."""

    theorem_id: str
    dims: tuple
    tol: float
    members: list


def _build(blocks: _Blocks, seed: int = -1, trials=None) -> list[list[InequalityCertificate]]:
    """Each member's certificates, made from its rows: the one place a
    certificate is made.  A norm row's margin is ``rhs - lhs`` and its
    effective tolerance ``tol * (1 + |rhs|)``; an order row's margin is the
    gap ``-lhs`` and its effective tolerance ``tol * (1 + ||R||_2)``.  A
    row whose sides, order scale, margin or effective tolerance is not
    finite raises :class:`ValueError` naming the theorem: its verdict would
    mean nothing, and a report cannot print it as JSON.  A campaign passes
    its ``seed`` and member ``i``'s trial ``trials[i]``, which goes first
    in ``params``."""
    theorem_id, tol, seed = blocks.theorem_id, blocks.tol, int(seed)
    dims = tuple(int(d) for d in blocks.dims)
    out = []
    for i, rows in enumerate(blocks.members):
        provenance = {} if trials is None else {"trial": trials[i]}
        certs = []
        for params, norm_kind, lhs, rhs, scale in rows:
            lhs, rhs = float(lhs), float(rhs)
            margin = rhs - lhs if scale is None else -lhs
            effective = tol * (1.0 + (abs(rhs) if scale is None else scale))
            if not all(map(math.isfinite, (lhs, rhs, margin, effective))):
                raise ValueError(f"{theorem_id}: a certificate needs finite values ({lhs=}, {rhs=}, {scale=})")
            certs.append(InequalityCertificate(
                theorem_id, seed, dims, {**provenance, **params}, norm_kind,
                lhs, rhs, margin, effective, bool(margin >= -effective),
            ))
        out.append(certs)
    return out


def _square(v: float) -> float:
    """``v ** 2`` of a side's float, or ``inf`` where Python's ``**`` raises
    :class:`OverflowError`, so that :func:`_build` refuses the row and names
    its theorem.  (``v * v`` would round differently from ``**`` on some
    inputs and move report bytes.)"""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


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
    _require_tol(tol)
    return _build(_Blocks(theorem_id, dims, tol, [[(params, norm_kind, lhs, rhs, None)]]))[0][0]


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
    _require_tol(tol)
    lhs, rhs = _Stack.of(lhs_tensor), _Stack.of(rhs_tensor)
    return _build(_loewner_blocks(theorem_id, lhs, rhs, dims=dims, params=[params], tol=tol))[0][0]


def _loewner_blocks(
    theorem_id: str, lhs: _Stack, rhs: _Stack, *, dims, params: list, tol: float
) -> _Blocks:
    """The rows of :func:`loewner_certificate` of each member pair, member
    ``i`` with ``params[i]``; the gaps' slice spectra take one solver call."""
    gaps, _ = (rhs - lhs).sym().extremes()
    rows = [[(p, NO_NORM, -gap, 0.0, norm)] for gap, norm, p in zip(gaps, rhs.spectral(), params)]
    return _Blocks(theorem_id, dims, tol, rows)
