"""A 50-digit stack type that runs the certifier bodies.

:class:`_MpStack` has the stack algebra of :class:`ttensor.core._Stack`
(``@``, ``transpose``, ``sym``, ``+``, ``-``, ``*``, ``power``,
``abs_power``, ``align``, ``frobenius``, ``spectral``, ``inverse``,
``gram_residuals``, ``extremes``, ``eigenvalues``, ``cartesian_norms``,
``cat``, ``split``, ``where``), so the stacked certifiers of
:mod:`ttensor.inequalities` and :mod:`ttensor.localization`, the gates of
:mod:`ttensor.algebra` and the Young witness of :mod:`ttensor.spectral`
run on it unchanged.  It holds each member's half spectrum, Fourier slices
``0 .. n3//2`` as mpmath matrices, from a 50-digit DFT of the same float
inputs; the other slices are their conjugates, so the half spectrum
carries the whole member (Kilmer & Martin, LAA 2011).  A stack made from
a float stack keeps it, and reads its entries where a certifier reads its
inputs' entries: Gershgorin's discs and Bauer-Fike's f-diagonal gate.

Per half slice it multiplies, inverts, takes conjugate transposes, powers,
alignments and min gaps through ``eighe`` of the Hermitian part, and
spectral norms through ``svd_c``; Frobenius norms, and with them the
residuals of the orthogonality and normality gates, come from Parseval.
t-eigenvalues take ``eighe`` of the Hermitian half slices of a member
whose symmetry residual is at most ``PREDICATE_TOL * ||X||_F`` and ``eig``
of the half slices of any other, rounded to complex128 and mirrored as the
float kernel mirrors them.  A power is taken of the formed product (no factored form), and
``|x|^r`` of the formed Gram, where the float stack takes the SVD of the
factor; 50 digits make both accurate enough.  The norms, gaps and
t-eigenvalues are rounded to float64 at the end, which moves a margin by
about 1e-16 of its scale, far below every certificate's tolerance.
mpmath is imported on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ttensor.algebra import PREDICATE_TOL
from ttensor.core import _check_same_shape
from ttensor.errors import ShapeMismatchError
from ttensor.fourier import _parseval_weights
from ttensor.spectral import _mirrored_spectrum

DIGITS = 50


@lru_cache(maxsize=None)
def _mp():
    """A private mpmath context at ``DIGITS`` digits."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = DIGITS
    return ctx


def _per_member(value, b: int) -> list:
    return list(value) if np.ndim(value) else [value] * b


class _MpStack:
    """``b`` real tensors of shape ``(n1, n2, n3)``; ``halves[i][k]`` is
    Fourier slice ``k`` of member ``i``, for ``k`` in ``0 .. n3//2``.  A
    stack made by :meth:`of` keeps the float stack ``source`` it was made
    from, whose entries :attr:`data` and :meth:`member` read."""

    def __init__(self, halves: list, shape: tuple, source=None):
        self.halves, self.shape, self._source = halves, tuple(shape), source

    @classmethod
    def of(cls, x) -> "_MpStack":
        """The members of the float stack ``x``, transformed at 50 digits;
        the stack keeps ``x`` for its entries."""
        mp = _mp()
        _, n1, n2, n3 = x.data.shape
        roots = [[mp.expjpi(mp.mpf(-2 * k * t) / n3) for t in range(n3)] for k in range(n3 // 2 + 1)]
        halves = []
        for member in x.data:
            tubes = [[[mp.mpf(float(v)) for v in member[i, j]] for j in range(n2)] for i in range(n1)]
            halves.append([
                mp.matrix([[mp.fdot(w, tubes[i][j]) for j in range(n2)] for i in range(n1)]) for w in roots
            ])
        return cls(halves, (n1, n2, n3), x)

    @property
    def data(self) -> np.ndarray:
        """The entries of the float stack this stack was made from, the
        input that Gershgorin's discs and Bauer-Fike's f-diagonal gate read."""
        return self._source.data

    def member(self, i: int):
        """Member ``i`` of the float stack this stack was made from."""
        return self._source.member(i)

    @property
    def n3(self) -> int:
        return self.shape[2]

    def __len__(self) -> int:
        return len(self.halves)

    def _map(self, f, *others, shape=None) -> "_MpStack":
        """``f`` of each half slice and the same slices of ``others``."""
        members = zip(self.halves, *(o.halves for o in others))
        return _MpStack([[f(*s) for s in zip(*m)] for m in members], shape or self.shape)

    def _weights(self) -> list:
        """Each half slice's count among all slices: 1 if self-conjugate, else 2."""
        return _parseval_weights(self.n3).tolist()

    # --- the stack algebra --------------------------------------------------

    def cat(self, *others: "_MpStack") -> "_MpStack":
        for o in others:
            _check_same_shape(self, o)
        return _MpStack([m for x in (self, *others) for m in x.halves], self.shape)

    def split(self, parts: int) -> list:
        size = len(self) // parts
        return [_MpStack(self.halves[i:i + size], self.shape) for i in range(0, len(self), size)]

    def where(self, mask, other: "_MpStack") -> "_MpStack":
        _check_same_shape(self, other)
        return _MpStack([x if m else y for m, x, y in zip(mask, self.halves, other.halves)], self.shape)

    def transpose(self) -> "_MpStack":
        n1, n2, n3 = self.shape
        return self._map(lambda s: s.H, shape=(n2, n1, n3))

    def sym(self) -> "_MpStack":
        return (self + self.transpose()) * 0.5

    def __add__(self, other: "_MpStack") -> "_MpStack":
        _check_same_shape(self, other)
        return self._map(lambda s, t: s + t, other)

    def __sub__(self, other: "_MpStack") -> "_MpStack":
        _check_same_shape(self, other)
        return self._map(lambda s, t: s - t, other)

    def __mul__(self, scalar) -> "_MpStack":
        mp = _mp()
        c = [mp.mpf(float(v)) for v in _per_member(scalar, len(self))]
        return _MpStack([[s * ci for s in m] for m, ci in zip(self.halves, c)], self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other: "_MpStack") -> "_MpStack":
        a, b = self.shape, other.shape
        if a[1] != b[0] or a[2] != b[2]:
            raise ShapeMismatchError(f"cannot multiply {a} by {b}")
        return self._map(lambda s, t: s * t, other, shape=(a[0], b[1], a[2]))

    def power(self, r) -> "_MpStack":
        """Each member's Hermitian half slices at ``r`` (or ``r[i]``), the
        eigenvalues clipped at 0 as in the float kernel."""
        mp = _mp()

        def slice_power(s, ri):
            e, q = mp.eighe((s + s.H) * 0.5)
            return q * mp.diag([max(v, 0) ** ri for v in e]) * q.H

        rs = [mp.mpf(float(v)) for v in _per_member(r, len(self))]
        return _MpStack([[slice_power(s, ri) for s in m] for m, ri in zip(self.halves, rs)], self.shape)

    def align(self, other: "_MpStack") -> "_MpStack":
        """Per half slice, ``V W^H`` with ``V`` and ``W`` the eigenvectors of
        the Hermitian parts of this stack's and ``other``'s slices, in the
        ascending eigenvalue order ``eighe`` returns."""
        mp = _mp()
        _check_same_shape(self, other)

        def vectors(s):
            return mp.eighe((s + s.H) * 0.5)[1]

        return self._map(lambda s, t: vectors(s) * vectors(t).H, other)

    def abs_power(self, r) -> "_MpStack":
        """``|x|^r`` as the power ``r / 2`` of the formed Gram ``x^T x``."""
        return (self.transpose() @ self).sym().power([0.5 * v for v in _per_member(r, len(self))])

    def frobenius(self) -> list:
        mp = _mp()
        weights = self._weights()
        return [
            float(mp.sqrt(mp.fsum(w * mp.mnorm(s, "f") ** 2 for w, s in zip(weights, m)) / self.n3))
            for m in self.halves
        ]

    def spectral(self) -> list:
        return [float(max(_sigma_max(s) for s in m)) for m in self.halves]

    def inverse(self) -> "_MpStack":
        """Each member's inverse, the inverse of each half slice."""
        return self._map(_mp().inverse)

    def gram_residuals(self) -> tuple[list, list, list]:
        """The Frobenius norms of ``x^T x - I``, ``x x^T - I`` and
        ``x^T x - x x^T``, each formed per half slice."""
        eye = self._map(lambda s: _mp().eye(s.rows))
        left, right = self.transpose() @ self, self @ self.transpose()
        return (left - eye).frobenius(), (right - eye).frobenius(), (left - right).frobenius()

    def extremes(self) -> tuple[list, list]:
        mp = _mp()
        mins, scales = [], []
        for m in self.halves:
            w = [v for s in m for v in mp.eighe((s + s.H) * 0.5, eigvals_only=True)]
            mins.append(float(min(w)))
            scales.append(float(max(abs(v) for v in w)))
        return mins, scales

    def eigenvalues(self) -> np.ndarray:
        """Each member's t-eigenvalues, one ``(b, n * n3)`` complex array in
        the float stack's order."""
        mp = _mp()
        out = []
        residuals = (self - self.transpose()).frobenius()
        for m, residual, norm in zip(self.halves, residuals, self.frobenius()):
            if residual > PREDICATE_TOL * norm:
                w = [mp.eig(s, left=False, right=False) for s in m]
            else:
                w = [mp.eighe((s + s.H) * 0.5, eigvals_only=True) for s in m]
            out.append(_mirrored_spectrum(np.array([[complex(v) for v in ws] for ws in w]), self.n3))
        return np.array(out)

    def cartesian_norms(self, other: "_MpStack") -> tuple[list, list]:
        """The norms of ``T = A + iB`` from all ``n3`` slices of ``T``: a
        mirrored slice of ``T`` is ``conj(A_k) + i conj(B_k)``."""
        mp = _mp()
        _check_same_shape(self, other)
        weights = self._weights()
        frobenius, spectral = [], []
        for ma, mb in zip(self.halves, other.halves):
            slices = [a + b * 1j for a, b in zip(ma, mb)]
            slices += [a.conjugate() + b.conjugate() * 1j for w, a, b in zip(weights, ma, mb) if w == 2]
            total = mp.fsum(mp.mnorm(t, "f") ** 2 for t in slices)
            frobenius.append(float(mp.sqrt(total / self.n3)))
            spectral.append(float(max(_sigma_max(t) for t in slices)))
        return frobenius, spectral


def _sigma_max(s):
    return max(_mp().svd_c(s, compute_uv=False))
