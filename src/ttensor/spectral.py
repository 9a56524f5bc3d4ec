"""Tensor spectra and tensor functions.

t-eigenvalues are the eigenvalues of the block-circulant unfolding, computed
slice-by-slice in the Fourier domain.  Tensor functions (real powers, square
root, absolute value) act on the Hermitian eigendecomposition of each Fourier
slice.  For real tensors only slices ``0 .. n3//2`` are decomposed, all of them
in one stacked solver call; the rest are mirrored as complex conjugates, which
makes every function output exactly real after the inverse transform.

Fourier slices are independent across slices, across tensors and across
trials (Kilmer & Martin, *Factorization strategies for third-order
tensors*, 2011), so the tensor functions also take stacks of tensors along a
leading trial axis (:class:`ttensor.core._Stack`): :func:`_t_powers` and
:func:`_abs_powers` take every member, each at its own exponents, with one
solver call per member shape, and :func:`t_power`, :func:`_abs_power` and
:func:`t_abs` are their one-member case.  Each member's result is bit for
bit its lone result: every step acts on each slice alone, and each distinct
exponent is applied as one Python number.  :func:`_t_eigenvalues` likewise
takes the general spectra of several tensors in one solver call.

A caller of the one-tensor functions that will need several spectra can
have them solved in one stacked call first:
:func:`_solve_ahead` builds the very stacks that :func:`t_power`,
:func:`_abs_power`, :func:`ttensor.algebra.is_t_psd`, the Loewner
certificates and :func:`t_eigenvalues` will ask for, and solves them together
inside a per-trial memo scope (:func:`ttensor.core._trial_memo`), where the
later calls find them stored.  A certifier calls it once per wave of
independent solves, so a campaign trial makes one solver call per wave rather
than one per tensor, and the lockstep batcher still merges each wave across
the trials of a window.  Outside a memo scope it does nothing.  A hint only
moves work earlier: the later calls compute exactly what they would have, and
a missing or stale hint costs speed, never a different result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    LoewnerVerdict,
    _asymmetry,
    _psd_stack,
    _t_product,
    is_symmetric,
    loewner_ge,
    t_product,
)
from .core import _MEMO, Tensor3, _as_generator, _Stack, gen_random, transpose
from .eigensolvers import HermitianEigen, general_eig, hermitian_eig
from .errors import (
    HypothesisViolationError,
    NotSymmetricError,
    NotTPSDError,
    ShapeMismatchError,
    SingularTensorError,
    TtensorError,
)
from .fourier import (
    _assemble_real_from_half,
    _inverse,
    _mirror_half,
    _self_conjugate_indices,
    to_fourier,
)

__all__ = [
    "TEigenSpectrum",
    "t_eigenvalues",
    "t_power",
    "t_abs",
    "gen_orthogonal",
    "young_witness",
    "multiset_distance",
]

_POWER_TOL = 1e-9
_CONJUGATE_TOL = 1e-12


@dataclass(frozen=True)
class TEigenSpectrum:
    """All n * n3 t-eigenvalues with the 0-based Fourier slice each came from."""

    values: np.ndarray
    slice_index: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _herm_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def t_eigenvalues(a) -> TEigenSpectrum:
    """t-eigenvalues of a square (real or complex) tensor.

    Real symmetric input goes through the Hermitian solver (real spectrum);
    everything else through the general solver.  As a multiset the result
    equals the spectrum of the block-circulant unfolding.
    """
    return _t_eigenvalues(a)[0]


def _t_eigenvalues(*tensors) -> list[TEigenSpectrum]:
    """:func:`t_eigenvalues` of each tensor.  The half spectra of the real
    tensors that take the general solver go to it in one stacked call when
    they share a shape (a member's values do not depend on the rest of the
    stack), so several tensors' spectra cost one solver round."""
    spectra = [None] * len(tensors)
    general = []
    for i, a in enumerate(tensors):
        if a.n1 != a.n2:
            raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {a.shape}")
        fa = to_fourier(a)
        if not isinstance(a, Tensor3):
            values = general_eig(fa.slices).ravel()
            spectra[i] = TEigenSpectrum(values, np.repeat(np.arange(a.n3), a.n1))
        elif _hermitian_spectrum(a):
            w = hermitian_eig(_psd_stack(_Stack.of(a))).values.astype(complex)
            spectra[i] = _mirrored_spectrum(w, a.n3)
        else:
            general.append((i, fa.half()))
    halves = [half for _, half in general]
    if len({half.shape for half in halves}) == 1:
        solved = np.split(general_eig(np.concatenate(halves)), len(halves))
    else:
        solved = map(general_eig, halves)
    for (i, _), w in zip(general, solved):
        spectra[i] = _mirrored_spectrum(w, tensors[i].n3)
    return spectra


def _mirrored_spectrum(w: np.ndarray, n3: int) -> TEigenSpectrum:
    """All t-eigenvalues from those of the half spectrum, ``w[k]`` for slice
    ``k``: slice k, then its conjugate partner n3 - k when that is another
    slice."""
    k = np.arange(len(w))
    keep = np.stack([np.full(len(k), True), (0 < k) & (k < n3 - k)], axis=1)
    values = np.stack([w, w.conj()], axis=1)[keep].ravel()
    provenance = np.repeat(np.stack([k, n3 - k], axis=1)[keep], w.shape[1])
    return TEigenSpectrum(values, provenance)


def _hermitian_spectrum(a) -> bool:
    """Whether :func:`t_eigenvalues` takes ``a``'s spectrum from the
    Hermitian solver: a real tensor, symmetric within ``PREDICATE_TOL``."""
    return isinstance(a, Tensor3) and bool(is_symmetric(a))


def multiset_distance(u, v) -> float:
    """Largest matched |difference| under a minimum-cost optimal assignment.

    Complex spectra admit no perturbation-stable total order, so multiset
    comparisons pair values by optimal assignment instead of sorting.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ShapeMismatchError("multisets must have equal cardinality")
    if len(u) == 0:
        return 0.0
    from scipy.optimize import linear_sum_assignment  # deferred: scipy loads slowly

    cost = np.abs(u[:, None] - v[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# tensor functions through Fourier-slice eigendecompositions
# ---------------------------------------------------------------------------

def _power_stack(x: _Stack) -> np.ndarray:
    """The stack :func:`t_power` decomposes: Fourier slices 0..n3//2 of each
    member, Hermitian-symmetrized, one ``(b * (n3//2 + 1), n, n)`` stack.

    Self-conjugate slices are clamped to their real symmetric part: for a
    symmetric real tensor they are real in exact arithmetic, and dropping the
    roundoff imaginary junk here keeps every function output exactly
    conjugate-symmetric after mirroring.
    """
    half = x.slices[:, : x.n3 // 2 + 1].copy()
    real_idx = _self_conjugate_indices(x.n3)
    half[:, real_idx] = half[:, real_idx].real
    return (0.5 * (half + _herm_t(half))).reshape(-1, *x.shape[:2])


def t_power(a: Tensor3, r: float) -> Tensor3:
    """Real power of a symmetric positive semidefinite tensor.

    Eigenvalues in ``[-_POWER_TOL * lambda_max, 0)`` are clamped to zero
    (transform roundoff makes tiny negatives inevitable); anything below that
    window is a genuine violation and raises.  Negative exponents additionally
    require strict definiteness: every eigenvalue at least
    ``_POWER_TOL * lambda_max``.  The input must be symmetric within
    ``_POWER_TOL``.
    """
    return _t_powers([_Stack.of(a)], [[r]])[0][0].member(0)


def _t_powers(xs: list[_Stack], *exponents, eig: HermitianEigen | None = None) -> list[list[_Stack]]:
    """:func:`t_power` of every member of every stack in ``xs`` at each of its
    exponents: ``exponents[j][k][i]`` is the ``j``-th exponent of member
    ``i`` of ``xs[k]``, and ``result[j][k]`` is ``xs[k]`` at those exponents.

    Stacks of one member shape are decomposed together, once whatever the
    number of exponents, in one solver call, or not at all when ``eig``
    holds the spectra of ``_power_stack`` of their concatenation.  Members
    are checked in order, each as :func:`t_power` checks it, so the first
    failing member raises the error it raises alone.  Each distinct exponent
    is applied as one Python number: numpy's ``**`` takes its square and
    square-root fast paths only for a scalar exponent, and those round
    differently from the general power.
    """
    if len({x.shape for x in xs}) > 1:
        alone = [_t_powers([x], *([e[k]] for e in exponents)) for k, x in enumerate(xs)]
        return [[out[j][0] for out in alone] for j in range(len(exponents))]
    x = _Stack.cat(*xs)
    exponents = [[r for rs in e for r in rs] for e in exponents]
    reasons = _asymmetry(x, _POWER_TOL)
    if x.shape[0] != x.shape[1]:
        raise NotSymmetricError(f"t_power requires a symmetric tensor: {reasons[0]}")
    eigs = eig or hermitian_eig(_power_stack(x))
    values = eigs.values.reshape(len(x), -1)
    extremes = zip(reasons, values.max(axis=1).tolist(), values.min(axis=1).tolist())
    for i, (reason, lam_max, min_eig) in enumerate(extremes):
        if reason:
            raise NotSymmetricError(f"t_power requires a symmetric tensor: {reason}")
        clamp_floor = _POWER_TOL * max(lam_max, 0.0)
        if min_eig < -clamp_floor:
            raise NotTPSDError(
                f"t_power requires positive semidefiniteness: eigenvalue {min_eig:.6e} "
                f"below -{clamp_floor:.3e}"
            )
        if any(e[i] < 0 for e in exponents) and (lam_max <= 0.0 or min_eig < _POWER_TOL * lam_max):
            raise SingularTensorError(
                -1, np.inf,
                f"negative power needs strict definiteness: smallest eigenvalue {min_eig:.3e}",
            )
    w = np.clip(eigs.values, 0.0, None)
    half = x.n3 // 2 + 1
    out = []
    positive = w > 0
    for e in exponents:
        row_exponent = np.repeat(np.asarray(e, dtype=float), half)
        pw = np.zeros_like(w)
        for r in dict.fromkeys(e):
            rows = row_exponent == r
            if r == 0:
                pw[rows] = 1.0
            else:
                pos = positive & rows[:, None]
                pw[pos] = w[pos] ** r
        m = (eigs.vectors * pw[:, None, :]) @ _herm_t(eigs.vectors)
        m = (0.5 * (m + _herm_t(m))).reshape(len(x), half, *x.shape[:2])
        power = _Stack(_inverse(_mirror_half(m, x.n3)))
        out.append((0.5 * (power + power.transpose())).split(len(xs)))
    return out


def _psd_and_power_spectra(xs: list[_Stack]) -> tuple:
    """The spectra that :func:`ttensor.algebra._psd_verdicts` and
    :func:`_t_powers` of the stacks in ``xs`` take, from one solver call:
    ``(psd, power)``, or ``(None, None)`` when the stacks differ in shape,
    are not square or the call raises, and each later call then solves its
    own stack and raises its own error where it would alone."""
    if len({x.shape for x in xs}) > 1 or xs[0].shape[0] != xs[0].shape[1]:
        return None, None
    x = _Stack.cat(*xs)
    psd = _psd_stack(x)
    try:
        e = hermitian_eig(np.concatenate([psd, _power_stack(x)]))
    except TtensorError:
        return None, None
    k = len(psd)
    return HermitianEigen(e.values[:k], e.vectors[:k]), HermitianEigen(e.values[k:], e.vectors[k:])


def t_abs(a: Tensor3) -> Tensor3:
    """Absolute value (a^T * a)^(1/2); symmetric positive semidefinite."""
    if a.n1 != a.n2:
        raise ShapeMismatchError(f"t_abs requires a square tensor, got {a.shape}")
    return _abs_power(a, 1.0)


def _abs_power(x: Tensor3, r: float) -> Tensor3:
    """``|x|^r``; see :func:`_abs_powers`."""
    return _abs_powers([_Stack.of(x)], [[r]])[0].member(0)


def _abs_powers(xs: list[_Stack], rs) -> list[_Stack]:
    """``|x|^r`` of every member of every stack in ``xs``, member ``i`` of
    ``xs[k]`` at ``rs[k][i]``, computed as the power ``r / 2`` of the
    symmetrized Gram ``x^T * x``; the one place every ``|X|^r`` in the
    package is taken.  Stacks of one member shape are taken together."""
    if len({x.shape for x in xs}) > 1:
        return [_abs_powers([x], [r])[0] for x, r in zip(xs, rs)]
    gram = _abs_gram(_Stack.cat(*xs))
    return _t_powers([gram], [[0.5 * r for rk in rs for r in rk]])[0][0].split(len(xs))


def _abs_gram(x: _Stack) -> _Stack:
    """The symmetrized Grams ``x^T * x`` whose powers give ``|x|^r``."""
    gram = _t_product(x.transpose(), x)
    return 0.5 * (gram + gram.transpose())


def _solve_ahead(*stacks, psd=(), order=(), power=(), absolute=(), spectra=()) -> None:
    """Solve now, in one stacked Hermitian solver call, the slice spectra
    that later calls in the same memo scope will ask for.

    Besides the raw ``stacks``, each keyword names the calls to prepare:
    ``psd`` for :func:`ttensor.algebra.is_t_psd` of each tensor (and for the
    Loewner certificates, given their gap tensor), ``order`` for
    :func:`ttensor.algebra.loewner_ge` of each pair ``(a, b)``, ``power`` for
    :func:`t_power` of each tensor, ``absolute`` for :func:`_abs_power` of
    each tensor and ``spectra`` for :func:`t_eigenvalues` of each tensor that
    takes the Hermitian solver.  Each stack is built by the very function that
    call uses, so the later call finds every member stored in the memo.

    Outside a memo scope nothing is stored for later, so nothing is built or
    solved.  An error while building or solving (a shape mismatch, a
    non-finite slice) is swallowed: the memo never stores one, so the later
    call raises it again at its own point in program order.
    """
    if _MEMO.get() is None:
        return
    try:
        stacks = [*stacks, *(_psd_stack(_Stack.of(a)) for a in psd)]
        stacks += [_psd_stack(_Stack.of(a - b)) for a, b in order]
        stacks += [_power_stack(_Stack.of(a)) for a in power]
        stacks += [_power_stack(_abs_gram(_Stack.of(x))) for x in absolute]
        stacks += [_psd_stack(_Stack.of(t)) for t in spectra if _hermitian_spectrum(t)]
        if stacks and len({s.shape[1:] for s in stacks}) == 1:
            hermitian_eig(np.concatenate(stacks))
    except TtensorError:
        pass


def gen_orthogonal(n: int, n3: int, rng) -> Tensor3:
    """Random orthogonal tensor from slicewise QR of a random tensor.

    QR is taken on Fourier slices 0..n3//2 with the R diagonal sign-normalized
    positive (pins the factor uniquely), conjugate slices mirrored.
    """
    g = _as_generator(rng)
    r = gen_random((n, n, n3), g)
    half = to_fourier(r).half()
    real_idx = _self_conjugate_indices(n3)
    q_half = np.empty_like(half)
    for k, s in enumerate(half):
        q, rr = np.linalg.qr(s.real if k in real_idx else s)
        d = np.diagonal(rr).copy()
        d[d == 0] = 1.0
        q_half[k] = q * (d / np.abs(d))
    return _assemble_real_from_half(q_half, n3)


def young_witness(
    a: Tensor3, b: Tensor3, p: float, q: float, tol: float = _POWER_TOL
) -> tuple[Tensor3, LoewnerVerdict]:
    """Constructive orthogonal witness for the generalized Young inequality.

    For conjugate exponents ``1/p + 1/q = 1`` builds an orthogonal tensor U
    aligning, per Fourier slice, the eigenbasis of ``|A * B^T|`` with that of
    ``|A|^p / p + |B|^q / q``, so that the conjugated absolute value is
    dominated whenever the sorted eigenvalues are.  Returns U and the verdict
    for ``|A|^p / p + |B|^q / q >= U^T * |A * B^T| * U``; a dominance failure
    shows up as a failed verdict rather than an exception.
    """
    if a.shape != b.shape or a.n1 != a.n2:
        raise ShapeMismatchError(
            f"young_witness needs equal square shapes, got {a.shape} and {b.shape}"
        )
    _require_conjugate(p, q)

    sa = to_fourier(a).half()
    sb = to_fourier(b).half()
    grams = _young_grams(sa, sb)
    # self-conjugate slices are clamped to their real parts, in real arithmetic
    for k in _self_conjugate_indices(a.n3):
        for g, real_g in zip(grams, _young_grams(sa[k].real, sb[k].real)):
            g[k] = real_g
    grams = np.concatenate(grams)
    ab_t = t_product(a, transpose(b))
    _solve_ahead(grams, absolute=[a, b, ab_t])
    e = hermitian_eig(grams)  # |A_k B_k^H| = V sqrt(w) V^H
    e_c, e_a, e_b = map(HermitianEigen, np.split(e.values, 3), np.split(e.vectors, 3))

    def power(e, r):  # V clip(w)^r V^H per slice
        return (e.vectors * np.clip(e.values, 0.0, None)[:, None, :] ** r) @ _herm_t(e.vectors)
    d = power(e_a, p / 2) / p + power(e_b, q / 2) / q
    e_d = hermitian_eig(0.5 * (d + _herm_t(d)))
    u = _assemble_real_from_half(e_c.vectors @ _herm_t(e_d.vectors), a.n3)
    rhs = (1.0 / p) * _abs_power(a, p) + (1.0 / q) * _abs_power(b, q)
    conjugated = t_product(t_product(transpose(u), t_abs(ab_t)), u)
    verdict = loewner_ge(rhs, 0.5 * (conjugated + transpose(conjugated)), tol)
    return u, verdict


def _require_conjugate(p: float, q: float) -> None:
    """Require conjugate exponents: ``p, q > 1`` and ``1/p + 1/q = 1`` within
    ``_CONJUGATE_TOL``, else :class:`HypothesisViolationError`.

    The one exponent check of the Young and Hoelder statements.  For the
    Hoelder bounds it also makes the tube-count prefactor
    ``n3^(1/(2p) + 1/(2q) - 1/2)`` identically 1, so they leave it out.
    """
    if not (p > 1 and q > 1 and abs(1.0 / p + 1.0 / q - 1.0) <= _CONJUGATE_TOL):
        raise HypothesisViolationError(f"exponents p={p}, q={q} are not conjugate")


def _young_grams(sa, sb):
    """``(P^H P, A^H A, B^H B)`` with ``P = A B^H``, per slice or per stack member."""
    prod = sa @ _herm_t(sb)
    return _herm_t(prod) @ prod, _herm_t(sa) @ sa, _herm_t(sb) @ sb
