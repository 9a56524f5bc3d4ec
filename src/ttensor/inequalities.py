"""One certifier per operator / norm inequality.

Every certifier checks its hypotheses before evaluating either side and
raises :class:`HypothesisViolationError` on an unverified instance; PSD
operands and the order ``A >= B`` (``A - B`` PSD) go through one gate,
:func:`ttensor.algebra._require_psd`.  Certifiers whose circulating
statement is defective carry a ``literal`` mode that evaluates the
statement as printed (useful for recording counterexamples) next to the
default ``corrected`` mode that evaluates the mathematically valid form:

* ``am-gm`` literal omits one factor on the right-hand side
  (``||A^T * X + ...||`` instead of ``||A^T * A * X + ...||``);
* ``complex-norm-a`` literal claims ``||A||^2 + ||B||^2 <= ||A + iB||^2`` for
  the spectral norm, which fails already for commuting projections onto
  orthogonal directions; the corrected bound carries a factor 1/2;
* ``complex-norm-b`` literal claims ``||T||_F^2 >= ||A||_F^2 + 2||B||_F^2``,
  which fails for scalars; the corrected form is the exact identity
  ``||T||_F^2 = ||A||_F^2 + ||B||_F^2``.

The norm inequalities (``am-gm``, ``heinz-family``, the three Hoelder forms
and ``minkowski``) hold in every unitarily invariant norm, so each of these
certifiers checks its hypotheses and forms its tensors once, then returns the
Frobenius certificates followed by the spectral ones.

Every public certifier is the ``b = 1`` case of a stacked certifier
(``_loewner_heinz``, ``_furuta``, ``_am_gm``, ...) that takes its tensors as
stacks along a leading trial axis (:class:`ttensor.core._Stack`) and its
scalars as one list per argument, and returns its certificates as numbers,
one list of rows per member (:class:`ttensor.certificates._Blocks`); the
public certifier builds its member's certificates
(:func:`ttensor.certificates._build`), and a campaign certifies a whole
window with one call and builds them with their provenance.  The stacked
certifiers call only the stack algebra of :class:`ttensor.core._Stack`
(``@``, ``transpose``, ``sym``, ``power``, ``abs_power``, the norms,
``extremes``, ``cat``, ``split``, ``where``) and the gates and the Young
witness built on it, so the same bodies run on any stack type that has
those methods.  Every semidefinite-order row, the Young witness's
included, comes from :func:`ttensor.certificates._loewner_blocks`.
The tensors under ``|X|^r`` in one certifier are powered together when
they share a shape (:func:`_powers`).  A stacked certifier
also stacks its own independent slice spectra, one solver call per wave: it
names the stacks whose spectra a wave needs in one request
(:func:`ttensor.core._solve_together`, which only the float stack acts on),
each stack keeps its decomposition for the gates and the powers that read
it, and the stacks a wave powers are concatenated so that one power
application covers them.  ``furuta`` takes the decompositions of B (for
its PSD check and its powers), of the order gap A - B and of A in one call,
both sandwich powers in a second and both Loewner gaps in a third.
``loewner-heinz``, ``furuta``, ``hansen-power`` and ``young-commuting``
check ``tol`` and their scalar parameters first, then form the products
their first wave needs (``A - B``, ``Q^T X Q``, ``A B``) before any
hypothesis gate, so a mis-shaped call raises a shape error even when it
also violates a hypothesis.  Hypotheses are checked member by member, each
in the order the scalar certifier checks them, and the certificate
arithmetic (``** (1/p)``, the damping, ``(2 + t) *``) stays in Python floats
per member, so each member's certificates are bit for bit those of the
scalar call.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import _asymmetry, _hypothesis_tol, _orthogonality, _require_psd, _require_symmetric
from .certificates import (
    DEFAULT_TOL,
    FROBENIUS,
    SPECTRAL,
    InequalityCertificate,
    _Blocks,
    _build,
    _loewner_blocks,
    _square,
)
from .core import Tensor3, _solve_together, _Stack
from .errors import _require, _require_each, _require_tol
from .spectral import _require_conjugate, _young_witness

__all__ = [
    "power_order_counterexample",
    "check_loewner_heinz",
    "check_hansen_power",
    "check_furuta",
    "check_young_commuting",
    "check_young_witness",
    "check_complex_norm_bounds",
    "check_am_gm",
    "check_heinz_family",
    "check_holder",
    "check_holder_pairs",
    "check_holder_corollary",
    "check_minkowski",
]

MODE_CORRECTED = "corrected"
MODE_LITERAL = "literal"


def power_order_counterexample() -> tuple[Tensor3, Tensor3]:
    """Canonical 2x2x2 pair with A >= B >= 0 but not A^2 >= B^2.

    First slices [[2,1],[1,1]] and [[1,0],[0,0]], second slices zero; the
    first slice of A^2 - B^2 is [[4,3],[3,2]] with negative determinant.
    """
    zero = np.zeros((2, 2))
    a = Tensor3.from_slices([np.array([[2.0, 1.0], [1.0, 1.0]]), zero])
    b = Tensor3.from_slices([np.array([[1.0, 0.0], [0.0, 0.0]]), zero])
    return a, b


def _norm_blocks(theorem_id: str, dims, tol: float, tensors, sides) -> _Blocks:
    """One list per stack member: the rows of ``lhs <= rhs`` in the
    Frobenius and then the spectral norm.  ``sides(i, norms)`` lists member
    ``i``'s ``(params, lhs, rhs)`` in order, given ``norms``, member ``i``'s
    norms of the stacks ``tensors`` as Python floats, so the tensors under
    the norms are formed once for both norms and all members, and the
    certificate arithmetic stays in Python floats (numpy's ``**`` rounds
    differently).  Each norm kind is the name of the stack method that
    takes it."""
    out = [[] for _ in range(len(tensors[0]))]
    for kind in (FROBENIUS, SPECTRAL):
        table = zip(*(getattr(t, kind)() for t in tensors))
        for i, (rows, norms) in enumerate(zip(out, table)):
            rows.extend((params, kind, lhs, rhs, None) for params, lhs, rhs in sides(i, norms))
    return _Blocks(theorem_id, dims, tol, out)


def _stacks(*tensors: Tensor3) -> list[_Stack]:
    """Each tensor as a one-member stack: a certifier's ``b = 1`` case."""
    return [_Stack.of(t) for t in tensors]


def _powers(method: str, xs: list, rs: list) -> list:
    """``x.power(r)`` or ``x.abs_power(r)`` (``method``) of each stack ``x``
    in ``xs``, its member ``i`` at ``r[i]`` for its list ``r`` in ``rs``: one
    application on their :meth:`~ttensor.core._Stack.cat` when they share a
    member shape, else each stack alone."""
    if len({x.shape for x in xs}) > 1:
        return [getattr(x, method)(r) for x, r in zip(xs, rs)]
    return getattr(xs[0].cat(*xs[1:]), method)(sum(rs, [])).split(len(xs))


def _loewner_pair_powers(a: _Stack, b: _Stack, tol: float, *exponents) -> list[list[_Stack]]:
    """Check ``A >= B >= 0`` for each member pair, B's PSD check first and
    then the order as ``A - B`` PSD (:func:`ttensor.algebra.loewner_ge`), and
    return ``[B, A]`` at each list of exponents in ``exponents``.  The checks
    and the decompositions of B and A take one solver call, and each list
    of exponents one power application."""
    diff = a - b
    _solve_together(b, diff, a)
    _require_psd(tol, B=b)
    _require_psd(tol, **{"A - B": diff})
    pair = b.cat(a)
    return [pair.power(e + e).split(2) for e in exponents]


# ---------------------------------------------------------------------------
# operator-order inequalities
# ---------------------------------------------------------------------------

def check_loewner_heinz(
    a: Tensor3,
    b: Tensor3,
    r: float,
    tol: float = DEFAULT_TOL,
    exploratory: bool = False,
) -> InequalityCertificate:
    """Power monotonicity A >= B >= 0  =>  A^r >= B^r for 0 <= r <= 1.

    ``exploratory`` lifts the exponent-range hypothesis so out-of-range
    exponents (where the implication is known to fail) can be probed; ``r``
    must still be finite.
    """
    _require_tol(tol)
    return _build(_loewner_heinz(*_stacks(a, b), [r], [exploratory], [None], tol))[0][0]


def _loewner_heinz(
    a: _Stack, b: _Stack, r: list, exploratory: list, extra_params: list, tol: float
) -> _Blocks:
    """:func:`check_loewner_heinz` of each member, member ``i`` at ``r[i]``,
    ``exploratory[i]`` and ``extra_params[i]``."""
    for ri, ex in zip(r, exploratory):
        if ex:
            _require(np.isfinite(ri), f"exponent r={ri} is not finite")
        else:
            _require(0.0 <= ri <= 1.0, f"exponent r={ri} outside [0, 1]")
    ((br, ar),) = _loewner_pair_powers(a, b, tol, r)
    params = [
        {"r": ri, "exploratory": ex, **(extra or {})}
        for ri, ex, extra in zip(r, exploratory, extra_params)
    ]
    return _loewner_blocks("loewner-heinz", br, ar, dims=a.shape, params=params, tol=tol)


def check_hansen_power(
    q: Tensor3,
    x: Tensor3,
    r: float,
    tol: float = DEFAULT_TOL,
    mode: str = "contraction",
) -> InequalityCertificate:
    """Conjugation-versus-power inequality for X >= 0 and 0 < r <= 2.

    ``contraction`` mode (the working form): for ||Q||_2 <= 1,
    ``Q^T * X^r * Q <= (Q^T * X * Q)^r`` when 0 < r <= 1, with the reversed
    order when 1 <= r <= 2.  ``literal`` mode evaluates the circulating
    untransposed form ``Q * X^r * Q`` for orthogonal Q; its middle product is
    generally non-symmetric, which is reported rather than silently
    symmetrized.
    """
    _require_tol(tol)
    return _build(_hansen_power(*_stacks(q, x), [r], tol, mode))[0][0]


def _hansen_power(q: _Stack, x: _Stack, r: list, tol: float, mode: str) -> _Blocks:
    """:func:`check_hansen_power` of each member, member ``i`` at ``r[i]``."""
    if mode not in ("contraction", MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    for ri in r:
        _require(0.0 < ri <= 2.0, f"exponent r={ri} outside (0, 2]")
    left = q.transpose() if mode == "contraction" else q
    middle = left @ x @ q
    sym_middle = middle.sym()
    _solve_together(x, sym_middle)
    _require_psd(tol, X=x)
    if mode == "contraction":
        for q_norm in q.spectral():
            _require(q_norm <= 1.0 + tol, f"Q is not a contraction: ||Q||_2 = {q_norm:.6f}")
    else:
        _require_each(_orthogonality(q, _hypothesis_tol(tol)), "Q is not orthogonal")
    _require_each(
        _asymmetry(middle, _hypothesis_tol(tol)),
        f"conjugated product is not symmetric in {mode} mode ({{}}); "
        "the power of a non-symmetric tensor is undefined",
    )
    x_r, pow_conj = _powers("power", [x, sym_middle], [r, r])
    conj_pow = (left @ x_r @ q).sym()
    low = [ri <= 1.0 for ri in r]
    lhs, rhs = conj_pow.where(low, pow_conj), pow_conj.where(low, conj_pow)
    params = [{"r": ri, "mode": mode} for ri in r]
    return _loewner_blocks("hansen-power", lhs, rhs, dims=q.shape, params=params, tol=tol)


def check_furuta(
    a: Tensor3,
    b: Tensor3,
    r: float,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> tuple[InequalityCertificate, InequalityCertificate]:
    """Order-propagation inequalities for A >= B >= 0.

    For r >= 0, p >= 0, q >= 1 with (1 + 2r) q >= p + 2r, certifies both
    ``(B^r * A^p * B^r)^(1/q) >= B^((p+2r)/q)`` and
    ``A^((p+2r)/q) >= (A^r * B^p * A^r)^(1/q)``.
    """
    _require_tol(tol)
    return tuple(_build(_furuta(*_stacks(a, b), [r], [p], [q], tol))[0])


def _furuta(a: _Stack, b: _Stack, r: list, p: list, q: list, tol: float) -> _Blocks:
    """:func:`check_furuta` of each member, member ``i`` at ``r[i]``,
    ``p[i]``, ``q[i]``: three solver calls for the whole stack."""
    for ri, pi, qi in zip(r, p, q):
        in_range = 0 <= ri < np.inf and 0 <= pi < np.inf and qi >= 1
        _require(in_range, f"parameters out of range: r={ri}, p={pi}, q={qi}")
        _require(
            (1 + 2 * ri) * qi >= pi + 2 * ri - 1e-12, f"(1+2r)q >= p+2r fails: r={ri}, p={pi}, q={qi}"
        )
    s = [(pi + 2 * ri) / qi for ri, pi, qi in zip(r, p, q)]
    (br, ar), (bp, ap), (bs, as_) = _loewner_pair_powers(a, b, tol, r, p, s)
    sandwich_b = (br @ ap @ br).sym()
    sandwich_a = (ar @ bp @ ar).sym()
    inverse_q = [1.0 / qi for qi in q]
    lower_rhs, upper_lhs = sandwich_b.cat(sandwich_a).power(inverse_q + inverse_q).split(2)
    params = [{"r": ri, "p": pi, "q": qi} for ri, pi, qi in zip(r, p, q)]
    sides = [{**pm, "side": "lower"} for pm in params] + [{**pm, "side": "upper"} for pm in params]
    lhs, rhs = bs.cat(upper_lhs), lower_rhs.cat(as_)
    blocks = _loewner_blocks("furuta", lhs, rhs, dims=a.shape, params=sides, tol=tol)
    lower, upper = blocks.members[:len(a)], blocks.members[len(a):]
    return blocks._replace(members=[lo + up for lo, up in zip(lower, upper)])


def check_young_commuting(
    a: Tensor3,
    b: Tensor3,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Young inequality A * B <= A^p / p + B^q / q for a commuting PSD pair."""
    _require_tol(tol)
    return _build(_young_commuting(*_stacks(a, b), [p], [q], tol))[0][0]


def _young_commuting(a: _Stack, b: _Stack, p: list, q: list, tol: float) -> _Blocks:
    """:func:`check_young_commuting` of each member, member ``i`` at ``p[i]``, ``q[i]``."""
    for pi, qi in zip(p, q):
        _require_conjugate(pi, qi)
    ab = a @ b
    lhs = ab.sym()
    _solve_together(a, b, lhs)
    _require_psd(tol, A=a, B=b)
    for c, fa, fb in zip((ab - b @ a).frobenius(), a.frobenius(), b.frobenius()):
        _require(c <= _hypothesis_tol(tol) * (1 + fa * fb), f"pair does not commute: ||AB - BA|| = {c:.3e}")
    _require_psd(tol, **{"A * B": lhs})
    ap, bq = a.cat(b).power(p + q).split(2)
    rhs = ap * [1.0 / pi for pi in p] + bq * [1.0 / qi for qi in q]
    params = [{"p": pi, "q": qi} for pi, qi in zip(p, q)]
    return _loewner_blocks("young-commuting", lhs, rhs, dims=a.shape, params=params, tol=tol)


def check_young_witness(
    a: Tensor3,
    b: Tensor3,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Certificate form of the constructive generalized Young inequality."""
    _require_tol(tol)
    return _build(_young_witness_certificates(*_stacks(a, b), [p], [q], tol))[0][0]


def _young_witness_certificates(a: _Stack, b: _Stack, p: list, q: list, tol: float) -> _Blocks:
    """:func:`check_young_witness` of each member, member ``i`` at ``p[i]``, ``q[i]``."""
    _, rhs, lhs = _young_witness(a, b, p, q)
    params = [{"p": pi, "q": qi} for pi, qi in zip(p, q)]
    return _loewner_blocks("young-witness", lhs, rhs, dims=a.shape, params=params, tol=tol)


# ---------------------------------------------------------------------------
# norm inequalities
# ---------------------------------------------------------------------------

def check_complex_norm_bounds(
    a: Tensor3,
    b: Tensor3,
    variant: str,
    tol: float = DEFAULT_TOL,
    mode: str = MODE_CORRECTED,
) -> list[InequalityCertificate]:
    """Norm bounds for the Cartesian assembly T = A + iB.

    Variant hypotheses: (a) A, B symmetric; (b) A positive semidefinite and B
    symmetric; (c) A, B positive semidefinite.  One certificate is emitted per
    claimed inequality, spectral and Frobenius separately.
    """
    _require_tol(tol)
    return _build(_complex_norm_bounds(*_stacks(a, b), variant, tol, mode))[0]


def _complex_norm_bounds(a: _Stack, b: _Stack, variant: str, tol: float, mode: str) -> _Blocks:
    """:func:`check_complex_norm_bounds` of each member.  The norms of
    ``T = A + iB`` come from the half slices of the members of ``A`` and
    ``B`` (:meth:`~ttensor.core._Stack.cartesian_norms`)."""
    if variant not in ("a", "b", "c"):
        raise ValueError(f"unknown variant {variant!r}")
    if mode not in (MODE_CORRECTED, MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    _require_symmetric(tol, A=a, B=b)
    if variant in ("b", "c"):
        _require_psd(tol, A=a, **({"B": b} if variant == "c" else {}))

    ft, st = a.cartesian_norms(b)
    sa2, sb2 = ([_square(v) for v in x.spectral()] for x in (a, b))
    fa2, fb2 = ([_square(v) for v in x.frobenius()] for x in (a, b))
    if variant == "a":
        # A^2 + B^2 overflows where ||A||_2^2 + ||B||_2^2 does; _build then
        # refuses that member's rows, so the root is not formed
        sr = fr = [math.inf] * len(a)
        if all(math.isfinite(x + y) for x, y in zip(sa2, sb2)):
            root = (a @ a + b @ b).sym().power(0.5)
            sr, fr = root.spectral(), root.frobenius()
    base = {"variant": variant, "mode": mode}

    def row(claim: str, norm_kind: str, lhs: float, rhs: float) -> tuple:
        return {**base, "claim": claim}, norm_kind, lhs, rhs, None

    out = []
    for i in range(len(a)):
        st2, ft2 = _square(st[i]), _square(ft[i])
        if variant == "a":
            s_sum = sa2[i] + sb2[i]
            lower = s_sum if mode == MODE_LITERAL else 0.5 * s_sum
            out.append([
                row("spectral-lower", SPECTRAL, lower, st2),
                row("spectral-upper", SPECTRAL, st2, 2 * s_sum),
                row("frobenius-lower", FROBENIUS, fa2[i] + fb2[i], ft2),
                row("frobenius-upper", FROBENIUS, ft2, 4 * (fa2[i] + fb2[i])),
                row("gram-root-spectral-lower", SPECTRAL, sr[i], st[i]),
                row("gram-root-spectral-upper", SPECTRAL, st[i], np.sqrt(2) * sr[i]),
                row("gram-root-frobenius-le", FROBENIUS, fr[i], ft[i]),
                row("gram-root-frobenius-ge", FROBENIUS, ft[i], fr[i]),
            ])
        elif variant == "b":
            if mode == MODE_LITERAL:
                frobenius = [row("frobenius-lower", FROBENIUS, fa2[i] + 2 * fb2[i], ft2)]
            else:
                frobenius = [
                    row("frobenius-identity-le", FROBENIUS, ft2, fa2[i] + fb2[i]),
                    row("frobenius-identity-ge", FROBENIUS, fa2[i] + fb2[i], ft2),
                ]
            out.append([row("spectral-upper", SPECTRAL, st2, sa2[i] + 2 * sb2[i]), *frobenius])
        else:
            out.append([
                row("spectral-upper", SPECTRAL, st2, sa2[i] + sb2[i]),
                row("frobenius-upper", FROBENIUS, ft2, fa2[i] + fb2[i]),
            ])
    return _Blocks(f"complex-norm-{variant}", a.shape, tol, out)


def check_am_gm(
    a: Tensor3,
    x: Tensor3,
    b: Tensor3,
    tol: float = DEFAULT_TOL,
    mode: str = MODE_CORRECTED,
) -> list[InequalityCertificate]:
    """Arithmetic-geometric mean bound ||A*X*B^T|| <= 0.5 ||A^T*A*X + X*B^T*B||.

    ``literal`` mode drops the second A factor from the first right-hand
    term, matching the defective circulating statement; scalars already break
    it.
    """
    _require_tol(tol)
    return _build(_am_gm(*_stacks(a, x, b), tol, mode))[0]


def _am_gm(a: _Stack, x: _Stack, b: _Stack, tol: float, mode: str) -> _Blocks:
    """:func:`check_am_gm` of each member."""
    if mode not in (MODE_CORRECTED, MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    bt = b.transpose()
    left = a @ x @ bt
    first = a.transpose() @ a @ x if mode == MODE_CORRECTED else a.transpose() @ x
    right = first + x @ (bt @ b)
    return _norm_blocks(
        "am-gm", a.shape, tol, [left, right],
        lambda i, norms: [({"mode": mode}, norms[0], 0.5 * norms[1])],
    )


def check_heinz_family(
    a: Tensor3,
    x: Tensor3,
    b: Tensor3,
    r: float,
    t: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Heinz-type bounds for positive semidefinite A, B.

    Part one: ``(2+t) ||A^r X B^(2-r) + A^(2-r) X B^r|| <= 2 ||A^2 X + t A X B + X B^2||``
    for 1 <= 2r <= 3 and -2 < t <= 2.  Part two: ``4 ||A*B|| <= ||(A+B)^2||``.
    Returns both parts' Frobenius certificates, then their spectral ones.
    """
    _require_tol(tol)
    return _build(_heinz_family(*_stacks(a, x, b), [r], [t], tol))[0]


def _heinz_family(a: _Stack, x: _Stack, b: _Stack, r: list, t: list, tol: float) -> _Blocks:
    """:func:`check_heinz_family` of each member, member ``i`` at ``r[i]``, ``t[i]``."""
    for ri, ti in zip(r, t):
        _require(1.0 <= 2 * ri <= 3.0, f"exponent r={ri} outside [0.5, 1.5]")
        _require(-2.0 < ti <= 2.0, f"weight t={ti} outside (-2, 2]")
    _require_psd(tol, A=a, B=b)
    r2 = [2 - ri for ri in r]
    pair = a.cat(b)
    (ar, br), (a2r, b2r) = (pair.power(e + e).split(2) for e in (r, r2))
    heinz = ar @ x @ b2r + a2r @ x @ br
    quadratic = a @ a @ x + t * (a @ x @ b) + x @ (b @ b)
    s = a + b
    ab, s2 = a @ b, s @ s

    def sides(i, norms):
        params = {"r": r[i], "t": t[i]}
        return [
            ({**params, "part": "weighted"}, (2 + t[i]) * norms[0], 2 * norms[1]),
            ({**params, "part": "product"}, 4 * norms[2], norms[3]),
        ]

    return _norm_blocks("heinz-family", a.shape, tol, [heinz, quadratic, ab, s2], sides)


def check_holder(
    a: Tensor3,
    x: Tensor3,
    b: Tensor3,
    r: float,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Mixed Hoelder bound ``|| |A X B|^r || <= || |A^p X|^r ||^(1/p) || |X B^q|^r ||^(1/q)``.

    A and B must be positive semidefinite; r, p, q positive with conjugate
    (p, q).  The exponent on the left absolute value follows the scaling-
    consistent reading of the statement.
    """
    _require_tol(tol)
    return _build(_holder(*_stacks(a, x, b), [r], [p], [q], tol))[0]


def _holder(a: _Stack, x: _Stack, b: _Stack, r: list, p: list, q: list, tol: float) -> _Blocks:
    """:func:`check_holder` of each member, member ``i`` at ``r[i]``, ``p[i]``, ``q[i]``."""
    _require_holder_exponents(r, p, q)
    _require_psd(tol, A=a, B=b)
    axb = a @ x @ b
    ap, bq = _powers("power", [a, b], [p, q])
    apx, xbq = ap @ x, x @ bq
    left, first, second = axb.cat(apx, xbq).abs_power(r + r + r).split(3)
    return _norm_blocks(
        "holder", a.shape, tol, [left, first, second], _holder_sides(r, p, q)
    )


def _require_holder_exponents(r: list, p: list, q: list) -> None:
    for ri, pi, qi in zip(r, p, q):
        _require_conjugate(pi, qi)
        _require(0 < ri < np.inf, f"exponent r={ri} outside (0, inf)")


def _holder_sides(r: list, p: list, q: list):
    """Member ``i``'s sides of ``||L|| <= ||F||^(1/p) ||S||^(1/q)`` from the
    norms of ``(L, F, S)``, for :func:`_norm_blocks`."""
    return lambda i, norms: [(
        {"r": r[i], "p": p[i], "q": q[i]},
        norms[0], norms[1] ** (1 / p[i]) * norms[2] ** (1 / q[i]),
    )]


def check_holder_pairs(
    a: Tensor3,
    b: Tensor3,
    c: Tensor3,
    d: Tensor3,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Paired Hoelder bound with damping 2^(-|1/p - 1/2|) on the left.

    ``2^(-|1/p-1/2|) ||C^T A + D^T B|| <= || |A|^p + |B|^p ||^(1/p) || |C|^q + |D|^q ||^(1/q)``
    for arbitrary tensors and conjugate exponents, checked as for every Young
    and Hoelder certifier (:func:`ttensor.spectral._require_conjugate`).
    """
    _require_tol(tol)
    return _build(_holder_pairs(*_stacks(a, b, c, d), [p], [q], tol))[0]


def _holder_pairs(
    a: _Stack, b: _Stack, c: _Stack, d: _Stack, p: list, q: list, tol: float
) -> _Blocks:
    """:func:`check_holder_pairs` of each member, member ``i`` at ``p[i]``, ``q[i]``."""
    for pi, qi in zip(p, q):
        _require_conjugate(pi, qi)
    cross = c.transpose() @ a + d.transpose() @ b
    abs_a, abs_b, abs_c, abs_d = _powers("abs_power", [a, b, c, d], [p, p, q, q])
    ab_p, cd_q = abs_a + abs_b, abs_c + abs_d

    def sides(i, norms):
        damping = 2.0 ** (-abs(1 / p[i] - 0.5))
        return [(
            {"p": p[i], "q": q[i]},
            damping * norms[0], norms[1] ** (1 / p[i]) * norms[2] ** (1 / q[i]),
        )]

    return _norm_blocks("holder-pairs", a.shape, tol, [cross, ab_p, cd_q], sides)


def check_holder_corollary(
    a: Tensor3,
    b: Tensor3,
    r: float,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Two-factor Hoelder corollary ``|| |A B|^r || <= || |A|^(pr) ||^(1/p) || |B|^(qr) ||^(1/q)``."""
    _require_tol(tol)
    return _build(_holder_corollary(*_stacks(a, b), [r], [p], [q], tol))[0]


def _holder_corollary(a: _Stack, b: _Stack, r: list, p: list, q: list, tol: float) -> _Blocks:
    """:func:`check_holder_corollary` of each member, member ``i`` at ``r[i]``, ``p[i]``, ``q[i]``."""
    _require_holder_exponents(r, p, q)
    pr = [pi * ri for pi, ri in zip(p, r)]
    qr = [qi * ri for qi, ri in zip(q, r)]
    left, first, second = _powers("abs_power", [a @ b, a, b], [r, pr, qr])
    return _norm_blocks(
        "holder-corollary", a.shape, tol, [left, first, second], _holder_sides(r, p, q)
    )


def check_minkowski(
    a1: Tensor3,
    a2: Tensor3,
    b1: Tensor3,
    b2: Tensor3,
    p: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Minkowski-type bound with damping 2^(-|1/p - 1/2|) for 1 <= p < inf.

    ``2^(-|1/p-1/2|) || |A1+A2|^p + |B1+B2|^p ||^(1/p)
    <= || |A1|^p + |B1|^p ||^(1/p) + || |A2|^p + |B2|^p ||^(1/p)``.
    """
    _require_tol(tol)
    return _build(_minkowski(*_stacks(a1, a2, b1, b2), [p], tol))[0]


def _minkowski(a1: _Stack, a2: _Stack, b1: _Stack, b2: _Stack, p: list, tol: float) -> _Blocks:
    """:func:`check_minkowski` of each member, member ``i`` at ``p[i]``."""
    for pi in p:
        _require(1.0 <= pi < np.inf, f"exponent p={pi} outside [1, inf)")
    powers = _powers("abs_power", [a1 + a2, b1 + b2, a1, b1, a2, b2], [p] * 6)
    whole, first, second = (powers[k] + powers[k + 1] for k in (0, 2, 4))

    def sides(i, norms):
        damping = 2.0 ** (-abs(1 / p[i] - 0.5))
        root = 1 / p[i]
        return [(
            {"p": p[i]},
            damping * norms[0] ** root, norms[1] ** root + norms[2] ** root,
        )]

    return _norm_blocks("minkowski", a1.shape, tol, [whole, first, second], sides)
