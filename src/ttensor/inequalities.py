"""One certifier per operator / norm inequality.

Every certifier validates its own hypotheses (raising
:class:`HypothesisViolationError` on unverified instances) before evaluating
both sides.  Certifiers whose circulating statement is defective carry a
``literal`` mode that evaluates the statement as printed (useful for
recording counterexamples) next to the default ``corrected`` mode that
evaluates the mathematically valid form:

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
Frobenius certificates followed by the spectral ones.  Each is the ``b = 1``
case of a stacked certifier (``_am_gm``, ``_heinz_family``, ...) that takes
its tensors as stacks along a leading trial axis
(:class:`ttensor.core._Stack`) and its scalars as one list per argument, and
returns one certificate list per member; a campaign certifies a whole window
with one call.  A stacked certifier also stacks its own independent tensors:
the PSD checks and powers of ``A`` and ``B`` take one solver call
(``spectral._psd_and_power_spectra``), and every ``|X|^r`` of a bound is one
member of one ``spectral._abs_powers`` call.  Hypotheses are checked member
by member, each in the order the scalar certifier checks them, and the
certificate arithmetic (``** (1/p)``, the damping, ``(2 + t) *``) stays in
Python floats per member, so each member's certificates are bit for bit
those of the scalar call.

The other certifiers take one instance.  One that needs several slice
spectra that do not depend on each other asks for them in waves: one
:func:`ttensor.spectral._solve_ahead` line names a wave's PSD checks,
powers, absolute values and Loewner gaps just before the calls that take
them, after the scalar hypothesis checks.  Inside a campaign trial the wave
is solved in one stacked call and the calls find their spectra stored;
elsewhere the line does nothing.  Either way the calls compute exactly what
they would without it, so results are unchanged.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    PREDICATE_TOL,
    _psd_verdicts,
    _t_product,
    is_orthogonal,
    is_symmetric,
    loewner_ge,
    t_product,
)
from .certificates import (
    DEFAULT_TOL,
    FROBENIUS,
    NO_NORM,
    SPECTRAL,
    InequalityCertificate,
    _gap_tensor,
    loewner_certificate,
    norm_certificate,
)
from .core import (
    ComplexTensor3,
    Tensor3,
    _frobenius,
    _spectral,
    _Stack,
    frobenius_norm,
    spectral_norm,
    transpose,
)
from .errors import HypothesisViolationError, TtensorError
from .spectral import (
    _abs_powers,
    _psd_and_power_spectra,
    _require_conjugate,
    _solve_ahead,
    _t_powers,
    t_power,
    young_witness,
)

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


def _norm_certificates(theorem_id: str, dims, tol: float, tensors, sides) -> list[list]:
    """One list per stack member: the certificates of ``lhs <= rhs`` in the
    Frobenius and then the spectral norm.  ``sides(i, norms)`` lists member
    ``i``'s ``(params, lhs, rhs)`` in order, given ``norms``, member ``i``'s
    norms of the stacks ``tensors`` as Python floats, so the tensors under
    the norms are formed once for both norms and all members, and the
    certificate arithmetic stays in Python floats (numpy's ``**`` rounds
    differently)."""
    out = [[] for _ in range(len(tensors[0]))]
    for kind, norm in ((FROBENIUS, lambda t: _frobenius(t.data)), (SPECTRAL, lambda t: _spectral(t.slices))):
        table = zip(*(norm(t).tolist() for t in tensors))
        for i, (certs, norms) in enumerate(zip(out, table)):
            certs.extend(
                norm_certificate(
                    theorem_id, dims=dims, params=params, norm_kind=kind, lhs=lhs, rhs=rhs, tol=tol
                )
                for params, lhs, rhs in sides(i, norms)
            )
    return out


def _stacks(*tensors: Tensor3) -> list[_Stack]:
    """Each tensor as a one-member stack: a certifier's ``b = 1`` case."""
    return [_Stack.of(t) for t in tensors]


def _sym(t: Tensor3) -> Tensor3:
    return 0.5 * (t + transpose(t))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HypothesisViolationError(message)


def _require_psd(t: Tensor3, tol: float, name: str) -> None:
    _require_psd_members(_stacks(t), [name], tol)


def _require_psd_members(xs: list[_Stack], names: list[str], tol: float, eig=None) -> None:
    """Every member of every stack is positive semidefinite, checked in
    order, ``xs[k]``'s members under the name ``names[k]``; ``eig`` may hold
    the spectra of their PSD stacks (see ``_psd_and_power_spectra``)."""
    if len({x.shape for x in xs}) > 1:
        for x, name in zip(xs, names):
            _require_psd_members([x], [name], tol)
        return
    member_names = [name for x, name in zip(xs, names) for _ in range(len(x))]
    for name, verdict in zip(member_names, _psd_verdicts(_Stack.cat(*xs), tol, eig)):
        _require(
            verdict.holds,
            f"{name} is not positive semidefinite (min gap {verdict.min_gap_eigenvalue:.3e})",
        )


def _ahead(product):
    """``product()``, formed ahead of the hypothesis checks; ``None`` if it
    raises (a shape mismatch, an overflow), so that the caller forms it again
    after the checks and its error comes where it always came."""
    try:
        return product()
    except (TtensorError, ValueError):
        return None


def _require_order(a: Tensor3, b: Tensor3, tol: float, names: str) -> None:
    verdict = loewner_ge(a, b, tol)
    _require(
        verdict.holds,
        f"order hypothesis {names} fails (min gap {verdict.min_gap_eigenvalue:.3e})",
    )


# ---------------------------------------------------------------------------
# operator-order inequalities
# ---------------------------------------------------------------------------

def check_loewner_heinz(
    a: Tensor3,
    b: Tensor3,
    r: float,
    tol: float = DEFAULT_TOL,
    exploratory: bool = False,
    extra_params: dict | None = None,
) -> InequalityCertificate:
    """Power monotonicity A >= B >= 0  =>  A^r >= B^r for 0 <= r <= 1.

    ``exploratory`` lifts the exponent-range hypothesis so out-of-range
    exponents (where the implication is known to fail) can be probed.
    """
    if not exploratory:
        _require(0.0 <= r <= 1.0, f"exponent r={r} outside [0, 1]")
    _solve_ahead(psd=[b], order=[(a, b)], power=[b, a])
    _require_psd(b, tol, "B")
    _require_order(a, b, tol, "A >= B")
    params = {"r": r, "exploratory": exploratory, **(extra_params or {})}
    return loewner_certificate(
        "loewner-heinz", t_power(b, r), t_power(a, r), dims=a.shape, params=params, tol=tol
    )


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
    _require(0.0 < r <= 2.0, f"exponent r={r} outside (0, 2]")
    left = transpose(q) if mode == "contraction" else q
    # the conjugated product is formed ahead of the checks, so that its power
    # joins the first wave
    sym_middle = _ahead(lambda: _sym(t_product(t_product(left, x), q)))
    _solve_ahead(psd=[x], power=[x] + ([sym_middle] if sym_middle is not None else []))
    _require_psd(x, tol, "X")
    if mode == "contraction":
        q_norm = spectral_norm(q)
        _require(q_norm <= 1.0 + tol, f"Q is not a contraction: ||Q||_2 = {q_norm:.6f}")
    elif mode == MODE_LITERAL:
        _require(bool(is_orthogonal(q, max(tol, PREDICATE_TOL))), "Q is not orthogonal")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    middle = t_product(t_product(left, x), q)
    sym = is_symmetric(middle, tol)
    if not sym:
        raise HypothesisViolationError(
            f"conjugated product is not symmetric in {mode} mode ({sym.reason}); "
            "the power of a non-symmetric tensor is undefined"
        )
    conj_pow = t_product(t_product(left, t_power(x, r)), q)
    pow_conj = t_power(_sym(middle), r)
    params = {"r": r, "mode": mode}
    if r <= 1.0:
        lhs, rhs = _sym(conj_pow), pow_conj
    else:
        lhs, rhs = pow_conj, _sym(conj_pow)
    return loewner_certificate(
        "hansen-power", lhs, rhs, dims=q.shape, params=params, tol=tol
    )


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
    _require(r >= 0 and p >= 0 and q >= 1, f"parameters out of range: r={r}, p={p}, q={q}")
    _require((1 + 2 * r) * q >= p + 2 * r - 1e-12, f"(1+2r)q >= p+2r fails: r={r}, p={p}, q={q}")
    _solve_ahead(psd=[b], order=[(a, b)], power=[b, a])
    _require_psd(b, tol, "B")
    _require_order(a, b, tol, "A >= B")
    params = {"r": r, "p": p, "q": q}

    br, ar = t_power(b, r), t_power(a, r)
    sandwich_b = _sym(t_product(t_product(br, t_power(a, p)), br))
    sandwich_a = _sym(t_product(t_product(ar, t_power(b, p)), ar))
    _solve_ahead(power=[sandwich_b, sandwich_a])
    lower = t_power(b, (p + 2 * r) / q), t_power(sandwich_b, 1.0 / q)
    upper = t_power(sandwich_a, 1.0 / q), t_power(a, (p + 2 * r) / q)
    _solve_ahead(psd=[_gap_tensor(*lower), _gap_tensor(*upper)])
    cert_lower = loewner_certificate(
        "furuta", *lower, dims=a.shape, params={**params, "side": "lower"}, tol=tol
    )
    cert_upper = loewner_certificate(
        "furuta", *upper, dims=a.shape, params={**params, "side": "upper"}, tol=tol
    )
    return cert_lower, cert_upper


def check_young_commuting(
    a: Tensor3,
    b: Tensor3,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Young inequality A * B <= A^p / p + B^q / q for a commuting PSD pair."""
    _require_conjugate(p, q)
    # A * B is formed ahead of the PSD checks, so that the check of its
    # symmetric part joins the first wave
    sym_ab = _ahead(lambda: _sym(t_product(a, b)))
    _solve_ahead(psd=[a, b] + ([sym_ab] if sym_ab is not None else []), power=[a, b])
    _require_psd(a, tol, "A")
    _require_psd(b, tol, "B")
    ab = t_product(a, b)
    comm = frobenius_norm(ab - t_product(b, a))
    _require(
        comm <= tol * (1 + frobenius_norm(a) * frobenius_norm(b)),
        f"pair does not commute: ||AB - BA|| = {comm:.3e}",
    )
    lhs = _sym(ab)
    _require_psd(lhs, tol, "A * B")
    rhs = (1.0 / p) * t_power(a, p) + (1.0 / q) * t_power(b, q)
    return loewner_certificate(
        "young-commuting", lhs, rhs, dims=a.shape, params={"p": p, "q": q}, tol=tol
    )


def check_young_witness(
    a: Tensor3,
    b: Tensor3,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> InequalityCertificate:
    """Certificate form of the constructive generalized Young inequality."""
    _, verdict = young_witness(a, b, p, q, tol)
    return InequalityCertificate(
        "young-witness", -1, tuple(a.shape), {"p": p, "q": q}, NO_NORM,
        -verdict.min_gap_eigenvalue, 0.0, verdict.min_gap_eigenvalue,
        verdict.tolerance_used, verdict.holds,
    )


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
    _require(variant in ("a", "b", "c"), f"unknown variant {variant!r}")
    if mode not in (MODE_CORRECTED, MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    _require(bool(is_symmetric(a, tol)), "A is not symmetric")
    _require(bool(is_symmetric(b, tol)), "B is not symmetric")
    if variant == "c":
        _solve_ahead(psd=[a, b])
    if variant in ("b", "c"):
        _require_psd(a, tol, "A")
    if variant == "c":
        _require_psd(b, tol, "B")

    t = ComplexTensor3.from_parts(a, b)
    base = {"variant": variant, "mode": mode}
    sa2, sb2 = spectral_norm(a) ** 2, spectral_norm(b) ** 2
    fa2, fb2 = frobenius_norm(a) ** 2, frobenius_norm(b) ** 2
    st, ft = spectral_norm(t), frobenius_norm(t)
    st2, ft2 = st ** 2, ft ** 2

    def cert(claim: str, norm_kind: str, lhs: float, rhs: float) -> InequalityCertificate:
        return norm_certificate(
            f"complex-norm-{variant}", dims=a.shape,
            params={**base, "claim": claim}, norm_kind=norm_kind, lhs=lhs, rhs=rhs, tol=tol,
        )

    out = []
    if variant == "a":
        lower = sa2 + sb2 if mode == MODE_LITERAL else 0.5 * (sa2 + sb2)
        out.append(cert("spectral-lower", SPECTRAL, lower, st2))
        out.append(cert("spectral-upper", SPECTRAL, st2, 2 * (sa2 + sb2)))
        out.append(cert("frobenius-lower", FROBENIUS, fa2 + fb2, ft2))
        out.append(cert("frobenius-upper", FROBENIUS, ft2, 4 * (fa2 + fb2)))
        root = t_power(_sym(t_product(a, a) + t_product(b, b)), 0.5)
        sr, fr = spectral_norm(root), frobenius_norm(root)
        out.append(cert("gram-root-spectral-lower", SPECTRAL, sr, st))
        out.append(cert("gram-root-spectral-upper", SPECTRAL, st, np.sqrt(2) * sr))
        out.append(cert("gram-root-frobenius-le", FROBENIUS, fr, ft))
        out.append(cert("gram-root-frobenius-ge", FROBENIUS, ft, fr))
    elif variant == "b":
        out.append(cert("spectral-upper", SPECTRAL, st2, sa2 + 2 * sb2))
        if mode == MODE_LITERAL:
            out.append(cert("frobenius-lower", FROBENIUS, fa2 + 2 * fb2, ft2))
        else:
            out.append(cert("frobenius-identity-le", FROBENIUS, ft2, fa2 + fb2))
            out.append(cert("frobenius-identity-ge", FROBENIUS, fa2 + fb2, ft2))
    else:
        out.append(cert("spectral-upper", SPECTRAL, st2, sa2 + sb2))
        out.append(cert("frobenius-upper", FROBENIUS, ft2, fa2 + fb2))
    return out


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
    return _am_gm(*_stacks(a, x, b), tol, mode)[0]


def _am_gm(a: _Stack, x: _Stack, b: _Stack, tol: float, mode: str) -> list[list]:
    """:func:`check_am_gm` of each member."""
    bt = b.transpose()
    left = _t_product(_t_product(a, x), bt)
    if mode == MODE_CORRECTED:
        first = _t_product(_t_product(a.transpose(), a), x)
    elif mode == MODE_LITERAL:
        first = _t_product(a.transpose(), x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    right = first + _t_product(x, _t_product(bt, b))
    return _norm_certificates(
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
    return _heinz_family(*_stacks(a, x, b), [r], [t], tol)[0]


def _heinz_family(a: _Stack, x: _Stack, b: _Stack, r: list, t: list, tol: float) -> list[list]:
    """:func:`check_heinz_family` of each member, member ``i`` at ``r[i]``, ``t[i]``."""
    for ri, ti in zip(r, t):
        _require(1.0 <= 2 * ri <= 3.0, f"exponent r={ri} outside [0.5, 1.5]")
        _require(-2.0 < ti <= 2.0, f"weight t={ti} outside (-2, 2]")
    psd_eig, power_eig = _psd_and_power_spectra([a, b])
    _require_psd_members([a, b], ["A", "B"], tol, psd_eig)
    r2 = [2 - ri for ri in r]
    (ar, br), (a2r, b2r) = _t_powers([a, b], [r, r], [r2, r2], eig=power_eig)
    heinz = _t_product(_t_product(ar, x), b2r) + _t_product(_t_product(a2r, x), br)
    quadratic = (
        _t_product(_t_product(a, a), x)
        + t * _t_product(_t_product(a, x), b)
        + _t_product(x, _t_product(b, b))
    )
    s = a + b
    ab, s2 = _t_product(a, b), _t_product(s, s)

    def sides(i, norms):
        params = {"r": r[i], "t": t[i]}
        return [
            ({**params, "part": "weighted"}, (2 + t[i]) * norms[0], 2 * norms[1]),
            ({**params, "part": "product"}, 4 * norms[2], norms[3]),
        ]

    return _norm_certificates("heinz-family", a.shape, tol, [heinz, quadratic, ab, s2], sides)


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
    return _holder(*_stacks(a, x, b), [r], [p], [q], tol)[0]


def _holder(a: _Stack, x: _Stack, b: _Stack, r: list, p: list, q: list, tol: float) -> list[list]:
    """:func:`check_holder` of each member, member ``i`` at ``r[i]``, ``p[i]``, ``q[i]``."""
    _require_holder_exponents(r, p, q)
    psd_eig, power_eig = _psd_and_power_spectra([a, b])
    _require_psd_members([a, b], ["A", "B"], tol, psd_eig)
    axb = _t_product(_t_product(a, x), b)
    ((ap, bq),) = _t_powers([a, b], [p, q], eig=power_eig)
    apx, xbq = _t_product(ap, x), _t_product(x, bq)
    left, first, second = _abs_powers([axb, apx, xbq], [r, r, r])
    return _norm_certificates(
        "holder", a.shape, tol, [left, first, second], _holder_sides(r, p, q)
    )


def _require_holder_exponents(r: list, p: list, q: list) -> None:
    for ri, pi, qi in zip(r, p, q):
        _require(
            ri > 0 and pi > 1 and qi > 1,
            f"need r > 0 and finite conjugate p, q; got r={ri}, p={pi}, q={qi}",
        )
        _require_conjugate(pi, qi)


def _holder_sides(r: list, p: list, q: list):
    """Member ``i``'s sides of ``||L|| <= ||F||^(1/p) ||S||^(1/q)`` from the
    norms of ``(L, F, S)``, for :func:`_norm_certificates`."""
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
    for arbitrary tensors and finite conjugate exponents (p = 1 or p = inf is
    out of numeric scope).
    """
    return _holder_pairs(*_stacks(a, b, c, d), [p], [q], tol)[0]


def _holder_pairs(
    a: _Stack, b: _Stack, c: _Stack, d: _Stack, p: list, q: list, tol: float
) -> list[list]:
    """:func:`check_holder_pairs` of each member, member ``i`` at ``p[i]``, ``q[i]``."""
    for pi, qi in zip(p, q):
        _require(pi > 1 and qi > 1, f"infinite or unit exponents out of numeric scope: p={pi}, q={qi}")
        _require_conjugate(pi, qi)
    cross = _t_product(c.transpose(), a) + _t_product(d.transpose(), b)
    abs_a, abs_b, abs_c, abs_d = _abs_powers([a, b, c, d], [p, p, q, q])
    ab_p, cd_q = abs_a + abs_b, abs_c + abs_d

    def sides(i, norms):
        damping = 2.0 ** (-abs(1 / p[i] - 0.5))
        return [(
            {"p": p[i], "q": q[i]},
            damping * norms[0], norms[1] ** (1 / p[i]) * norms[2] ** (1 / q[i]),
        )]

    return _norm_certificates("holder-pairs", a.shape, tol, [cross, ab_p, cd_q], sides)


def check_holder_corollary(
    a: Tensor3,
    b: Tensor3,
    r: float,
    p: float,
    q: float,
    tol: float = DEFAULT_TOL,
) -> list[InequalityCertificate]:
    """Two-factor Hoelder corollary ``|| |A B|^r || <= || |A|^(pr) ||^(1/p) || |B|^(qr) ||^(1/q)``."""
    return _holder_corollary(*_stacks(a, b), [r], [p], [q], tol)[0]


def _holder_corollary(a: _Stack, b: _Stack, r: list, p: list, q: list, tol: float) -> list[list]:
    """:func:`check_holder_corollary` of each member, member ``i`` at ``r[i]``, ``p[i]``, ``q[i]``."""
    _require_holder_exponents(r, p, q)
    ab = _t_product(a, b)
    pr = [pi * ri for pi, ri in zip(p, r)]
    qr = [qi * ri for qi, ri in zip(q, r)]
    left, first, second = _abs_powers([ab, a, b], [r, pr, qr])
    return _norm_certificates(
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
    return _minkowski(*_stacks(a1, a2, b1, b2), [p], tol)[0]


def _minkowski(a1: _Stack, a2: _Stack, b1: _Stack, b2: _Stack, p: list, tol: float) -> list[list]:
    """:func:`check_minkowski` of each member, member ``i`` at ``p[i]``."""
    for pi in p:
        _require(1.0 <= pi < np.inf, f"exponent p={pi} outside [1, inf)")
    a12, b12 = a1 + a2, b1 + b2
    powers = _abs_powers([a12, b12, a1, b1, a2, b2], [p] * 6)
    whole, first, second = (powers[k] + powers[k + 1] for k in (0, 2, 4))

    def sides(i, norms):
        damping = 2.0 ** (-abs(1 / p[i] - 0.5))
        root = 1 / p[i]
        return [(
            {"p": p[i]},
            damping * norms[0] ** root, norms[1] ** root + norms[2] ** root,
        )]

    return _norm_certificates("minkowski", a1.shape, tol, [whole, first, second], sides)
