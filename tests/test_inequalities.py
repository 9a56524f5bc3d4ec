"""Certifier-level checks: worked instances, errata counterexamples, hypotheses."""

import itertools
import re

import numpy as np
import pytest

from ttensor import (
    THEOREM_IDS,
    HypothesisViolationError,
    InequalityCertificate,
    RngStream,
    ShapeMismatchError,
    SingularTensorError,
    Tensor3,
    check_am_gm,
    check_complex_norm_bounds,
    check_furuta,
    check_hansen_power,
    check_heinz_family,
    check_holder,
    check_holder_corollary,
    check_holder_pairs,
    check_loewner_heinz,
    check_minkowski,
    check_young_commuting,
    check_young_witness,
    diag_spectrum_bound,
    gen_commuting_psd_pair,
    gen_loewner_pair,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    frobenius_norm,
    identity,
    is_t_psd,
    loewner_certificate,
    power_order_counterexample,
    run_campaign,
    spectral_norm,
    t_abs,
    t_eigenvalues,
    t_power,
    t_product,
    transpose,
    young_witness,
)
from ttensor.certificates import DEFAULT_TOL, FROBENIUS, NO_NORM, _Blocks, _build, norm_certificate


def test_loewner_heinz_r1_is_the_gap_itself():
    a, b = gen_loewner_pair(2, 2, RngStream(200))
    cert = check_loewner_heinz(a, b, 1.0)
    from ttensor import loewner_ge

    assert cert.holds
    assert cert.margin == pytest.approx(loewner_ge(a, b).min_gap_eigenvalue, abs=1e-10)


def test_loewner_heinz_sqrt_on_counterexample_pair_holds():
    a, b = power_order_counterexample()
    cert = check_loewner_heinz(a, b, 0.5)
    assert cert.holds


def test_loewner_heinz_r2_exploratory_finds_violation():
    a, b = power_order_counterexample()
    with pytest.raises(HypothesisViolationError):
        check_loewner_heinz(a, b, 2.0)
    cert = check_loewner_heinz(a, b, 2.0, exploratory=True)
    assert not cert.holds
    assert cert.margin == pytest.approx(3 - np.sqrt(10), abs=1e-9)


def test_loewner_heinz_validates_hypotheses():
    b = gen_symmetric(2, 2, RngStream(201))  # not PSD in general
    a = b + gen_t_psd(2, 2, RngStream(202))
    from ttensor import is_t_psd

    if not is_t_psd(b).holds:
        with pytest.raises(HypothesisViolationError):
            check_loewner_heinz(a, b, 0.5)


def test_hansen_orthogonal_contraction_equality():
    from ttensor import gen_orthogonal

    q = gen_orthogonal(3, 2, RngStream(203))
    x = gen_t_psd(3, 2, RngStream(204))
    cert = check_hansen_power(q, x, 0.5, mode="contraction")
    assert cert.holds
    assert abs(cert.margin) < 1e-8  # unitary conjugation commutes with powers


def test_hansen_scalar_contraction():
    # q = 0.5 I, x = 4 I, r = 1/2: conjugated power 0.5 <= powered conjugation 1
    q = 0.5 * identity(1, 1)
    x = 4.0 * identity(1, 1)
    cert = check_hansen_power(q, x, 0.5, mode="contraction")
    assert cert.holds
    assert cert.margin == pytest.approx(0.5, abs=1e-12)


def test_hansen_literal_rejects_generic_orthogonal():
    from ttensor import gen_orthogonal

    x = gen_t_psd(3, 3, RngStream(205))
    q = gen_orthogonal(3, 3, RngStream(206))
    with pytest.raises(HypothesisViolationError):
        check_hansen_power(q, x, 0.5, mode="literal")


def test_hansen_rejects_non_contraction():
    x = gen_t_psd(2, 2, RngStream(207))
    q = 3.0 * identity(2, 2)
    with pytest.raises(HypothesisViolationError):
        check_hansen_power(q, x, 0.5, mode="contraction")


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 1.25, 1.5, 2.0])
def test_hansen_contraction_random(r):
    for trial in range(30):
        g = RngStream(2100 + int(r * 100), trial).generator()
        x = gen_t_psd(2, 3, g)
        raw = gen_random((2, 2, 3), g)
        from ttensor import spectral_norm

        q = raw * (1.0 / (spectral_norm(raw) * 1.25))
        assert check_hansen_power(q, x, r).holds


def test_furuta_degenerate_parameters():
    a, b = gen_loewner_pair(2, 2, RngStream(208))
    lower, upper = check_furuta(a, b, 0.0, 1.0, 1.0)
    assert lower.holds and upper.holds


def test_furuta_corollary_instance():
    # r = 1, p = q = 2 covers (B * A^2 * B)^(1/2) >= B^2
    a, b = power_order_counterexample()
    lower, upper = check_furuta(a, b, 1.0, 2.0, 2.0)
    assert lower.holds and upper.holds


def test_furuta_rejects_bad_region():
    a, b = gen_loewner_pair(2, 2, RngStream(209))
    with pytest.raises(HypothesisViolationError):
        check_furuta(a, b, 0.1, 4.0, 1.0)  # (1+2r)q < p+2r


def test_young_commuting_identity_equality():
    eye = identity(2, 2)
    cert = check_young_commuting(eye, eye, 2.0, 2.0)
    assert cert.holds and abs(cert.margin) < 1e-9


def test_young_commuting_scalar():
    a = 2.0 * identity(1, 1)
    b = 3.0 * identity(1, 1)
    cert = check_young_commuting(a, b, 2.0, 2.0)
    # 6 <= 2 + 4.5
    assert cert.holds and cert.margin == pytest.approx(0.5, abs=1e-12)


def test_young_commuting_rejects_noncommuting():
    rng = RngStream(210)
    a = gen_t_psd(3, 2, rng)
    b = gen_t_psd(3, 2, RngStream(211))
    from ttensor import frobenius_norm, t_product

    if frobenius_norm(t_product(a, b) - t_product(b, a)) > 1e-6:
        with pytest.raises(HypothesisViolationError):
            check_young_commuting(a, b, 2.0, 2.0)


def test_young_commuting_checks_hypotheses_before_shapes():
    # A * B is formed ahead of the PSD checks only when the shapes allow it
    a = gen_t_psd(3, 4, RngStream(212))
    b = gen_t_psd(2, 4, RngStream(213))
    with pytest.raises(HypothesisViolationError, match=r"^B is not positive semidefinite"):
        check_young_commuting(a, -1.0 * b, 2.0, 2.0)
    with pytest.raises(ShapeMismatchError):
        check_young_commuting(a, b, 2.0, 2.0)


def test_young_witness_checks_exponents_before_shapes():
    a = gen_random((2, 2, 3), RngStream(215))
    b = gen_random((3, 3, 3), RngStream(216))
    for call in (young_witness, check_young_witness):
        with pytest.raises(HypothesisViolationError, match=r"^exponents p=1.5, q=2.0 are not conjugate$"):
            call(a, b, 1.5, 2.0)
        with pytest.raises(ShapeMismatchError):
            call(a, b, 1.5, 3.0)


def test_hansen_checks_hypotheses_before_shapes():
    # Q^T X Q is formed ahead of the checks only when the shapes allow it
    x = gen_t_psd(3, 4, RngStream(214))
    q = identity(2, 4)
    with pytest.raises(HypothesisViolationError, match=r"^Q is not a contraction"):
        check_hansen_power(3.0 * q, x, 0.5)
    with pytest.raises(HypothesisViolationError, match=r"^X is not positive semidefinite"):
        check_hansen_power(q, -1.0 * x, 0.5)
    with pytest.raises(ShapeMismatchError):
        check_hansen_power(q, x, 0.5)


def test_absolute_values_of_two_shapes_are_certified():
    # the tensors under |X|^r (or X^r) of one certifier are powered together
    # when they share a shape and one at a time when they do not
    wide, square = gen_random((2, 3, 4), RngStream(217)), gen_random((3, 3, 4), RngStream(218))
    tall, wider = gen_random((4, 3, 4), RngStream(221)), gen_random((2, 4, 4), RngStream(222))
    a, b = gen_t_psd(2, 4, RngStream(219)), gen_t_psd(3, 4, RngStream(220))
    for certs in (
        check_holder_corollary(wide, square, 1.0, 2.0, 2.0),
        check_holder_pairs(wide, wide, wider, wider, 2.0, 2.0),
        check_minkowski(wide, wide, tall, tall, 2.0),
        check_holder(a, wide, b, 1.0, 2.0, 2.0),
    ):
        assert [c.norm_kind for c in certs] == ["frobenius", "spectral"] and all(c.holds for c in certs)
    # Q^T X Q with a rectangular contraction Q is smaller than X
    contraction = 0.2 * gen_random((3, 2, 4), RngStream(223))
    assert check_hansen_power(contraction, gen_t_psd(3, 4, RngStream(224)), 0.5).holds


# each Young and Hoelder certifier at exponents (p, q), its other arguments valid
_EXPONENT_CERTIFIERS = (
    check_young_witness,
    check_young_commuting,
    lambda a, b, p, q: check_holder(a, a, b, 1.0, p, q),
    lambda a, b, p, q: check_holder_pairs(a, b, a, b, p, q),
    lambda a, b, p, q: check_holder_corollary(a, b, 1.0, p, q),
)


@pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.0, 1e13), (0.5, -1.0)])
def test_young_certifiers_share_the_exponent_check(p, q):
    # one rule and one error for every Young and Hoelder statement
    a = gen_t_psd(2, 2, RngStream(224))
    raised = []
    for check in _EXPONENT_CERTIFIERS:
        with pytest.raises(HypothesisViolationError) as info:
            check(a, a, p, q)
        raised.append(str(info.value))
    assert raised == [f"exponents p={p}, q={q} are not conjugate"] * len(_EXPONENT_CERTIFIERS)


def _hoelder_accepts(r, p, q) -> bool:
    """The Hoelder certifiers' accepted exponents, spelled out: finite r > 0
    and finite conjugate p, q > 1 with |1/p + 1/q - 1| <= 1e-12."""
    finite = all(np.isfinite(e) for e in (r, p, q))
    return finite and r > 0 and p > 1 and q > 1 and abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12


def _passes_gate(check, *args) -> bool:
    """Whether ``check(*args)`` gets past its hypothesis checks."""
    try:
        check(*args)
    except HypothesisViolationError:
        return False
    return True


def test_hoelder_certifiers_accept_exactly_the_conjugate_exponents():
    values = (-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-13, 1.25, 2.0, 5.0, np.inf, np.nan)
    one = identity(1, 1)  # every power of it is itself, so any accepted exponent evaluates
    certifiers = {
        "holder": lambda r, p, q: check_holder(one, one, one, r, p, q),
        "holder-corollary": lambda r, p, q: check_holder_corollary(one, one, r, p, q),
        "holder-pairs": lambda r, p, q: check_holder_pairs(one, one, one, one, p, q),
    }
    accepted = []
    for name, check in certifiers.items():
        for r, p, q in itertools.product(values, repeat=3):
            if name == "holder-pairs" and r != 1.0:
                continue
            ok = _passes_gate(check, r, p, q)
            assert ok == _hoelder_accepts(r, p, q), (name, r, p, q)
            accepted.append(ok)
    # (2, 2), (1.25, 5) and (5, 1.25), at each of the six finite positive r
    # (holder-pairs: once); (1 + 1e-13, inf) is within the 1e-12 band but infinite
    assert sum(accepted) == 3 * 6 * 2 + 3


_EXPONENT_GRID = (-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-13, 1.25, 2.0, 5.0, np.inf, np.nan)
_ONE = identity(1, 1)  # every power of it is itself, so any accepted exponent evaluates

# each exponent-taking certifier: its number of exponents, the call, and how
# many exponent tuples from the grid it accepts
_EXPONENT_GATES = {
    "loewner-heinz": (1, lambda r: check_loewner_heinz(_ONE, _ONE, r), 3),
    "loewner-heinz-exploratory": (1, lambda r: check_loewner_heinz(_ONE, _ONE, r, exploratory=True), 8),
    "furuta": (3, lambda r, p, q: check_furuta(_ONE, _ONE, r, p, q), 235),
    "holder": (3, lambda r, p, q: check_holder(_ONE, _ONE, _ONE, r, p, q), 18),
    "holder-corollary": (3, lambda r, p, q: check_holder_corollary(_ONE, _ONE, r, p, q), 18),
    "holder-pairs": (2, lambda p, q: check_holder_pairs(_ONE, _ONE, _ONE, _ONE, p, q), 3),
    "young-commuting": (2, lambda p, q: check_young_commuting(_ONE, _ONE, p, q), 3),
    "young-witness": (2, lambda p, q: check_young_witness(_ONE, _ONE, p, q), 3),
}


@pytest.mark.parametrize("theorem", sorted(_EXPONENT_GATES))
def test_exponent_certifiers_fail_only_at_their_gate(theorem):
    # every exponent tuple either evaluates or is refused as a hypothesis
    # violation; none gets past the gate to an error of the evaluation
    # (a non-finite power is not a finite tensor)
    arity, check, expected = _EXPONENT_GATES[theorem]
    accepted = 0
    for exponents in itertools.product(_EXPONENT_GRID, repeat=arity):
        try:
            check(*exponents)
        except HypothesisViolationError:
            continue
        accepted += 1
    assert accepted == expected


def _off_symmetric(x: Tensor3, residual: float) -> Tensor3:
    """``x`` with entry ``(0, 1, 2)`` moved so that its symmetry residual,
    against its transpose partner ``(1, 0, n3 - 2)``, is ``residual``."""
    data = x.data.copy()
    data[0, 1, 2] += residual / np.sqrt(2)
    return Tensor3(data)


_A, _B = gen_loewner_pair(3, 4, RngStream(227))  # A >= B >= 0
_X = gen_random((3, 3, 4), RngStream(228))
_HALF = 0.5 * identity(3, 4)

# each PSD or order hypothesis of the eight certifiers that have one, by
# (certifier, the stack its gate names): the valid tensor of that stack, and
# the certifier called with it replaced by ``t``, its other arguments valid
_PSD_SLOTS = {
    ("loewner-heinz", "B"): (_B, lambda t, tol: check_loewner_heinz(_A, t, 0.5, tol=tol)),
    ("loewner-heinz", "A - B"): (_A, lambda t, tol: check_loewner_heinz(t, _B, 0.5, tol=tol)),
    ("furuta", "B"): (_B, lambda t, tol: check_furuta(_A, t, 1.0, 2.0, 2.0, tol=tol)),
    ("furuta", "A - B"): (_A, lambda t, tol: check_furuta(t, _B, 1.0, 2.0, 2.0, tol=tol)),
    ("hansen-power", "X"): (_A, lambda t, tol: check_hansen_power(_HALF, t, 0.5, tol=tol)),
    ("young-commuting", "A"): (_A, lambda t, tol: check_young_commuting(t, _A, 2.0, 2.0, tol=tol)),
    ("young-commuting", "B"): (_A, lambda t, tol: check_young_commuting(_A, t, 2.0, 2.0, tol=tol)),
    ("heinz-family", "A"): (_A, lambda t, tol: check_heinz_family(t, _X, _B, 0.75, 1.0, tol=tol)),
    ("heinz-family", "B"): (_B, lambda t, tol: check_heinz_family(_A, _X, t, 0.75, 1.0, tol=tol)),
    ("holder", "A"): (_A, lambda t, tol: check_holder(t, _X, _B, 1.0, 2.0, 2.0, tol=tol)),
    ("holder", "B"): (_B, lambda t, tol: check_holder(_A, _X, t, 1.0, 2.0, 2.0, tol=tol)),
    ("complex-norm-b", "A"): (_A, lambda t, tol: check_complex_norm_bounds(t, _B, "b", tol=tol)),
    ("complex-norm-c", "A"): (_A, lambda t, tol: check_complex_norm_bounds(t, _B, "c", tol=tol)),
    ("complex-norm-c", "B"): (_B, lambda t, tol: check_complex_norm_bounds(_A, t, "c", tol=tol)),
}
_PSD_SLOT_IDS = [f"{theorem}-{name.replace(' ', '')}" for theorem, name in _PSD_SLOTS]


@pytest.mark.parametrize("slot", list(_PSD_SLOTS), ids=_PSD_SLOT_IDS)
def test_psd_hypothesis_off_symmetric_is_a_hypothesis_violation(slot):
    valid, call = _PSD_SLOTS[slot]
    name = re.escape(slot[1])
    with pytest.raises(HypothesisViolationError, match=rf"^{name} is not symmetric: symmetry residual 4\.50\de-06$"):
        call(_off_symmetric(valid, 4.5e-6), 1e-8)


@pytest.mark.parametrize("slot", list(_PSD_SLOTS), ids=_PSD_SLOT_IDS)
def test_psd_hypothesis_names_the_min_gap(slot):
    valid, call = _PSD_SLOTS[slot]
    name = re.escape(slot[1])
    with pytest.raises(
        HypothesisViolationError, match=rf"^{name} is not positive semidefinite \(min gap -\d\.\d{{3}}e[+-]\d\d\)$"
    ):
        call(-1.0 * valid, 1e-8)


@pytest.mark.parametrize("slot", list(_PSD_SLOTS), ids=_PSD_SLOT_IDS)
def test_psd_hypothesis_symmetry_floors_at_predicate_tol(slot):
    # at tol = 1e-12 the symmetry of a PSD operand is checked at PREDICATE_TOL,
    # as complex-norm-a and diag-spectrum check their symmetric operands
    valid, call = _PSD_SLOTS[slot]
    assert call(_off_symmetric(valid, 4.5e-11), 1e-12)


def test_exploratory_negative_power_of_a_singular_b_is_singular():
    a, b = power_order_counterexample()  # B's first slice is diag(1, 0)
    with pytest.raises(SingularTensorError, match="negative power needs strict definiteness"):
        check_loewner_heinz(a, b, -1.0, exploratory=True)


def _skewed(x: Tensor3) -> Tensor3:
    """``x`` with a skew part of ``3e-9 (1 + ||x||_F)``: inside the symmetry
    gate at the default tol, outside ``t_power``'s own ``1e-9``."""
    return _off_symmetric(x, 3e-9 * (1 + frobenius_norm(x)))


def _dented(x: Tensor3) -> Tensor3:
    """``x`` shifted to a smallest slice eigenvalue of ``-3e-9 (1 + max |w|)``:
    inside the PSD gate at the default tol, below ``t_power``'s clamp floor
    ``-1e-9 max w``."""
    w = t_eigenvalues(x).values.real
    shift = (w.min() + 3e-9 * (1 + w.max())) / (1 - 3e-9)
    return x - shift * identity(x.n1, x.n3)


# each certifier that powers a PSD operand: the valid operand, and the
# certifier called with it replaced by ``t``, its other arguments valid
_POWERED = {
    "loewner-heinz": (_B, lambda t: check_loewner_heinz(_A, t, 0.5)),
    "furuta": (_B, lambda t: check_furuta(_A, t, 1.0, 2.0, 2.0)),
    "hansen-power": (_A, lambda t: check_hansen_power(_HALF, t, 0.5)),
    "young-commuting": (_A, lambda t: check_young_commuting(t, _A, 2.0, 2.0)),
    "heinz-family": (_A, lambda t: check_heinz_family(t, _X, _B, 0.75, 1.0)),
    "holder": (_A, lambda t: check_holder(t, _X, _B, 1.0, 2.0, 2.0)),
}


@pytest.mark.parametrize("perturb", [_skewed, _dented], ids=["skewed", "dented"])
@pytest.mark.parametrize("theorem", sorted(_POWERED))
def test_gate_accepted_operand_is_powered(theorem, perturb):
    # an operand the hypothesis gate accepts at the default tol is powered
    # as it is, however tighter t_power's own checks are
    valid, call = _POWERED[theorem]
    operand = perturb(valid)
    if perturb is _dented:
        verdict = is_t_psd(operand, 1e-8)
        assert verdict.holds and verdict.min_gap_eigenvalue < -2e-9 * (1 + np.abs(t_eigenvalues(operand).values).max())
    certs = call(operand)
    assert all(isinstance(c, InequalityCertificate) for c in (certs if isinstance(certs, (list, tuple)) else [certs]))


def test_psd_gate_checks_every_stack_symmetric_first():
    with pytest.raises(HypothesisViolationError, match="^B is not symmetric"):
        check_holder(-1.0 * _A, _X, _off_symmetric(_B, 4.5e-6), 1.0, 2.0, 2.0)


def test_complex_norm_variant_a_b_zero():
    a = gen_symmetric(2, 2, RngStream(212))
    certs = check_complex_norm_bounds(a, Tensor3.zeros(2, 2, 2), "a")
    assert all(c.holds for c in certs)


def test_complex_norm_variant_a_frobenius_identity():
    from ttensor import ComplexTensor3, frobenius_norm

    for trial in range(20):
        a = gen_symmetric(3, 2, RngStream(213, trial))
        b = gen_symmetric(3, 2, RngStream(214, trial))
        t = ComplexTensor3.from_parts(a, b)
        assert frobenius_norm(t) ** 2 == pytest.approx(
            frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2, rel=1e-10
        )
        certs = check_complex_norm_bounds(a, b, "a")
        assert all(c.holds for c in certs)


def test_complex_norm_variant_a_literal_spectral_lower_fails():
    # commuting projections onto orthogonal directions break the undamped form
    a = Tensor3.from_slices([np.diag([1.0, 0.0])])
    b = Tensor3.from_slices([np.diag([0.0, 1.0])])
    literal = {c.params["claim"]: c for c in check_complex_norm_bounds(a, b, "a", mode="literal")}
    assert not literal["spectral-lower"].holds
    corrected = {c.params["claim"]: c for c in check_complex_norm_bounds(a, b, "a")}
    assert corrected["spectral-lower"].holds


def test_complex_norm_variant_b_scalar_counterexample():
    one = identity(1, 1)
    certs = check_complex_norm_bounds(one, one, "b", mode="literal")
    by_claim = {c.params["claim"]: c for c in certs}
    bad = by_claim["frobenius-lower"]
    assert not bad.holds
    assert bad.lhs == pytest.approx(3.0)  # ||A||_F^2 + 2 ||B||_F^2
    assert bad.rhs == pytest.approx(2.0)  # |1 + i|^2
    assert by_claim["spectral-upper"].holds


def test_complex_norm_variant_c():
    for trial in range(20):
        a = gen_t_psd(2, 3, RngStream(215, trial))
        b = gen_t_psd(2, 3, RngStream(216, trial))
        assert all(c.holds for c in check_complex_norm_bounds(a, b, "c"))


def test_complex_norm_validates_hypotheses():
    ns = gen_random((2, 2, 2), RngStream(217))
    sym = gen_symmetric(2, 2, RngStream(218))
    with pytest.raises(HypothesisViolationError):
        check_complex_norm_bounds(ns, sym, "a")
    from ttensor import is_t_psd

    if not is_t_psd(sym).holds:
        with pytest.raises(HypothesisViolationError):
            check_complex_norm_bounds(sym, sym, "c")


def test_complex_norm_unknown_variant_is_a_usage_error():
    sym = gen_symmetric(2, 2, RngStream(219))
    with pytest.raises(ValueError, match=r"^unknown variant 'd'$"):
        check_complex_norm_bounds(sym, sym, "d")


def test_hansen_unknown_mode_is_a_usage_error_before_the_psd_gate():
    not_psd = -1.0 * gen_t_psd(2, 2, RngStream(220))
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        check_hansen_power(identity(2, 2), not_psd, 0.5, mode="bogus")


def test_symmetric_hypothesis_has_one_gate_at_small_tol():
    # complex-norm and diag-spectrum check A, B symmetric through one gate,
    # floored at PREDICATE_TOL, so at tol = 1e-12 they agree on a pair that
    # misses symmetry by a 2.8e-11 residual, and name the residual of a worse one
    b = gen_symmetric(3, 4, RngStream(226))
    checks = (
        lambda a: check_complex_norm_bounds(a, b, "a", tol=1e-12),
        lambda a: diag_spectrum_bound(a, b, tol=1e-12),
    )
    data = gen_symmetric(3, 4, RngStream(225)).data.copy()
    data[0, 1, 2] += 2e-11
    for check in checks:
        assert all(c.holds for c in check(Tensor3(data)))
    data[0, 1, 2] += 1e-3
    for check in checks:
        with pytest.raises(HypothesisViolationError) as info:
            check(Tensor3(data))
        assert str(info.value) == "A is not symmetric: symmetry residual 1.414e-03"


def test_young_commuting_commutation_check_floors_at_predicate_tol():
    # diagonal A and a B whose off-diagonal eps makes ||AB - BA||_F = sqrt(2) eps
    a = Tensor3.from_slices([np.diag([1.0, 2.0])])
    for eps, floored in ((1e-10, True), (1e-6, False)):
        b = Tensor3.from_slices([np.array([[3.0, eps], [eps, 4.0]])])
        for tol in (1e-12, 1e-9):
            if floored:
                assert check_young_commuting(a, b, 2.0, 2.0, tol=tol).holds
            else:
                with pytest.raises(HypothesisViolationError, match="^pair does not commute"):
                    check_young_commuting(a, b, 2.0, 2.0, tol=tol)


def test_am_gm_scalar_cases():
    a = 2.0 * identity(1, 1)
    x = identity(1, 1)
    b = identity(1, 1)
    # for scalars both norms are the absolute value
    for good in check_am_gm(a, x, b, mode="corrected"):
        assert good.holds and good.lhs == pytest.approx(2.0) and good.rhs == pytest.approx(2.5)
    for bad in check_am_gm(a, x, b, mode="literal"):
        assert not bad.holds and bad.rhs == pytest.approx(1.5)


@pytest.mark.parametrize("norm_kind", ["frobenius", "spectral"])
def test_am_gm_corrected_random(norm_kind):
    for trial in range(100):
        g = RngStream(2300, trial).generator()
        a, x, b = (gen_random((3, 3, 2), g) for _ in range(3))
        certs = {c.norm_kind: c for c in check_am_gm(a, x, b)}
        assert certs[norm_kind].holds


def test_heinz_identity_equality():
    eye = identity(2, 2)
    for r, t in ((0.5, -1.0), (1.0, 0.0), (1.5, 2.0)):
        f1, f2, c1, c2 = check_heinz_family(eye, eye, eye, r, t)
        assert c1.holds and abs(c1.margin) < 1e-9
        assert c1.lhs == pytest.approx(2 * (2 + t), rel=1e-10)
        assert c2.holds
        assert f1.holds and abs(f1.margin) < 1e-9 and f2.holds


def test_heinz_equal_pair_part2_equality():
    a = gen_t_psd(2, 2, RngStream(219))
    _, f2, _, s2 = check_heinz_family(a, a, a, 1.0, 0.0)
    # 4 ||A^2|| == ||(2A)^2|| in either norm
    for c2 in (f2, s2):
        assert c2.holds and abs(c2.margin) <= 1e-9 * (1 + abs(c2.rhs))


def test_heinz_rejects_bad_parameters():
    a = gen_t_psd(2, 2, RngStream(220))
    x = gen_random((2, 2, 2), RngStream(221))
    with pytest.raises(HypothesisViolationError):
        check_heinz_family(a, x, a, 0.25, 0.0)
    with pytest.raises(HypothesisViolationError):
        check_heinz_family(a, x, a, 1.0, -2.0)


def test_holder_cauchy_schwarz_instance():
    a = gen_t_psd(2, 2, RngStream(222))
    assert all(c.holds for c in check_holder(a, identity(2, 2), a, 1.0, 2.0, 2.0))


def test_holder_prefactor_is_exactly_one():
    # the prefactor n3^(1/(2p) + 1/(2q) - 1/2) is 1 for conjugate (p, q), so
    # the certifiers leave it out and only require conjugacy
    from ttensor.inequalities import _require_conjugate

    for p in (1.25, 1.5, 2.0, 3.0, 5.0):
        assert _require_conjugate(p, p / (p - 1.0)) is None
    with pytest.raises(HypothesisViolationError, match=r"^exponents p=2.0, q=3.0 are not conjugate$"):
        _require_conjugate(2.0, 3.0)


def test_holder_rejects_unit_exponent():
    a = gen_t_psd(2, 2, RngStream(223))
    with pytest.raises(HypothesisViolationError):
        check_holder_pairs(a, a, a, a, 1.0, np.inf)


def test_holder_corollary_scalar():
    # | 2 * 3 |^r <= (2^(pr))^(1/p) * (3^(qr))^(1/q) = 6^r, equality
    a = 2.0 * identity(1, 1)
    b = 3.0 * identity(1, 1)
    for r, p in ((0.5, 2.0), (1.0, 1.25), (2.0, 5.0)):
        for cert in check_holder_corollary(a, b, r, p, p / (p - 1.0)):
            assert cert.holds
            assert cert.lhs == pytest.approx(6.0**r, rel=1e-10)
            assert abs(cert.margin) <= 1e-9 * (1 + cert.rhs)


def test_holder_pairs_cauchy_schwarz_instance():
    # p = q = 2 with b = d = 0 reduces to ||C^T A|| <= || |A|^2 ||^(1/2) || |C|^2 ||^(1/2)
    a = gen_random((2, 2, 3), RngStream(230))
    c = gen_random((2, 2, 3), RngStream(231))
    z = Tensor3.zeros(2, 2, 3)
    assert all(cert.holds for cert in check_holder_pairs(a, z, c, z, 2.0, 2.0))


def test_minkowski_zero_second_pair():
    a1 = gen_random((2, 2, 2), RngStream(224))
    b1 = gen_random((2, 2, 2), RngStream(225))
    z = Tensor3.zeros(2, 2, 2)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert all(c.holds for c in check_minkowski(a1, z, b1, z, p))


def test_minkowski_scalar_triangle_equality():
    a1 = 3.0 * identity(1, 1)
    a2 = 4.0 * identity(1, 1)
    z = Tensor3.zeros(1, 1, 1)
    # sqrt(49) = 3 + 4
    for cert in check_minkowski(a1, a2, z, z, 2.0):
        assert cert.holds and abs(cert.margin) < 1e-12


def test_scale_robustness_flips_no_verdict():
    scale = 1e3
    a, b = gen_loewner_pair(2, 2, RngStream(226))
    assert check_loewner_heinz(a, b, 0.5).holds
    assert check_loewner_heinz(scale * a, scale * b, 0.5).holds
    x, y, zt = (gen_random((2, 2, 2), RngStream(227, k)) for k in range(3))
    assert [c.holds for c in check_am_gm(x, y, zt)] == [
        c.holds for c in check_am_gm(scale * x, scale * y, scale * zt)
    ]


def test_scale_robustness_across_certifiers():
    scale = 1e3
    g = RngStream(240).generator()
    a, b = gen_t_psd(2, 2, g), gen_t_psd(2, 2, g)
    x = gen_random((2, 2, 2), g)
    pairs = [
        check_heinz_family(a, x, b, 1.0, 1.0),
        check_heinz_family(scale * a, scale * x, scale * b, 1.0, 1.0),
    ]
    assert [c.holds for c in pairs[0]] == [c.holds for c in pairs[1]]
    assert [c.holds for c in check_holder(a, x, b, 1.0, 2.0, 2.0)] == [
        c.holds for c in check_holder(scale * a, scale * x, scale * b, 1.0, 2.0, 2.0)
    ]
    assert [c.holds for c in check_minkowski(a, b, x, x, 2.0)] == [
        c.holds for c in check_minkowski(scale * a, scale * b, scale * x, scale * x, 2.0)
    ]
    big = check_complex_norm_bounds(scale * gen_symmetric(2, 2, RngStream(241)),
                                    scale * gen_symmetric(2, 2, RngStream(242)), "a")
    assert all(c.holds for c in big)


def test_norm_certifiers_return_both_norms_in_report_order():
    # one call per instance: the Frobenius certificates first, then the
    # spectral ones, each norm's parts in the same order
    g = RngStream(243).generator()
    a, b = gen_t_psd(2, 3, g), gen_t_psd(2, 3, g)
    x, c, d = (gen_random((2, 2, 3), g) for _ in range(3))
    both = [("frobenius", None), ("spectral", None)]
    cases = {
        "am-gm": (check_am_gm(x, c, d), both),
        "heinz-family": (
            check_heinz_family(a, x, b, 1.0, 1.0),
            [("frobenius", "weighted"), ("frobenius", "product"),
             ("spectral", "weighted"), ("spectral", "product")],
        ),
        "holder": (check_holder(a, x, b, 1.0, 2.0, 2.0), both),
        "holder-pairs": (check_holder_pairs(x, c, d, a, 2.0, 2.0), both),
        "holder-corollary": (check_holder_corollary(x, c, 1.0, 2.0, 2.0), both),
        "minkowski": (check_minkowski(x, c, d, a, 2.0), both),
    }
    for theorem_id, (certs, order) in cases.items():
        assert isinstance(certs, list), theorem_id
        assert [c.theorem_id for c in certs] == [theorem_id] * len(order)
        assert [(c.norm_kind, c.params.get("part")) for c in certs] == order, theorem_id
    # each certificate takes the norm its field names
    from ttensor import frobenius_norm, spectral_norm, t_product, transpose

    lhs = t_product(t_product(x, c), transpose(d))
    fro, spec = cases["am-gm"][0]
    assert (fro.lhs, spec.lhs) == (frobenius_norm(lhs), spectral_norm(lhs))
    _, fro, _, spec = cases["heinz-family"][0]
    ab = t_product(a, b)
    assert (fro.lhs, spec.lhs) == (4 * frobenius_norm(ab), 4 * spectral_norm(ab))


def test_certificate_margin_invariant():
    a, b = gen_loewner_pair(2, 2, RngStream(228))
    cert = check_loewner_heinz(a, b, 0.7)
    assert cert.margin == pytest.approx(cert.rhs - cert.lhs, abs=1e-15)
    assert cert.holds == (cert.margin >= -cert.tol)


def test_a_certificate_of_a_side_that_is_not_finite_raises():
    # an infinite or NaN side or scale has no verdict and no JSON form: the
    # right side ||A| + |B|| + ||-A| + |-B|| of 1.6e308 + 1.6e308 overflows
    a = Tensor3(np.full((1, 1, 1), 8e307))
    with pytest.raises(ValueError, match="^minkowski: a certificate needs finite"):
        check_minkowski(a, -a, a, -a, 1.0)
    for lhs, rhs in ((1.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="^t: a certificate needs finite"):
            norm_certificate("t", dims=(1, 1, 1), params={}, norm_kind=FROBENIUS, lhs=lhs, rhs=rhs)
    with pytest.raises(ValueError, match="^t: a certificate needs finite"):
        _build(_Blocks("t", (1, 1, 1), DEFAULT_TOL, [[({}, NO_NORM, 0.0, 0.0, np.inf)]]))


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_complex_norm_bounds_of_an_overflowing_square_raise_the_finite_side_error(variant):
    # ||A||_2^2 of 1e320 overflowed Python's float ** with OverflowError;
    # it is now the ValueError of any non-finite side, naming the theorem,
    # and the Gram root of variant a, whose entries would overflow, is not formed
    big = Tensor3(np.full((2, 2, 2), 1e160))
    with pytest.raises(ValueError, match=f"^complex-norm-{variant}: a certificate needs finite"):
        check_complex_norm_bounds(big, big, variant)


def test_a_side_whose_sum_of_squares_overflows_is_certified():
    # |B|^2 has entries near 1e300, so the plain sums of squares of its
    # Frobenius norm overflow; the scaled norm is finite, and so are the sides
    a, big = gen_random((2, 2, 3), RngStream(1)), 1e150 * gen_random((2, 2, 3), RngStream(2))
    certs = check_holder_corollary(a, big, 1.0, 2.0, 2.0)
    assert [c.norm_kind for c in certs] == ["frobenius", "spectral"]
    for c in certs:
        assert np.isfinite([c.lhs, c.rhs, c.margin, c.tol]).all() and c.holds
        assert 1e150 < c.lhs < c.rhs < 1e151


def test_loewner_certificate_min_gap_vs_quadratic_form():
    # the reported min-gap eigenvalue is a true lower bound for the quadratic
    # form of RHS - LHS sampled over 10^4 random lateral slices
    import numpy as np

    from ttensor import inner_product, t_power, t_product

    a, b = gen_loewner_pair(2, 3, RngStream(229))
    r = 0.5
    cert = check_loewner_heinz(a, b, r)
    diff = t_power(a, r) - t_power(b, r)
    rng = np.random.default_rng(0)
    sampled_min = np.inf
    for _ in range(10_000):
        x = Tensor3(rng.uniform(-1.0, 1.0, size=(2, 1, 3)))
        sampled_min = min(
            sampled_min, inner_product(x, t_product(diff, x)) / inner_product(x, x)
        )
    # sampling can only overestimate the minimum eigenvalue
    assert sampled_min >= cert.margin - 10 * cert.tol
    assert sampled_min >= -10 * cert.tol  # certificate holds here


# the tolerance rule, pinned without the report digests: a norm certificate's
# effective tolerance is tol * (1 + |rhs|), an order certificate's
# tol * (1 + ||R||_2) for its right-hand side R

ORDER_THEOREMS = ("loewner-heinz", "hansen-power", "furuta", "young-commuting", "young-witness")


@pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t not in ORDER_THEOREMS])
def test_norm_certificate_tolerance_scales_with_the_right_side(theorem_id):
    result = run_campaign(theorem_id, n=2, n3=3, trials=6, seed=0)
    assert result.certificates
    for c in result.certificates:
        assert c.tol == DEFAULT_TOL * (1 + abs(c.rhs)), c.params
        assert c.margin == c.rhs - c.lhs and c.holds == (c.margin >= -c.tol)


def _sym(x: Tensor3) -> Tensor3:
    return 0.5 * (x + transpose(x))


def _conjugated(q: Tensor3, x: Tensor3) -> Tensor3:
    return _sym(t_product(t_product(transpose(q), x), q))


def _order_cases():
    """``(certificate, R)`` of ``loewner_certificate`` and each public order
    certifier, each ``R`` formed apart from the certifier through the public
    functions."""
    a, b = gen_loewner_pair(3, 4, RngStream(81))
    yield loewner_certificate("t", b, a, dims=a.shape, params={}), a
    yield check_loewner_heinz(a, b, 0.5), t_power(a, 0.5)
    raw = gen_random((3, 3, 4), RngStream(82))
    q = raw * (1.0 / (1.5 * spectral_norm(raw)))
    x = gen_t_psd(3, 4, RngStream(83))
    yield check_hansen_power(q, x, 0.5), t_power(_conjugated(q, x), 0.5)
    yield check_hansen_power(q, x, 1.5), _conjugated(q, t_power(x, 1.5))
    r, p, s = 0.5, 1.0, 1.5  # q = 4/3, so (p + 2r) / q = 1.5
    lower, upper = check_furuta(a, b, r, p, 4 / 3)
    sandwich = _sym(t_product(t_product(t_power(b, r), t_power(a, p)), t_power(b, r)))
    yield lower, t_power(sandwich, 3 / 4)
    yield upper, t_power(a, s)
    c, d = gen_commuting_psd_pair(3, 4, RngStream(84))
    yield check_young_commuting(c, d, 3.0, 1.5), t_power(c, 3.0) * (1 / 3.0) + t_power(d, 1.5) * (1 / 1.5)


def test_order_certificate_tolerance_scales_with_the_right_side():
    for cert, rhs in _order_cases():
        assert cert.tol == DEFAULT_TOL * (1 + spectral_norm(rhs)), cert.theorem_id
        assert cert.margin == -cert.lhs and cert.rhs == 0.0


def test_young_witness_tolerance_scales_with_the_right_side():
    # |A|^p and |B|^q from t_abs and t_power round differently from the
    # witness's one SVD of each half slice, so R's norm agrees to roundoff
    a, b = gen_random((3, 3, 4), RngStream(85)), gen_random((3, 3, 4), RngStream(86))
    p, q = 3.0, 1.5
    cert = check_young_witness(a, b, p, q)
    rhs = t_power(t_abs(a), p) * (1 / p) + t_power(t_abs(b), q) * (1 / q)
    assert cert.tol == pytest.approx(DEFAULT_TOL * (1 + spectral_norm(rhs)), rel=1e-12, abs=0)
