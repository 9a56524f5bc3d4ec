"""The certifier bodies at 50 digits: each float margin against the margin
the same body gives on :class:`mpstack._MpStack`, on the campaign's own
draws."""

import pytest

from mpstack import _MpStack
from ttensor import THEOREM_IDS, campaigns, run_campaign
from ttensor.certificates import DEFAULT_TOL, _build

# the theorems under |X|^r, which takes one SVD per half slice: their float
# margins stay within 1e-5 tol of the 50-digit ones (at most 1.1e-7 tol
# measured at (2, 3), (3, 4), (3, 127) and (3, 128), and for young-witness
# at most 8.6e-9 tol at (2, 3), (3, 4) and (3, 16)); every other theorem is
# held to tol
ABS_POWER_IDS = ("holder", "holder-pairs", "holder-corollary", "minkowski", "young-witness")
ABS_POWER_RTOL = 1e-5

# holder at n = 3, n3 = 127, seed 0, trial 0 (r = 0.5, p = 1.25, q = 5): the
# Frobenius margin that this file's holder body gives on _MpStack.of of the
# campaign's draws (a 50-digit DFT, products and eighe powers of each half
# slice), rounded to float64
_HOLDER_LONG_TUBE = 435.44370302147377

# Furuta at n = 4, n3 = 4, seed 30, trial 0: the float lower margin reads a
# violation.  The values are this file's 50-digit margins, rounded to
# float64; an independent per-slice mpmath computation (50-digit DFT, eighe
# of each half slice of the sandwich) gave 2.930766872e-3 and 0.2154585265.
_FURUTA_SEED_30 = {"lower": 2.9307668724261582e-3, "upper": 0.21545852653337733}

# Furuta at n = 3, n3 = 64, seed 0, trial 0: this file's 50-digit lower
# margin, rounded to float64.  The float margin, 0.9589675285715638, lies
# 0.98 of its tol (1.41e-3) above it.
_FURUTA_LONG_TUBE_LOWER = 0.957582823932036


def _trial_certificates(theorem_id, n, n3, seed, stack_type, trial=0):
    """One trial's certificates, drawn as the campaign draws it and
    certified by the campaign's certifier on stacks of ``stack_type``."""
    theorem = campaigns._REGISTRY[theorem_id]
    ((_, stacks, columns),) = theorem.draw(campaigns._Window(seed, [trial], n, n3), "corrected", {})
    return _build(theorem.certify([stack_type(s) for s in stacks], columns, DEFAULT_TOL, "corrected"))[0]


def _float(stack):
    return stack


@pytest.mark.parametrize("n,n3", [(2, 3), (3, 4)])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)  # every certifier is written in the stack algebra
def test_float_margins_agree_with_50_digits(theorem_id, n, n3):
    floats = _trial_certificates(theorem_id, n, n3, 0, _float)
    campaign = run_campaign(theorem_id, n=n, n3=n3, trials=1, seed=0).certificates
    assert [c.margin for c in floats] == [c.margin for c in campaign]
    exact = _trial_certificates(theorem_id, n, n3, 0, _MpStack.of)
    for f, m in zip(floats, exact, strict=True):
        assert (f.params, f.norm_kind) == (m.params, m.norm_kind)
        bound = ABS_POWER_RTOL * f.tol if theorem_id in ABS_POWER_IDS else f.tol
        assert abs(f.margin - m.margin) <= bound, (f.params, f.margin, m.margin, f.tol)


def test_float_holder_long_tube_matches_50_digits():
    # |X|^r from the Gram X^T X squared the condition of X and put this
    # margin 2.2 tol off
    frobenius, _ = _trial_certificates("holder", 3, 127, 0, _float)
    assert frobenius.norm_kind == "frobenius"
    assert abs(frobenius.margin - _HOLDER_LONG_TUBE) <= 1e-6 * frobenius.tol


def test_furuta_seed_30_at_50_digits():
    lower, upper = _trial_certificates("furuta", 4, 4, 30, _MpStack.of)
    assert lower.margin == pytest.approx(_FURUTA_SEED_30["lower"], rel=1e-12)
    assert upper.margin == pytest.approx(_FURUTA_SEED_30["upper"], rel=1e-12)
    assert lower.holds and upper.holds


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Furuta powers the formed sandwich B^r A^p B^r, "
    "whose slice condition reaches 6.5e16 at this seed",
)
def test_float_furuta_seed_30_matches_50_digits():
    lower, upper = _trial_certificates("furuta", 4, 4, 30, _float)
    assert lower.holds
    assert abs(lower.margin - _FURUTA_SEED_30["lower"]) <= 1e-9
    assert abs(upper.margin - _FURUTA_SEED_30["upper"]) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Furuta powers the formed sandwich B^r A^p B^r, "
    "and its float lower margin at (3, 64) sits 0.98 tol off the 50-digit one",
)
def test_float_furuta_long_tube_matches_50_digits():
    lower, _ = _trial_certificates("furuta", 3, 64, 0, _float)
    assert lower.params["side"] == "lower"
    assert abs(lower.margin - _FURUTA_LONG_TUBE_LOWER) <= 1e-6 * lower.tol
