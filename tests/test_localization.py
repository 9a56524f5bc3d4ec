"""Spectral localization: disc containment, perturbation and matching bounds."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ttensor import (
    HypothesisViolationError,
    RngStream,
    ShapeMismatchError,
    Tensor3,
    bauer_fike,
    diag_spectrum_bound,
    gen_orthogonal,
    gen_random,
    gen_symmetric,
    gershgorin_component_count,
    gershgorin_contains,
    gershgorin_discs,
    gershgorin_gaps,
    hoffman_wielandt,
    identity,
    schur_bound,
    sorted_pairing_distance,
    t_eigenvalues,
    t_inverse,
    t_product,
)
from ttensor import campaigns, core, localization
from ttensor.cli import main
from oracles import brute_bcirc


def test_schur_scalar_equality():
    cert = schur_bound(Tensor3(np.full((1, 1, 1), 2.0)))
    assert cert.holds
    assert cert.lhs == pytest.approx(4.0) and cert.rhs == pytest.approx(4.0)


def test_schur_equality_for_symmetric():
    for trial in range(20):
        a = gen_symmetric(3, 3, RngStream(300, trial))
        cert = schur_bound(a)
        assert cert.holds
        assert abs(cert.margin) <= 1e-8 * (1 + cert.rhs)


@pytest.mark.parametrize("trial", range(100))
def test_schur_random(trial):
    a = gen_random((3, 3, 3), RngStream(301, trial))
    assert schur_bound(a).holds


def test_gershgorin_two_point_tube():
    t = Tensor3.from_flat([0.0, 1.0], 1, 1, 2)
    discs = gershgorin_discs(t)
    assert len(discs) == 1
    assert discs[0].center == 0 and discs[0].radius == pytest.approx(1.0)
    spec = t_eigenvalues(t)
    assert gershgorin_contains(discs, spec)
    comps = gershgorin_component_count(discs, spec)
    assert len(comps) == 1
    assert comps[0].disc_count == 1 and comps[0].eigenvalue_count == pytest.approx(1.0)


def test_gershgorin_campaign_takes_each_members_gaps_once(monkeypatch):
    calls, gaps = [], localization.gershgorin_gaps
    monkeypatch.setattr(localization, "gershgorin_gaps", lambda *args: calls.append(1) or gaps(*args))
    result = campaigns.run_campaign("gershgorin", n=3, n3=4, trials=3, seed=0)
    assert len(calls) == 3 and len(result.certificates) == 6


def test_gershgorin_campaign_records_an_escaped_eigenvalue_as_a_violation(monkeypatch, capsys):
    # containment is the theorem's claim, not a hypothesis: an eigenvalue
    # shifted out of every disc gives violated containment certificates and
    # exit 1, and the component count puts it in its nearest disc's component
    eigenvalues = core._Stack.eigenvalues
    monkeypatch.setattr(core._Stack, "eigenvalues", lambda self: eigenvalues(self) + 100.0)
    result = campaigns.run_campaign("gershgorin", n=3, n3=4, trials=2, seed=0)
    containment = [c for c in result.certificates if c.params["claim"] == "containment"]
    assert len(containment) == 2 and not any(c.holds for c in containment)
    assert main(["check", "gershgorin", "--n", "3", "--n3", "4", "--trials", "2"]) == 1


def test_gershgorin_component_count_refuses_an_escaped_eigenvalue():
    a = gen_random((3, 3, 4), RngStream(303))
    discs, values = gershgorin_discs(a), t_eigenvalues(a).values
    assert len(gershgorin_component_count(discs, values)) >= 1
    with pytest.raises(HypothesisViolationError, match=r"^eigenvalue .* escapes every disc by"):
        gershgorin_component_count(discs, values + 100.0)


def test_gershgorin_constant_tube_f_diagonal():
    data = np.zeros((3, 3, 2))
    data[np.arange(3), np.arange(3), 0] = [1.0, 5.0, -2.0]
    t = Tensor3(data)
    discs = gershgorin_discs(t)
    assert all(d.radius == 0.0 for d in discs)
    assert sorted(d.center.real for d in discs) == [-2.0, 1.0, 5.0]
    assert gershgorin_contains(discs, t_eigenvalues(t))


def test_gershgorin_radius_matches_bcirc_rows():
    # each tensor disc radius equals the off-diagonal absolute row sum of the
    # unfolding, and the n * n3 matrix discs collapse onto the n tensor discs
    a = gen_random((4, 4, 3), RngStream(302))
    discs = gershgorin_discs(a)
    big = brute_bcirc(a.data)
    m = big.shape[0]
    for row in range(m):
        i = row % 4
        radius = np.abs(big[row]).sum() - abs(big[row, row])
        assert radius == pytest.approx(discs[i].radius, rel=1e-13)
        assert big[row, row] == pytest.approx(discs[i].center.real, rel=1e-13)


@pytest.mark.parametrize("trial", range(100))
def test_gershgorin_containment_random(trial):
    a = gen_random((4, 4, 3), RngStream(303, trial))
    assert gershgorin_contains(gershgorin_discs(a), t_eigenvalues(a))


def test_gershgorin_component_counting_disjoint():
    # one isolated disc plus a two-disc overlapping cluster far away
    data = np.zeros((3, 3, 2))
    data[0, 0, 0] = 100.0
    data[1, 1, 0] = -100.0
    data[2, 2, 0] = -100.2
    data[:, :, 1] = 0.05  # small coupling widens every radius to 0.15
    a = Tensor3(data)
    discs = gershgorin_discs(a)
    comps = gershgorin_component_count(discs, t_eigenvalues(a))
    assert sorted(len(c.discs) for c in comps) == [1, 2]
    for comp in comps:
        assert comp.eigenvalue_count == pytest.approx(comp.disc_count)


def test_bauer_fike_identity_conjugation():
    # q = I, b = s + eps*I: every eigenvalue moves exactly eps
    n, n3, eps = 3, 2, 0.25
    g = RngStream(304).generator()
    data = np.zeros((n, n, n3))
    data[np.arange(n), np.arange(n), :] = g.uniform(-1, 1, size=(n, n3))
    s = Tensor3(data)
    b = s + eps * identity(n, n3)
    cert = bauer_fike(s, b, identity(n, n3), s)
    assert cert.holds
    assert cert.lhs == pytest.approx(eps, rel=1e-10)
    assert cert.rhs == pytest.approx(eps, rel=1e-10)


def test_bauer_fike_same_tensor_zero_distance():
    g = RngStream(305).generator()
    data = np.zeros((2, 2, 2))
    data[np.arange(2), np.arange(2), :] = g.uniform(-1, 1, size=(2, 2))
    s = Tensor3(data)
    cert = bauer_fike(s, s, identity(2, 2), s)
    assert cert.holds and cert.lhs <= 1e-10


def test_bauer_fike_validates_reconstruction():
    a = gen_random((2, 2, 2), RngStream(306))
    s = Tensor3(np.zeros((2, 2, 2)))
    with pytest.raises(HypothesisViolationError):
        bauer_fike(a, a, identity(2, 2), s)


def test_bauer_fike_reconstruction_check_scales_with_tol():
    # a = q^-1 s q + 1e-6 I misses the reconstruction by 1.4e-6: a hypothesis
    # violation at the default tol, within a caller's tol of 1e-3
    g = RngStream(307).generator()
    data = np.zeros((2, 2, 2))
    data[np.arange(2), np.arange(2), :] = g.uniform(-1, 1, size=(2, 2))
    s = Tensor3(data)
    q = gen_random((2, 2, 2), g)
    a = t_product(t_product(t_inverse(q), s), q) + 1e-6 * identity(2, 2)
    with pytest.raises(HypothesisViolationError, match="not reproduced"):
        bauer_fike(a, a, q, s)
    cert = bauer_fike(a, a, q, s, tol=1e-3)
    assert cert.holds and cert.lhs == 0.0


@pytest.mark.parametrize("n,n3,seed", [(3, 128, 0), (3, 127, 1), (2, 5, 2), (5, 64, 3)])
def test_bauer_fike_distance_matches_the_loop_over_eigenvalues(n, n3, seed):
    # the nearest-eigenvalue distance is taken a block of 64 eigenvalues of a
    # at a time; min and max are exact, so it equals the loop over each
    # eigenvalue bit for bit, whether the last block is full (3 x 128) or not
    window = campaigns._Window(seed, [0], n, n3)
    ((_, stacks, _),) = campaigns._draw_bauer_fike(window, "corrected", {})
    a, b, q, s, q_inv = (x.member(0) for x in stacks)
    assert q_inv.data.tobytes() == t_inverse(q).data.tobytes()
    lam, mu = t_eigenvalues(a).values, t_eigenvalues(b).values
    assert np.any(lam.imag)
    assert bauer_fike(a, b, q, s).lhs == float(max(np.abs(mu - z).min() for z in lam))


def test_hoffman_wielandt_uniform_shift_equality():
    n, n3, c = 3, 2, 0.5
    a = gen_symmetric(n, n3, RngStream(307))
    b = a + c * identity(n, n3)
    report, cert_sqrt, cert_stated = hoffman_wielandt(a, b)
    assert report.matched_distance == pytest.approx(c * np.sqrt(n * n3), rel=1e-9)
    assert report.bound_sqrt == pytest.approx(np.sqrt(n3) * c * np.sqrt(n), rel=1e-12)
    assert abs(cert_sqrt.margin) <= 1e-8 * (1 + cert_sqrt.rhs)  # equality case
    assert cert_sqrt.holds and cert_stated.holds
    assert report.bound_sqrt <= report.bound_stated


def test_hoffman_wielandt_identical_tensors():
    a = gen_symmetric(2, 3, RngStream(308))
    report, c1, c2 = hoffman_wielandt(a, a)
    assert report.matched_distance <= 1e-9
    assert c1.holds and c2.holds


def test_hoffman_wielandt_rejects_non_normal():
    bad = gen_random((3, 3, 2), RngStream(309))
    sym = gen_symmetric(3, 3, RngStream(310))
    with pytest.raises(HypothesisViolationError):
        hoffman_wielandt(bad, sym)


def _assignment_cost(lam, mu) -> float:
    """Oracle: the squared distance of a minimum-cost assignment."""
    cost = np.abs(mu[None, :] - lam[:, None]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _symmetric_campaign_pair(n, n3, seed):
    """Trial 0's pair of the ``hoffman-wielandt`` campaign."""
    window = campaigns._Window(seed, [0], n, n3)
    ((_, (a, b), _),) = campaigns._draw_symmetric_pair(window, "corrected", {})
    return a.member(0), b.member(0)


def _pairs_for_optimality():
    for trial in range(50):
        yield pytest.param(
            gen_symmetric(3, 2, RngStream(311, trial)), gen_symmetric(3, 2, RngStream(312, trial)),
            id=str(trial),
        )
    # conjugate slices give every eigenvalue twice, so the sorted and the
    # assignment pairing tie and sum in different orders
    yield pytest.param(*_symmetric_campaign_pair(3, 127, 0), id="campaign-n=3-n3=127-seed=0")


@pytest.mark.parametrize("pairing", [hoffman_wielandt, sorted_pairing_distance, diag_spectrum_bound])
def test_pairings_of_two_shapes_are_shape_errors(pairing):
    a, b = gen_symmetric(2, 3, RngStream(313)), gen_symmetric(3, 3, RngStream(314))
    with pytest.raises(ShapeMismatchError):
        pairing(a, b)


@pytest.mark.parametrize("a,b", _pairs_for_optimality())
def test_hoffman_wielandt_bounds_and_optimality(a, b):
    report, cert_sqrt, cert_stated = hoffman_wielandt(a, b)
    sorted_dist = sorted_pairing_distance(a, b)
    # real spectra take the sorted pairing: one distance for both certificates
    assert report.matched_distance == sorted_dist
    lam, mu = t_eigenvalues(a).values, t_eigenvalues(b).values
    assert not (np.any(lam.imag) or np.any(mu.imag))
    lam, mu = lam.real, mu.real
    # the permutation pairs the values in ascending order
    assert np.all(np.diff(mu[np.asarray(report.permutation)][np.argsort(lam, kind="stable")]) >= 0)
    # the sorted pairing is optimal: its squared cost is the assignment's up to one rounding
    oracle = _assignment_cost(lam, mu)
    assert abs(np.sum((np.sort(mu) - np.sort(lam)) ** 2) - oracle) <= np.spacing(oracle)
    assert sorted_dist <= report.bound_sqrt + 1e-8 * (1 + report.bound_sqrt)
    assert report.bound_sqrt <= report.bound_stated
    assert cert_sqrt.holds and cert_stated.holds


def test_hoffman_wielandt_complex_spectra_take_the_assignment():
    # orthogonal tensors are normal but not symmetric: their spectra lie on
    # the unit circle, off the real line
    a = gen_orthogonal(3, 4, RngStream(315))
    b = gen_orthogonal(3, 4, RngStream(316))
    lam, mu = t_eigenvalues(a).values, t_eigenvalues(b).values
    assert np.any(lam.imag) and np.any(mu.imag)
    report, cert_sqrt, cert_stated = hoffman_wielandt(a, b)
    oracle = _assignment_cost(lam, mu)
    assert report.matched_distance == pytest.approx(np.sqrt(oracle), rel=1e-12)
    perm = np.asarray(report.permutation)
    assert sorted(perm) == list(range(len(lam)))
    assert np.sum(np.abs(mu[perm] - lam) ** 2) == pytest.approx(oracle, rel=1e-12)
    assert cert_sqrt.holds and cert_stated.holds


def test_permutation_is_a_permutation():
    a = gen_symmetric(2, 2, RngStream(313))
    b = gen_symmetric(2, 2, RngStream(314))
    report, _, _ = hoffman_wielandt(a, b)
    assert sorted(report.permutation) == list(range(4))


def test_report_wire_formats():
    # field names of the serialized reports are part of the interface
    a = gen_symmetric(2, 2, RngStream(330))
    b = gen_symmetric(2, 2, RngStream(331))
    report, _, _ = hoffman_wielandt(a, b)
    assert list(report.to_json_dict()) == [
        "permutation", "matched_distance", "bound_sqrt", "bound_paper",
    ]
    disc = gershgorin_discs(gen_random((2, 2, 2), RngStream(332)))[0]
    assert list(disc.to_json_dict()) == ["center_re", "center_im", "radius"]


def test_diag_spectrum_scalar():
    one = Tensor3(np.full((1, 1, 1), 1.0))
    certs = diag_spectrum_bound(one, one)
    by_claim = {c.params["claim"]: c for c in certs}
    stated = by_claim["frobenius-stated"]
    assert stated.holds
    assert stated.lhs == pytest.approx(np.sqrt(2.0))
    assert stated.rhs == pytest.approx(2.0)  # sqrt(2) * |1 + i|
    assert by_claim["spectral"].holds and by_claim["frobenius-tight"].holds


def test_diag_spectrum_zero_imaginary_part():
    a = gen_symmetric(3, 2, RngStream(315))
    certs = diag_spectrum_bound(a, Tensor3.zeros(3, 3, 2))
    assert all(c.holds for c in certs)


@pytest.mark.parametrize("trial", range(50))
def test_diag_spectrum_random(trial):
    a = gen_symmetric(2, 3, RngStream(316, trial))
    b = gen_symmetric(2, 3, RngStream(317, trial))
    assert all(c.holds for c in diag_spectrum_bound(a, b))


def test_diag_spectrum_rejects_asymmetric():
    with pytest.raises(HypothesisViolationError):
        diag_spectrum_bound(gen_random((2, 2, 2), RngStream(318)), gen_symmetric(2, 2, RngStream(319)))


def test_gershgorin_on_complex_tensor():
    from ttensor import ComplexTensor3

    t = ComplexTensor3.from_parts(
        gen_random((3, 3, 2), RngStream(320)), gen_random((3, 3, 2), RngStream(321))
    )
    discs = gershgorin_discs(t)
    assert len(discs) == 3
    assert all(d.radius >= 0 for d in discs)
    assert gershgorin_contains(discs, t_eigenvalues(t))
    comps = gershgorin_component_count(discs, t_eigenvalues(t))
    assert sum(c.disc_count for c in comps) == 3


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n, n3", [(1, 1), (2, 2), (3, 5), (4, 4), (6, 9)])
def test_gershgorin_gaps_match_scalar_loop(n, n3, complex_input):
    from ttensor import ComplexTensor3

    for trial in range(6):
        a = gen_random((n, n, n3), RngStream(333, trial))
        if complex_input:
            a = ComplexTensor3.from_parts(a, gen_random((n, n, n3), RngStream(334, trial)))
        discs = gershgorin_discs(a)
        spectrum = t_eigenvalues(a)
        gaps, nearest, scale = gershgorin_gaps(discs, spectrum)
        # per-value scalar reference: nearest disc by scalar abs, first index on ties
        loop = [[abs(z - d.center) - d.radius for d in discs] for z in spectrum.values]
        assert np.array_equal(gaps, [min(row) for row in loop])
        assert nearest.tolist() == [row.index(min(row)) for row in loop]
        assert scale == 1.0 + max(abs(d.center) + d.radius for d in discs)
        # Python complex input (the CLI's display order) gives the same gaps
        assert np.array_equal(gershgorin_gaps(discs, [complex(z) for z in spectrum.values])[0], gaps)


def test_gershgorin_gaps_nearest_disc_on_ties():
    discs = gershgorin_discs(Tensor3(np.diag([1.0, -1.0, 1.0]).reshape(3, 3, 1)))
    gaps, nearest, scale = gershgorin_gaps(discs, [0.0, 1.0, -1.0, 3.0j])
    assert nearest.tolist() == [0, 0, 1, 0]
    assert gaps.tolist() == [1.0, 0.0, 0.0, np.hypot(1.0, 3.0)]
    assert scale == 2.0
