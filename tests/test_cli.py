"""Command-line surface: file I/O, commands, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ttensor import (
    RngStream,
    Tensor3,
    check_young_commuting,
    check_young_witness,
    cli,
    frobenius_norm,
    gen_random,
    gen_t_psd,
    t_product,
)
from ttensor.cli import main, read_tensor, write_tensor


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "ttensor.cli", *args], capture_output=True, text=True
    )


def _write(tmp_path, name, tensor):
    path = str(tmp_path / name)
    write_tensor(path, tensor)
    return path


def test_file_round_trip_bit_exact(tmp_path):
    a = gen_random((3, 4, 5), RngStream(400))
    path = _write(tmp_path, "a.json", a)
    back = read_tensor(path)
    assert np.array_equal(back.data, a.data)


def test_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [1, 1, 1], "data": [1.0], "extra": 1}))
    assert main(["eig", str(path)]) == 2


def test_file_rejects_bad_lengths(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "data": [1.0, 2.0]}))
    assert main(["eig", str(path)]) == 2


@pytest.mark.parametrize("doc,message", [
    ({"dims": [1, 1, 2], "data": [1.0]}, "data must be a flat array of 2 numbers"),
    ({"dims": [1, 1, 2], "data_re": [1.0], "data_im": [0.0]}, "data_re must be a flat array of 2 numbers"),
    (
        {"dims": [1, 1, 2], "data_re": [1.0, 2.0, 3.0], "data_im": [0.0, 0.0]},
        "data_re must be a flat array of 2 numbers",
    ),
    ({"dims": [1, 1, 2], "data": [[1.0], [2.0]]}, "data must be a flat array of 2 numbers"),
    ({"dims": [True, True, True], "data": [2.5]}, "dims must be three positive integers"),
], ids=["real-short", "complex-short", "complex-long-re", "nested", "boolean-dims"])
def test_file_rejects_data_that_is_not_a_flat_array_of_the_dims(tmp_path, capsys, doc, message):
    # every data array, and the dims, are checked the same way, and the
    # message names the file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.FileFormatError, match=f"bad.json: {message}"):
        read_tensor(str(path))
    assert main(["eig", str(path)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_file_rejects_nonfinite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [1, 1, 1], "data": [NaN]}')
    assert main(["eig", str(path)]) == 2


def test_file_rejects_integer_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [1, 1, 1], "data": [1' + "0" * 400 + ']}')
    assert main(["eig", str(path)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_complex_tensor_file_round_trip(tmp_path):
    from ttensor import ComplexTensor3, gen_symmetric

    t = ComplexTensor3.from_parts(
        gen_symmetric(2, 2, RngStream(401)), gen_symmetric(2, 2, RngStream(402))
    )
    path = _write(tmp_path, "t.json", t)
    back = read_tensor(path)
    assert np.array_equal(back.data, t.data)


def test_tprod_identity_round_trip(tmp_path, capsys):
    a = gen_random((3, 3, 2), RngStream(403))
    eye_data = np.zeros((3, 3, 2))
    eye_data[:, :, 0] = np.eye(3)
    pa = _write(tmp_path, "a.json", a)
    pi = _write(tmp_path, "i.json", Tensor3(eye_data))
    out = str(tmp_path / "c.json")
    assert main(["tprod", pi, pa, "-o", out]) == 0
    captured = capsys.readouterr().out
    assert "dims: 3 3 2" in captured
    c = read_tensor(out)
    assert frobenius_norm(c - a) < 1e-12


def test_tprod_matches_library_bit_exact(tmp_path, capsys):
    a = gen_random((2, 3, 2), RngStream(404))
    b = gen_random((3, 2, 2), RngStream(405))
    pa, pb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    out = str(tmp_path / "c.json")
    assert main(["tprod", pa, pb, "-o", out]) == 0
    assert np.array_equal(read_tensor(out).data, t_product(a, b).data)


def test_tprod_counterexample_square(tmp_path, capsys):
    from ttensor import power_order_counterexample

    a, _ = power_order_counterexample()
    pa = _write(tmp_path, "a.json", a)
    out = str(tmp_path / "sq.json")
    assert main(["tprod", pa, pa, "-o", out]) == 0
    sq = read_tensor(out)
    assert np.allclose(sq.slice(0), [[5.0, 3.0], [3.0, 2.0]], atol=1e-13)
    assert np.abs(sq.slice(1)).max() < 1e-13


def test_tprod_shape_error_exit_2(tmp_path):
    a = gen_random((2, 3, 2), RngStream(406))
    b = gen_random((2, 3, 2), RngStream(407))
    pa, pb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    assert main(["tprod", pa, pb, "-o", str(tmp_path / "c.json")]) == 2


@pytest.mark.parametrize("target", ["missing/c.json", "."])
def test_tprod_unwritable_output_exit_2(tmp_path, capsys, target):
    # an output in a missing directory, or a directory, is a file error:
    # exit 2 with a message, not exit 1 (a violation) and a traceback
    a = gen_random((2, 2, 2), RngStream(408))
    pa = _write(tmp_path, "a.json", a)
    out = str(tmp_path / target)
    assert main(["tprod", pa, pa, "-o", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def test_eig_identity(tmp_path, capsys):
    eye_data = np.zeros((2, 2, 2))
    eye_data[:, :, 0] = np.eye(2)
    path = _write(tmp_path, "i.json", Tensor3(eye_data))
    assert main(["eig", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 4
    assert all(abs(e["re"] - 1.0) < 1e-12 and abs(e["im"]) < 1e-12 for e in doc["eigenvalues"])


def test_eig_two_point_tube(tmp_path, capsys):
    path = _write(tmp_path, "t.json", Tensor3.from_flat([0.0, 1.0], 1, 1, 2))
    assert main(["eig", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = sorted(e["re"] for e in doc["eigenvalues"])
    assert values == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_eig_matches_library(tmp_path, capsys):
    from ttensor import multiset_distance, t_eigenvalues

    a = gen_random((3, 3, 3), RngStream(408))
    path = _write(tmp_path, "a.json", a)
    assert main(["eig", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cli_values = np.array([e["re"] + 1j * e["im"] for e in doc["eigenvalues"]])
    assert multiset_distance(cli_values, t_eigenvalues(a).values) == 0.0


def test_check_known_good_campaign(capsys):
    assert main(["check", "loewner-heinz", "--n", "3", "--n3", "4", "--trials", "20", "--seed", "7"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_check_literal_am_gm_exit_1(capsys):
    assert main(["check", "am-gm", "--mode", "literal", "--trials", "10", "--seed", "1"]) == 1


def test_check_unknown_theorem_exit_2(capsys):
    assert main(["check", "nosuch"]) == 2


@pytest.mark.parametrize("argv", [
    ["am-gm", "--n3", "0"], ["schur", "--n", "0"], ["schur", "--trials", "-5"],
])
def test_check_sizes_out_of_range_exit_2(capsys, argv):
    assert main(["check", *argv]) == 2
    assert "need n >= 1, n3 >= 1 and trials >= 0" in capsys.readouterr().err


def test_check_json_reproducible_across_processes(tmp_path):
    args = ["check", "schur", "--n", "2", "--n3", "2", "--trials", "12", "--seed", "3", "--json"]
    r1 = run_cli(args)
    r2 = run_cli(args)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    for line in r1.stdout.strip().splitlines():
        json.loads(line)  # every line is valid JSON


def test_gershgorin_f_diagonal(tmp_path, capsys):
    data = np.zeros((2, 2, 1))
    data[0, 0, 0], data[1, 1, 0] = 3.0, -1.0
    path = _write(tmp_path, "d.json", Tensor3(data))
    assert main(["gershgorin", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_contained"]
    assert all(d["radius"] == 0.0 for d in doc["discs"])


def test_gershgorin_two_point_tube(tmp_path, capsys):
    path = _write(tmp_path, "t.json", Tensor3.from_flat([0.0, 1.0], 1, 1, 2))
    assert main(["gershgorin", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["discs"] == [{"center_re": 0.0, "center_im": 0.0, "radius": 1.0}]
    assert doc["all_contained"]


def test_gershgorin_random_exit_0(tmp_path, capsys):
    a = gen_random((4, 4, 3), RngStream(409))
    path = _write(tmp_path, "a.json", a)
    assert main(["gershgorin", path]) == 0


def test_non_square_tensor_is_a_usage_error_for_eig_and_gershgorin(tmp_path, capsys):
    path = _write(tmp_path, "a.json", gen_random((2, 3, 2), RngStream(410)))
    for command in ("eig", "gershgorin"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "square tensor, got (2, 3, 2)" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_out_of_range_exit_2(tmp_path, capsys, tol):
    # the tensor is contained at the default tolerance (test_gershgorin_random_exit_0)
    path = _write(tmp_path, "a.json", gen_random((4, 4, 3), RngStream(409)))
    for argv in (["check", "furuta", "--trials", "2"], ["check", "minkowski", "--trials", "2"],
                 ["gershgorin", path]):
        assert main([*argv, "--tol", tol]) == 2
        assert "error: tol must be a finite number >= 0" in capsys.readouterr().err


def test_missing_file_exit_2():
    assert main(["eig", "/nonexistent/tensor.json"]) == 2


def test_eig_on_complex_tensor_file(tmp_path, capsys):
    from ttensor import ComplexTensor3, gen_symmetric, multiset_distance, t_eigenvalues

    t = ComplexTensor3.from_parts(
        gen_symmetric(2, 3, RngStream(410)), gen_symmetric(2, 3, RngStream(411))
    )
    path = _write(tmp_path, "t.json", t)
    assert main(["eig", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cli_values = np.array([e["re"] + 1j * e["im"] for e in doc["eigenvalues"]])
    assert multiset_distance(cli_values, t_eigenvalues(t).values) == 0.0


def test_gershgorin_on_complex_tensor_file(tmp_path, capsys):
    from ttensor import ComplexTensor3

    t = ComplexTensor3.from_parts(
        gen_random((2, 2, 2), RngStream(412)), gen_random((2, 2, 2), RngStream(413))
    )
    path = _write(tmp_path, "t.json", t)
    assert main(["gershgorin", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_contained"]
    assert any(d["center_im"] != 0.0 for d in doc["discs"])


def test_numerical_failure_exit_3(monkeypatch):
    from ttensor.errors import EigenConvergenceError

    def boom(*args, **kwargs):
        raise EigenConvergenceError("stub: solver did not converge")

    monkeypatch.setattr("ttensor.cli.run_campaign", boom)
    assert main(["check", "schur", "--trials", "1"]) == 3


def test_certificate_wire_format():
    from ttensor import run_campaign

    cert = run_campaign("schur", n=2, n3=2, trials=1, seed=0).certificates[0]
    assert list(cert.to_json_dict()) == [
        "theorem_id", "seed", "dims", "params", "norm_kind",
        "lhs", "rhs", "margin", "tol", "holds",
    ]
    line = json.dumps(cert.to_json_dict())
    assert json.loads(line)["theorem_id"] == "schur"


def test_non_conjugate_exponents_exit_as_hypothesis_violations(monkeypatch, capsys):
    # both Young certifiers reject non-conjugate exponents with the same
    # error, which the CLI reports as a hypothesis violation (exit 3)
    a = gen_t_psd(2, 2, RngStream(401))
    codes = []
    for certifier in (check_young_witness, check_young_commuting):
        monkeypatch.setattr(cli, "run_campaign", lambda *args, c=certifier, **kw: c(a, a, 2.0, 3.0))
        codes.append(main(["check", "young-witness"]))
    assert codes == [3, 3]
    assert capsys.readouterr().err.count("exponents p=2.0, q=3.0 are not conjugate") == 2
