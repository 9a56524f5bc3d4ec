"""The package namespace, and one definition per concept in the source."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import ttensor
from ttensor import certificates

MODULES = (
    "core", "fourier", "eigensolvers", "algebra", "spectral", "certificates", "inequalities",
    "localization", "campaigns", "errors",
)

SOURCE = Path(ttensor.__file__).parent


def test_package_all_is_the_modules_all_in_order():
    modules = [importlib.import_module(f"ttensor.{name}") for name in MODULES]
    assert ttensor.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(ttensor.__all__)) == len(ttensor.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ttensor, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ttensor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ttensor.__all__)
    assert ttensor.loewner_min_gap is certificates.loewner_min_gap
    assert namespace["loewner_min_gap"] is certificates.loewner_min_gap
    assert "HypothesisViolationError" in ttensor.errors.__all__


def _enclosing(tree: ast.Module) -> dict:
    """Each line's innermost enclosing class or function, as a dotted name."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
            visit(child, name)

    visit(tree, "")
    return owner


# pattern -> the one place, "module", "module:Owner" or "module:Owner.method",
# allowed to spell it (or a tuple of such places)
ONE_DEFINITION = {
    r"raise HypothesisViolationError\b": "errors",
    r"conj\(\)\.(transpose|swapaxes)": "eigensolvers:_herm_t",
    r"transpose\((2, 0, 1|1, 2, 0)\)": "core:_Dense",
    r"\b1e-8\b": "certificates",  # DEFAULT_TOL
    r"tol must be a finite number": "errors:_require_tol",  # the one check of a tol argument
    r"1 < \w+ < np\.inf and 1 < \w+ < np\.inf": "spectral:_require_conjugate",  # conjugate exponents
    r"[\"'](\{\w+\}|[A-Z]\w*) (is not|must be) symmetric": "algebra:_require_symmetric",  # symmetric pairs
    r"is not positive semidefinite": "algebra:_require_psd",  # PSD and order hypotheses
    r"is_t_psd requires a symmetric": "algebra:is_t_psd",
    # the self-conjugate slices made real once, where the stack keeps its
    # slices, and the half slices read in place
    r"\.imag\[:, (fourier\.)?_self_conjugate_indices\(": "core:_Stack.slices",
    r"\.slices\[:, : ?(fourier\.)?_half_size\(": "core:_Stack.half_slices",
    r"t_power requires": "spectral:t_power",  # the kernel trusts the hypothesis gates
    r"[\"']n/a[\"']": "certificates",  # NO_NORM
    # a real tensor is transformed only by its stack, which keeps the slices
    r"_forward\(": ("core:_Stack", "fourier"),
    # each distinct exponent applied as one Python number, for powers and Gram powers alike
    r"dict\.fromkeys\(exponents\)|\] \*\* r\b": "core:_clipped_power",
    # one exponent for every member, or one per member
    r"list\(\w+\) if np\.ndim\(\w+\) else": "core:_clipped_power",
    # the tail of powers and Gram powers: Hermitian half slices mirrored, inverted, symmetrized
    r"from_halves\(.*\)\.sym\(\)": "core:_hermitian_tensors",
    # a real stack's half spectrum is read and built by the stack's kernels
    # (t-eigenvalues, powers, |X|^r, the inverse) and by the one generator
    # built from half-slice factors
    r"\.half_slices\(\)|\bfrom_halves\(": (
        "core:_Stack", "core:_t_inverse", "core:_hermitian_tensors", "spectral:gen_orthogonal",
    ),
    # a tensor is inverted by the inverse kernel, the public inverse, the
    # campaign draws (each accepted conjugator stack once) and the public
    # Bauer-Fike bound; no stacked certifier inverts
    r"\b_t_inverse\(": (
        "core", "algebra:t_inverse", "campaigns:_conjugators", "campaigns:_draw_hansen_power",
        "localization:bauer_fike",
    ),
    # a real stack is built from half slices in one place
    r"_mirror_half\(": ("core:_Stack", "fourier"),
    # slice SVDs: a stack's half slices for its spectral norm and the
    # inverse's check, for |X|^r, and for the norm of A + iB
    r"np\.linalg\.svd\(": "core",
    # singular values alone: a stack's half slices, kept by the stack for its
    # spectral norm and the inverse's check; A_k + i B_k and A_k - i B_k over
    # the half slices of A and B, for the spectral norm of A + iB
    r"svd\(.*compute_uv=False": ("core:_Stack.singular_values", "core:_Stack.cartesian_norms"),
    # complex tensors take the real half-spectrum path: no complex forward
    # kernel, and only the entry check and the Frobenius norm tell complex
    # data from real
    r"np\.iscomplexobj\(|[\"']kt,bijt->bkij[\"']": ("core:_validated", "core:_frobenius"),
    # a real stack's kept slices are read by the stack alone (its readers
    # see half_slices()); the complex tensors read their FourierSlices
    r"\.slices\b": ("core:_Stack", "fourier", "spectral:t_eigenvalues"),
    # the half-spectrum Parseval weights: 1 for a self-conjugate slice, else 2
    # (2 for a half slice with a distinct conjugate partner)
    r"np\.full\(_half_size\(|\bk == 0 or 2 \* k == \w+|\(0 < k\) & \(k < n3 - k\)": "fourier:_parseval_weights",
    # a Gram is formed only where a statement or a generator names it:
    # |X|^r takes the SVD of X
    r"(\b\w+)\.transpose\(\) @ \1\b": ("core:_t_psd", "inequalities:_am_gm", "campaigns:_draw_hansen_power"),
    # a certificate is made once, by the one builder, with its provenance
    r"\bInequalityCertificate\(": "certificates:_build",
    r"a certificate needs finite": "certificates:_build",  # no verdict on an overflowed side
    # the stack algebra keeps t-eigenvalues as arrays; the public function
    # builds the spectrum object
    r"\bTEigenSpectrum\(": "spectral:t_eigenvalues",
    # the hypothesis gates read the min gaps; only the public verdicts build objects
    r"\bLoewnerVerdict\(": "algebra:_psd_verdicts",
    r"\b_psd_verdicts\(": ("algebra:_psd_verdicts", "algebra:is_t_psd", "spectral:young_witness"),
    # the Jacobi kernel is reached by the public entry point and by the one
    # solve of a stack's Hermitian half slices, which a wave shares
    r"\b_jacobi\(": ("eigensolvers:hermitian_eig", "eigensolvers:_jacobi", "core:_jacobi_spectra"),
}

# spellings gone from the source: a wave's shared solver call is made by
# core._solve_together itself, and the library has one Frobenius norm
# (core._frobenius)
NOWHERE = (r"\b_hermitian_eigs\b", r"np\.linalg\.norm\(", r"\b_same_square\b")


def _is_home(home: str, module: str, inside: str) -> bool:
    """Whether a line of ``module`` inside ``inside`` lies in ``home``."""
    home_module, _, scope = home.partition(":")
    return module == home_module and (not scope or f"{inside}.".startswith(f"{scope}."))


def test_each_concept_is_spelled_in_one_place():
    found, homes = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text()
        owner = _enclosing(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), 1):
            for pattern, home in ONE_DEFINITION.items():
                if not re.search(pattern, line):
                    continue
                inside = owner.get(lineno, "")
                places = home if isinstance(home, tuple) else (home,)
                if any(_is_home(h, path.stem, inside) for h in places):
                    homes.add(pattern)
                else:
                    found.append(f"{path.name}:{lineno} ({inside or 'module level'}): {line.strip()}")
    assert not found, "spelled outside its one definition:\n" + "\n".join(found)
    assert homes == set(ONE_DEFINITION)  # each one definition still exists


def test_retired_spellings_appear_nowhere():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SOURCE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if any(re.search(pattern, line) for pattern in NOWHERE)
    ]
    assert not found, "a retired spelling in the source:\n" + "\n".join(found)


def test_only_hermitian_eig_checks_that_a_matrix_is_hermitian():
    # a library stack is Hermitian by construction and goes to the kernel
    # through the finite-entry check alone; only the public entry point, for
    # matrices from outside the library, takes the residual and refuses
    text = (SOURCE / "eigensolvers.py").read_text()
    owner = _enclosing(ast.parse(text))
    places = {
        (pattern, owner.get(lineno, ""))
        for lineno, line in enumerate(text.splitlines(), 1)
        for pattern in (r"NotSymmetricError\(", r"\b_HERMITIAN_PRE_TOL\b")
        if re.search(pattern, line)
    }
    assert places == {
        (r"NotSymmetricError\(", "hermitian_eig"),
        (r"\b_HERMITIAN_PRE_TOL\b", ""),  # its definition
        (r"\b_HERMITIAN_PRE_TOL\b", "hermitian_eig"),
    }


# the certifier modules, the Young witness they call and the localization
# certifiers that read no entries are written in the stack algebra
# (core._Stack's methods), so the same bodies run on any stack type
STACK_ALGEBRA_MODULES = ("inequalities", "certificates")
STACK_ALGEBRA_FUNCTIONS = {
    "spectral": ("_young_witness",),
    "localization": ("_schur", "_hoffman_wielandt", "_sorted_pairing_distances", "_diag_spectrum"),
}
FLOAT_STACK_SPELLINGS = (
    ".data", ".slices", "_frobenius(", "_spectral(", "_t_product(", "_t_powers(", "_abs_powers(",
)


def _stack_algebra_lines():
    """``(file, line number, line)`` of each certifier module and function."""
    for name in STACK_ALGEBRA_MODULES:
        for lineno, line in enumerate((SOURCE / f"{name}.py").read_text().splitlines(), 1):
            yield f"{name}.py", lineno, line
    for name, functions in STACK_ALGEBRA_FUNCTIONS.items():
        text = (SOURCE / f"{name}.py").read_text()
        lines = text.splitlines()
        nodes = [n for n in ast.parse(text).body if getattr(n, "name", None) in functions]
        assert len(nodes) == len(functions), (name, functions)
        for node in nodes:
            for lineno in range(node.lineno, node.end_lineno + 1):
                yield f"{name}.py", lineno, lines[lineno - 1]


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "ttensor"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ttensor" for a in node.names)


def test_no_module_imports_from_the_package_inside_a_function():
    found = {
        f"{path.name}:{inner.lineno}: {ast.unparse(inner)}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if _imports_the_package(inner)
    }
    assert not found, "imports from the package inside a function:\n" + "\n".join(sorted(found))


def test_no_module_copies_a_dataclass_with_replace():
    # a certificate is made once, with its provenance, and never copied
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and any(a.name == "replace" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "replace"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")
    ]
    assert not found, "dataclasses.replace in the source:\n" + "\n".join(found)


def test_certifier_modules_use_only_the_stack_algebra():
    found = [
        f"{name}:{lineno}: {line.strip()}"
        for name, lineno, line in _stack_algebra_lines()
        if any(spelling in line for spelling in FLOAT_STACK_SPELLINGS)
    ]
    assert not found, "reaches into the float stack:\n" + "\n".join(found)


def test_cli_tolerance_defaults_are_default_tol():
    from ttensor.cli import build_parser

    parser = build_parser()
    for argv in (["check", "furuta"], ["gershgorin", "a.json"]):
        assert parser.parse_args(argv).tol == certificates.DEFAULT_TOL


def _tol_calls() -> dict:
    """Each public function that takes a ``tol``, as a call on instances
    that satisfy its hypotheses, at the given ``tol``."""
    tt, rng = ttensor, ttensor.RngStream
    r1, r2, r3, r4 = (tt.gen_random((3, 3, 4), rng(1, i)) for i in range(4))
    s1, s2 = (tt.gen_symmetric(3, 4, rng(2, i)) for i in range(2))
    big, small = tt.gen_loewner_pair(3, 4, rng(3))
    c1, c2 = tt.gen_commuting_psd_pair(3, 4, rng(4))
    ortho = tt.spectral.gen_orthogonal(3, 4, rng(5))
    diag = tt.Tensor3(np.einsum("ij,ik->ijk", np.eye(3), tt.gen_random((3, 1, 4), rng(6)).data[:, 0]))
    a_bf = tt.t_product(tt.t_product(tt.t_inverse(r1), diag), r1)
    discs, spectrum = tt.gershgorin_discs(r1), tt.t_eigenvalues(r1)
    return {
        "is_symmetric": lambda tol: tt.is_symmetric(s1, tol),
        "is_orthogonal": lambda tol: tt.is_orthogonal(ortho, tol),
        "is_normal": lambda tol: tt.is_normal(s1, tol),
        "is_f_diagonal": lambda tol: tt.is_f_diagonal(diag, tol),
        "is_t_psd": lambda tol: tt.is_t_psd(big, tol),
        "loewner_ge": lambda tol: tt.loewner_ge(big, small, tol),
        "young_witness": lambda tol: tt.young_witness(r1, r2, 2.0, 2.0, tol),
        "norm_certificate": lambda tol: tt.norm_certificate(
            "t", dims=(3, 3, 4), params={}, norm_kind=tt.FROBENIUS, lhs=1.0, rhs=2.0, tol=tol
        ),
        "loewner_certificate": lambda tol: tt.loewner_certificate(
            "t", small, big, dims=(3, 3, 4), params={}, tol=tol
        ),
        "check_loewner_heinz": lambda tol: tt.check_loewner_heinz(big, small, 0.5, tol),
        "check_hansen_power": lambda tol: tt.check_hansen_power(0.5 * ortho, big, 0.5, tol),
        "check_furuta": lambda tol: tt.check_furuta(big, small, 0.5, 1.0, 1.5, tol),
        "check_young_commuting": lambda tol: tt.check_young_commuting(c1, c2, 2.0, 2.0, tol),
        "check_young_witness": lambda tol: tt.check_young_witness(r1, r2, 2.0, 2.0, tol),
        "check_complex_norm_bounds": lambda tol: tt.check_complex_norm_bounds(s1, s2, "a", tol),
        "check_am_gm": lambda tol: tt.check_am_gm(r1, r2, r3, tol),
        "check_heinz_family": lambda tol: tt.check_heinz_family(big, r1, small, 1.0, 0.0, tol),
        "check_holder": lambda tol: tt.check_holder(big, r1, small, 1.0, 2.0, 2.0, tol),
        "check_holder_pairs": lambda tol: tt.check_holder_pairs(r1, r2, r3, r4, 2.0, 2.0, tol),
        "check_holder_corollary": lambda tol: tt.check_holder_corollary(r1, r2, 1.0, 2.0, 2.0, tol),
        "check_minkowski": lambda tol: tt.check_minkowski(r1, r2, r3, r4, 2.0, tol),
        "schur_bound": lambda tol: tt.schur_bound(r1, tol),
        "gershgorin_contains": lambda tol: tt.gershgorin_contains(discs, spectrum, tol),
        "gershgorin_component_count": lambda tol: tt.gershgorin_component_count(discs, spectrum, tol),
        "bauer_fike": lambda tol: tt.bauer_fike(a_bf, a_bf + 0.01 * r2, r1, diag, tol),
        "hoffman_wielandt": lambda tol: tt.hoffman_wielandt(s1, s2, tol),
        "diag_spectrum_bound": lambda tol: tt.diag_spectrum_bound(s1, s2, tol),
        "run_campaign": lambda tol: tt.run_campaign("minkowski", n=2, n3=2, trials=1, tol=tol),
    }


# every public function that takes a tol, found by its signature
TOL_FUNCTIONS = [
    name for name in ttensor.__all__
    if callable(getattr(ttensor, name)) and not isinstance(getattr(ttensor, name), type)
    and "tol" in inspect.signature(getattr(ttensor, name)).parameters
]


def test_tol_calls_cover_every_public_function_with_a_tol():
    assert len(TOL_FUNCTIONS) == 28
    assert sorted(_tol_calls()) == sorted(TOL_FUNCTIONS)


@pytest.mark.parametrize("name", TOL_FUNCTIONS)
def test_every_tol_must_be_finite_and_nonnegative(name):
    # a NaN, infinite or negative tolerance makes every verdict against it
    # wrong: it is refused before any gate or solve, on valid instances
    call = _tol_calls()[name]
    call(certificates.DEFAULT_TOL)
    call(0.0)
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got"):
            call(tol)
