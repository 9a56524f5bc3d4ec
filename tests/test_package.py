"""The package namespace, and one definition per concept in the source."""

import ast
import importlib
import re
from pathlib import Path

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


# pattern -> the one place, "module" or "module:Owner", allowed to spell it
# (or a tuple of such places)
ONE_DEFINITION = {
    r"raise HypothesisViolationError\b": "errors",
    r"conj\(\)\.(transpose|swapaxes)": "eigensolvers:_herm_t",
    r"transpose\((2, 0, 1|1, 2, 0)\)": "core:_Dense",
    r"\b1e-8\b": "certificates",  # DEFAULT_TOL
    r"1 < \w+ < np\.inf and 1 < \w+ < np\.inf": "spectral:_require_conjugate",  # conjugate exponents
    r"[\"'](\{\w+\}|[A-Z]\w*) (is not|must be) symmetric": "algebra:_require_symmetric",  # symmetric pairs
    r"is not positive semidefinite": "algebra:_require_psd",  # PSD and order hypotheses
    r"is_t_psd requires a symmetric": "algebra:is_t_psd",
    # the Hermitian half slices, whose self-conjugate ones every half spectrum keeps real
    r"\.slices\[:, : ?(fourier\.)?_half_size\(|\.imag\[:, (fourier\.)?_self_conjugate_indices\(": "core:_Stack",
    r"t_power requires": "spectral:t_power",  # the kernel trusts the hypothesis gates
    r"[\"']n/a[\"']": "certificates",  # NO_NORM
    # a real tensor is transformed only by its stack, which keeps the slices
    r"_forward\(": ("core:_Stack", "fourier"),
    # each distinct exponent applied as one Python number, for powers and Gram powers alike
    r"dict\.fromkeys\(exponents\)|\] \*\* r\b": "core:_clipped_power",
    # the tail of powers and Gram powers: Hermitian half slices mirrored, inverted, symmetrized
    r"from_halves\(.*\)\.sym\(\)": "core:_hermitian_tensors",
    # a real stack's half spectrum is read and built by the stack's kernels
    # (t-eigenvalues, powers, |X|^r, the inverse) and by the one generator
    # built from half-slice factors
    r"\.half_slices\(\)|\bfrom_halves\(": (
        "core:_Stack", "core:_t_inverse", "core:_hermitian_tensors", "spectral:gen_orthogonal",
    ),
    # a real stack is built from half slices in one place
    r"_mirror_half\(": ("core:_Stack", "fourier"),
    # slice SVDs: a real stack's half slices for its spectral norm, the
    # complex tensors' all-slice norm, |X|^r and the inverse's check
    r"np\.linalg\.svd\(": "core",
    # a real stack's kept slices are read by the stack alone (its readers
    # see half_slices()); the complex tensors read their FourierSlices
    r"\.slices\b": ("core:_Stack", "core:spectral_norm", "fourier", "spectral:t_eigenvalues"),
    # the half-spectrum Parseval weights: 1 for a self-conjugate slice, else 2
    r"np\.full\(_half_size\(|\bk == 0 or 2 \* k == \w+": "fourier:_parseval_weights",
    # a Gram is formed only where a statement or a generator names it:
    # |X|^r takes the SVD of X
    r"(\b\w+)\.transpose\(\) @ \1\b": ("core:_t_psd", "inequalities:_am_gm", "campaigns:_draw_hansen_power"),
    # a certificate is made once, by the one builder, with its provenance
    r"\bInequalityCertificate\(": "certificates:_build",
    # the stack algebra keeps t-eigenvalues as arrays; the public function
    # builds the spectrum object
    r"\bTEigenSpectrum\(": "spectral:t_eigenvalues",
    # the hypothesis gates read the min gaps; only the public verdicts build objects
    r"\bLoewnerVerdict\(": "algebra:_psd_verdicts",
    r"\b_psd_verdicts\(": ("algebra:_psd_verdicts", "algebra:is_t_psd", "spectral:young_witness"),
}


def _is_home(home: str, module: str, inside: str) -> bool:
    """Whether a line of ``module`` inside ``inside`` lies in ``home``."""
    home_module, _, scope = home.partition(":")
    return module == home_module and (not scope or inside.split(".")[0] == scope)


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
