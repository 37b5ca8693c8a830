"""Rules about the package's source: one spelling of the refusal of a non-positive input, one raise site for each
failure of a radial, and an oracle that imports nothing it checks."""

import ast
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import loopreg
from loopreg import cli, kernel, oracle, phi4, qed

SRC = Path(loopreg.__file__).resolve().parent
_STATE = phi4.ResummationState(0.5, 1.0)

#: every refusal of a non-positive input: (the call, with the refused value as its argument; the name it quotes)
_REFUSALS = {
    "kernel.ConstantEntry scale": (lambda v: kernel.ConstantEntry(1, scale_alias=v), "scale"),
    "oracle.CutoffProbe mass_sq": (lambda v: oracle.CutoffProbe(2, v, (1.0, 10.0)), "mass_sq"),
    "oracle.default_grid mass_sq": (oracle.default_grid, "mass_sq"),
    "oracle.radial_integral cutoff": (lambda v: oracle.radial_integral(2, v, v), "cutoff"),
    "oracle.radial_integral mass_sq": (lambda v: oracle.radial_integral(2, v, 10.0), "mass_sq"),
    "phi4.SSBPotential sigma": (lambda v: phi4.SSBPotential(v, v), "sigma"),
    "phi4.SSBPotential lambda": (lambda v: phi4.SSBPotential(1.0, v), "lambda"),
    "phi4.ResummationState lambda0": (lambda v: phi4.ResummationState(v, v, v), "lambda0"),
    "phi4.ResummationState mu0": (lambda v: phi4.ResummationState(0.5, v, v), "mu0"),
    "phi4.ResummationState beta_coeff": (lambda v: phi4.ResummationState(0.5, 1.0, v), "beta_coeff"),
    "phi4._chain_couplings mu": (lambda v: phi4._chain_couplings(_STATE, (2.0, v)), "mu"),
    "phi4.lambda_invariant_ratio m_sigma": (lambda v: phi4.lambda_invariant_ratio(v, v), "m_sigma"),
    "phi4.lambda_invariant_ratio phi1": (lambda v: phi4.lambda_invariant_ratio(1.0, v), "phi1"),
    "phi4.lambda_renormalized lambda": (phi4.lambda_renormalized, "lambda"),
    "phi4.resum_first_order mu": (lambda v: phi4.resum_first_order(_STATE, v), "mu"),
    "qed.on_shell_mass_shift m": (lambda v: qed.on_shell_mass_shift(v, v, v), "m"),
    "qed.on_shell_mass_shift alpha": (lambda v: qed.on_shell_mass_shift(1.0, v, v), "alpha"),
    "qed.on_shell_mass_shift mu1": (lambda v: qed.on_shell_mass_shift(1.0, 0.5, v), "mu1"),
    "qed.solve_mu1 m": (qed.solve_mu1, "m"),
    "qed.solve_mu1_by_root m": (qed.solve_mu1_by_root, "m"),
    "qed.lamb_shift_estimate alpha": (lambda v: qed.lamb_shift_estimate(v, v, v), "alpha"),
    "qed.lamb_shift_estimate m": (lambda v: qed.lamb_shift_estimate(0.5, v, v), "m"),
    "qed.lamb_shift_estimate bethe_log": (lambda v: qed.lamb_shift_estimate(0.5, 1.0, v), "bethe_log"),
}
#: each module's first refusal, which also refuses nan, and the phi4 refusals that their functions spell apart
_FIRST = ("kernel.ConstantEntry scale", "oracle.CutoffProbe mass_sq", "phi4.SSBPotential sigma", "qed.on_shell_mass_shift m",
          "phi4.lambda_invariant_ratio m_sigma", "phi4.lambda_invariant_ratio phi1", "phi4.lambda_renormalized lambda")
#: the refusals of an input that must be >= 0: they take 0
_NON_NEGATIVE = {"phi4.lambda_renormalized lambda"}
#: the oracle's refusals of a power below 1, the least member of the family, as a bad input
_POWERS = {
    "oracle.radial_integral power": lambda v: oracle.radial_integral(v, 1.0, 10.0),
    "oracle.CutoffProbe power": lambda v: oracle.CutoffProbe(v, 1.0, (1.0, 10.0)).radials,
}


def _rule(refusal):
    return "non-negative" if refusal in _NON_NEGATIVE else "positive"


class TestOneRefusal:
    """``x must be positive, got <repr>`` for every input that is not > 0, spelled once, in ``loopreg._positive``;
    the one input that may be 0, the coupling of ``phi4.lambda_renormalized``, is refused below it as non-negative."""

    @pytest.mark.parametrize("value", [0.0, -1.0, -math.inf])
    @pytest.mark.parametrize("refusal", sorted(_REFUSALS))
    def test_library_message(self, refusal, value):
        call, name = _REFUSALS[refusal]
        if refusal in _NON_NEGATIVE and value == 0.0:
            assert call(value) == 0.0
            return
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be {_rule(refusal)}, got {value!r}"

    @pytest.mark.parametrize("refusal", _FIRST)
    def test_library_refuses_nan(self, refusal):
        call, name = _REFUSALS[refusal]
        with pytest.raises(ValueError) as exc:
            call(math.nan)
        assert str(exc.value) == f"{name} must be {_rule(refusal)}, got nan"

    @pytest.mark.parametrize("value", [math.nan, 0, -math.inf])
    @pytest.mark.parametrize("refusal", sorted(_POWERS))
    def test_library_refuses_a_power_below_one(self, refusal, value):
        # nan is no power past the float range: a ValueError, not the OverflowError of a numeric failure
        with pytest.raises(ValueError) as exc:
            _POWERS[refusal](value)
        assert str(exc.value) == f"power must be >= 1, got {value!r}"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["regularize", "--n", "2", "--msq", "0"], "numeric mass_sq must be positive, got 0.0"),
            (["regularize", "--n", "2", "--msq", "-1", "--units", "MeV"], "numeric mass_sq must be positive, got -1.0"),
        ],
    )
    def test_cli_message(self, capsys, argv, err):
        assert cli.run(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_cli_refuses_nan(self):
        # the parser refuses a nan --msq first, so the handler is called with one directly
        ns = SimpleNamespace(n=2, msq=math.nan, mu1=None)
        with pytest.raises(ValueError, match=r"^numeric mass_sq must be positive, got nan$"):
            cli._cmd_regularize(ns, ns, cli._run_config())

    def test_one_spelling(self):
        sites = [(path.name, lineno) for path in sorted(SRC.glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1) if "must be positive, got" in line]
        assert len(sites) == 1, sites
        tree = ast.parse((SRC / "__init__.py").read_text())
        (positive,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_positive"]
        assert sites[0][0] == "__init__.py" and positive.lineno <= sites[0][1] <= positive.end_lineno, sites


class TestOneRaiseSite:
    """radial_integral is the one read of a cutoff, a probe's too, so each failure of a radial is worded in one place."""

    @pytest.mark.parametrize("text", ["quadrature error", "radial integral past the float range"])
    def test_spelled_once_in_the_oracle(self, text):
        assert (SRC / "oracle.py").read_text().count(text) == 1


#: the modules the oracle checks, or that check with it: it must never read them
_CHECKED = {"kernel", "feynpar", "qed", "phi4", "checks", "cli"}


class TestOracleIndependence:
    """The oracle is derived from nothing it checks: it imports the standard library and the package's base alone."""

    tree = ast.parse((SRC / "oracle.py").read_text())

    def test_imports_only_the_standard_library_and_the_package_base(self):
        base = {node.name for node in ast.parse((SRC / "__init__.py").read_text()).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        imports = [node for node in ast.walk(self.tree) if isinstance(node, (ast.Import, ast.ImportFrom))]  # in functions too
        assert imports
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module is None, ast.unparse(node)
                assert {alias.name for alias in node.names} <= base, ast.unparse(node)
            else:
                modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
                assert all(m.split(".")[0] in sys.stdlib_module_names for m in modules), ast.unparse(node)

    def test_names_no_checked_module(self):
        named = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("loopreg."):
                named.add(node.value.split(".")[1])
        assert not named & _CHECKED, named & _CHECKED


#: the repository's Python files: the package, its tests and its benchmark harness (read, never written)
_REPO = Path(__file__).resolve().parent.parent
_PY_FILES = sorted(path for tree in ("src", "tests", "perfbench") for path in (_REPO / tree).rglob("*.py"))


class TestGrammarFloor:
    """Every Python file parses under the grammar of 3.10, the oldest version CI runs.

    This checks grammar only: ast.parse with feature_version refuses newer syntax, not a newer standard-library API.
    """

    @pytest.mark.parametrize("path", _PY_FILES, ids=lambda path: str(path.relative_to(_REPO)))
    def test_parses_at_3_10(self, path):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
