"""Only ``generators`` calls a model's callables unchecked.

Every other module evaluates a generator or a function model through its
checked calls (``value``, ``inv``, ``deriv``), which check the domain and
the result, or through a chain of them whose checks are deferred to its end
(``generators._deferred``).  So no other module calls ``_outside``, the
domain mask of those checks, or a model's raw ``forward``, ``derivative``,
``inverse`` or ``eval``.  The exceptions are named below, each with why it
needs no check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cdt"

RAW = {"forward", "derivative", "inverse", "eval"}

#: (module, innermost enclosing function, attribute called) allowed
ALLOWED = {
    # densities are callables of their own kind, checked nonnegative by
    # their caller (``_density_values``) or read for their value range
    ("bhattacharyya", "_density_integrals", "eval"),
    ("bhattacharyya", "_value_window", "eval"),
    ("expectations", "qa_expected_value", "eval"),
    # the f-moment integrand: ``qa_expected_value`` checks the support
    # against f's domain before it integrates
    ("expectations", "f_moment", "forward"),
}


def unchecked_calls(path: Path) -> set[tuple[str, str, str]]:
    """(module, innermost enclosing function, name) of each call of
    ``_outside`` or of a raw model callable in the module at path."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "_outside":
                found.add((path.stem, function, fn.id))
            if isinstance(fn, ast.Attribute) and fn.attr in RAW:
                found.add((path.stem, function, fn.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_generators_calls_model_callables_unchecked():
    calls = set().union(*(unchecked_calls(p) for p in SRC.glob("*.py") if p.name != "generators.py"))
    assert calls == ALLOWED


def test_the_rule_sees_a_raw_call_and_an_outside_mask(tmp_path):
    path = tmp_path / "layer.py"
    path.write_text("def f(F, rho, x):\n    return F.eval(x) + rho.inverse(x)[_outside(x, rho.domain)]\n")
    assert unchecked_calls(path) == {("layer", "f", "eval"), ("layer", "f", "inverse"), ("layer", "f", "_outside")}
