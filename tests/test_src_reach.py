"""Reach guard: the functions in `src/` that no code in `src/` reaches.

An AST scan lists every function and method defined in the package whose
name is read nowhere in the package: not called, not passed on (as to
`partial` or `cache`) and not read as an attribute.  Dunder methods,
which Python calls implicitly, and the `cli.cmd_*` handlers, which `main`
dispatches by name, are left out.  What remains is reached only from
tests, demos or the benchmark, so the list below must name it exactly:
new test-only code in `src/` fails here until it is named, and code
that gains a library caller, or is deleted, must leave the list.  Each
name on it is also on the test-only list of the ROADMAP.
"""

import ast
from pathlib import Path

import integrable_lab

TEST_ONLY = {
    # partitions
    "window_basis", "monomial_sym", "vertical_strips_below", "dominance_leq",
    # lattice
    "open_hamiltonian", "periodic_hamiltonian", "spin_periodic_transfer_cleared",
    "open_A_via_monodromy", "toda_open_A", "toda_open_Abar",
    # baxter_q
    "site_null_vector_check", "ll_F_op", "ll_G_op", "ll_relations_check",
    "toda_intertwine_check",
    # hall_littlewood
    "pieri_coeff", "p_omega",
    # vertex_ops
    "skew_Q_via_ops",
    # bethe
    "bethe_vector",
}


def unreached_functions(package: Path) -> set:
    defined, read = set(), set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined - read
            if not (name.startswith("__") and name.endswith("__"))
            and not name.startswith("cmd_")}


def test_src_functions_without_a_src_caller_are_the_named_test_only_ones():
    assert unreached_functions(Path(integrable_lab.__file__).parent) == TEST_ONLY
