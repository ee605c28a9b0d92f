"""Reach and options guards: what in `src/` no code in `src/` uses.

An AST scan names every function and method defined in the package:
a module-level or nested function by its name, a method as
`Class.method`.  A read of a name resolves as follows.  A bare name is
that function (a class name is a call of its `__init__`).  An attribute
read on a class of the package (`SparseMatrix.identity`), or on
`self`/`cls` inside one, is that class's method only; any other
attribute read (`m.add`, `lattice.monodromy`) counts for the function
of that name and for every class that defines the method.

The reach guard lists every function and method whose name is read
nowhere in the package: not called, not passed on (as to `partial` or
`cache`) and not read as an attribute.  Dunder methods, which Python
calls implicitly, and the `cli.cmd_*` handlers, which `main` dispatches
by name, are left out.  What remains is reached only from tests, demos
or the benchmark, so `TEST_ONLY` must name it exactly: new test-only
code in `src/` fails here until it is named, and code that gains a
library caller, or is deleted, must leave the list.  Each name on it is
also on the test-only list of the ROADMAP.

The options guard lists every defaulted parameter of a function or
method that no call in the package sets, by keyword or by position
(`partial(f, ...)` counts as a call of f).  Calls resolve as reads do.
What remains is an option only tests, demos or callers outside the
package set, so `UNSET_OPTIONS` must name it exactly, with its reason.
"""

import ast
from pathlib import Path

import integrable_lab

PACKAGE = Path(integrable_lab.__file__).parent

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

UNSET_OPTIONS = {
    ("SparseMatrix.__init__", "cols"):
        "the validated constructor for column maps from outside the package; "
        "the package builds through `_wrap` and the accumulators",
    ("SparseMatrix.__init__", "den"): "as `cols`",
    ("main", "argv"): "the console entry point reads sys.argv; tests pass argv",
    ("toda_lax", "sources"): "`monodromy` sets it as build(sources=...) through `partial`",
    ("toda_U", "sources"): "as `toda_lax`",
    ("qboson_lax_toda_vars", "sources"): "as `toda_lax`",
}


class PackageScan(ast.NodeVisitor):
    """Every definition (qualified name -> (node, class or None)) and every
    resolved read and call of one package."""

    def __init__(self, package: Path):
        self.defs, self.methods = {}, {}  # methods: name -> {Class.name}
        self.classes = set()
        trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.add(node.name)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qual = f"{node.name}.{item.name}"
                            self.defs[qual] = item, node.name
                            self.methods.setdefault(item.name, set()).add(qual)
        methods = {id(node) for node, _ in self.defs.values()}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                        id(node) not in methods:
                    self.defs.setdefault(node.name, (node, None))
        self.reads, self.calls = set(), []  # calls: (callee, args, keywords, via class name)
        self.enclosing = []
        for tree in trees:
            self.visit(tree)

    def resolve(self, expr) -> tuple:
        """(qualified names the expression may name, read through a class name)."""
        here = self.enclosing[-1] if self.enclosing else None
        if isinstance(expr, ast.Name):
            if expr.id in self.classes:
                return {f"{expr.id}.__init__"}, False
            if expr.id == "cls" and here:
                return {f"{here}.__init__"}, False
            return {expr.id}, False
        if isinstance(expr, ast.Attribute):
            owner = expr.value.id if isinstance(expr.value, ast.Name) else None
            if owner in self.classes:
                return {f"{owner}.{expr.attr}"}, True
            if owner in ("self", "cls") and here:
                return {f"{here}.{expr.attr}"}, False
            return {expr.attr} | self.methods.get(expr.attr, set()), False
        return set(), False

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads |= self.resolve(node)[0]

    def visit_Attribute(self, node):
        self.reads |= self.resolve(node)[0]
        self.generic_visit(node)

    def visit_Call(self, node):
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        names, via_class = self.resolve(func)
        self.calls += [(name, args, node.keywords, via_class) for name in names]
        self.generic_visit(node)


def unreached_functions(scan: PackageScan) -> set:
    return {name for name in set(scan.defs) - scan.reads
            if not (name.split(".")[-1].startswith("__") and name.endswith("__"))
            and not name.startswith("cmd_")}


def unset_options(scan: PackageScan) -> set:
    """(function, parameter) for every defaulted parameter no call sets."""
    options, positional, bound = {}, {}, {}
    for name, (node, owner) in scan.defs.items():
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args]
        positional[name] = params
        defaulted = params[len(params) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        options[name] = set(defaulted)
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        # the leading parameters a call leaves implicit: (through an instance, through the class)
        bound[name] = (0, 0) if owner is None or "staticmethod" in decorators else \
            (1, 1) if "classmethod" in decorators else (1, 0)
    unset = {(name, p) for name, ps in options.items() for p in ps}
    for name, args, keywords, via_class in scan.calls:
        if name not in options:
            continue
        params = positional[name]
        start = bound[name][via_class]
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                unset -= {(name, p) for p in params[start + i:]}
                break
            if start + i < len(params):
                unset.discard((name, params[start + i]))
        for kw in keywords:
            if kw.arg is None:
                unset -= {(name, p) for p in options[name]}
            else:
                unset.discard((name, kw.arg))
    return unset


SCAN = PackageScan(PACKAGE)


def test_src_functions_without_a_src_caller_are_the_named_test_only_ones():
    assert unreached_functions(SCAN) == TEST_ONLY


def test_src_options_no_src_call_sets_are_the_named_ones():
    assert unset_options(SCAN) == set(UNSET_OPTIONS)
    assert all(UNSET_OPTIONS.values())


def test_a_qualified_read_names_its_class_only(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def m(self, x=1): return self.n()\n"
        "    def n(self): return 0\n"
        "    def k(self, y=2): return 0\n"
        "class B:\n"
        "    def m(self): return A.m(self, 3)\n"
        "    def k(self, y=2): return 0\n"
        "    def j(self, z=0): return 0\n"
        "def f(v, w=0): return v.k(y=1)\n"
        "g = f(B(), 1)\n")
    scan = PackageScan(tmp_path)
    # A.m is read through its class and B.m nowhere; v.k reads both k
    assert unreached_functions(scan) == {"B.m", "B.j"}
    # A.m(self, 3) passes x by position, as an unbound call
    assert unset_options(scan) == {("B.j", "z")}
