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
or the benchmark, so `TEST_ONLY` must name it exactly, with its reason:
new test-only code in `src/` fails here until it is named, and code
that gains a library caller, or is deleted, must leave the list.  Each
name on it is also on the test-only list of the ROADMAP.

Test-only code can hide behind other test-only code, so the guard is
transitive: a function or method whose every reader in the package (the
outermost function or method a read sits in) is test-only is test-only
too, and `BEHIND_TEST_ONLY` must name those exactly, with their reasons.
A read at module or class level is a library read.

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
    # `perfbench/` patches or calls them
    "window_basis": "`perfbench`'s tracer patches it",
    "bethe_vector": "`perfbench`'s tracer patches it",
    "skew_Q_via_ops": "`perfbench`'s CLI oracle",
    # literal oracles beside the code they check
    "pieri_coeff": "`PieriTable.coeff`'s literal oracle",
    "ll_F_op": "an oracle of `build_LL`'s factorized form",
    "ll_G_op": "as `ll_F_op`",
    # the open-chain routes that an open-chain suite will compare
    "toda_open_A": "the Toda route to the open transfer matrix",
    "toda_open_Abar": "as `toda_open_A`",
    "open_A_via_monodromy": "the monodromy route to the open transfer matrix",
}

BEHIND_TEST_ONLY = {
    "qboson_monodromy": "read only by `open_A_via_monodromy`",
    "strip_test": "read only by the literal `pieri_coeff`",
    "is_horizontal_strip": "read only through `strip_test`",
    "is_vertical_strip": "as `is_horizontal_strip`",
    "multiplicity": "read only by the literal `pieri_coeff`",
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
        # the methods (all of `defs` so far) and the module-level functions
        self.outermost = set(self.defs) | {node.name for tree in trees for node in tree.body
                                           if isinstance(node, (ast.FunctionDef,
                                                                ast.AsyncFunctionDef))}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                        id(node) not in methods:
                    self.defs.setdefault(node.name, (node, None))
        self.reads, self.calls = set(), []  # calls: (callee, args, keywords, via class name)
        self.readers = {}  # name -> {the outermost function or method reading it, None: module}
        self.enclosing, self.scope = [], None
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

    def visit_FunctionDef(self, node):
        if self.scope is not None:  # a nested function is part of its outermost one
            return self.generic_visit(node)
        here = self.enclosing[-1] if self.enclosing else None
        self.scope = f"{here}.{node.name}" if here else node.name
        self.generic_visit(node)
        self.scope = None

    visit_AsyncFunctionDef = visit_FunctionDef

    def read(self, names):
        self.reads |= names
        for name in names:
            self.readers.setdefault(name, set()).add(self.scope)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.read(self.resolve(node)[0])

    def visit_Attribute(self, node):
        self.read(self.resolve(node)[0])
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


def behind_test_only(scan: PackageScan, test_only: set) -> set:
    """Functions and methods of the package, outside `test_only`, whose
    every reader in the package is test-only: in `test_only` or, in turn,
    behind it.  A nested function is part of its outermost function, and
    a read outside any function (module or class body) is a library read."""
    behind = set()
    while True:
        more = {name for name, readers in scan.readers.items()
                if name in scan.outermost and name not in test_only | behind
                and readers - {name} <= test_only | behind}
        if not more:
            return behind
        behind |= more


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
    assert unreached_functions(SCAN) == set(TEST_ONLY)
    assert all(TEST_ONLY.values())


def test_src_functions_read_only_by_test_only_code_are_the_named_ones():
    assert behind_test_only(SCAN, set(TEST_ONLY)) == set(BEHIND_TEST_ONLY)
    assert all(BEHIND_TEST_ONLY.values())


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


def test_code_read_only_by_test_only_code_is_test_only(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(): return g()\n"
        "def g():\n"
        "    def inner(): return h() + g()\n"
        "    return inner()\n"
        "def h(): return 0\n"
        "def k(): return h()\n"
        "def j(): return h()\n"
        "x = j()\n")
    scan = PackageScan(tmp_path)
    assert unreached_functions(scan) == {"f", "k"}
    # g is read by f and by itself; h also by j, which module code reads;
    # the nested `inner` is part of g
    assert behind_test_only(scan, {"f", "k"}) == {"g"}
