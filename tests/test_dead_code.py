"""No dead code in the package, read from its syntax trees.

Every import of a module in src/cellassoc must be read by that module,
and every private module-level name (a function, class or assignment
whose name starts with one underscore) must be read somewhere in
src/cellassoc besides its definition.  So must every public module-level
function and class that cellassoc.__all__ does not export, but for the
few listed in KEPT_PUBLIC with their reasons.  A package's __init__.py
re-exports its public imports, so only its private imports must be read
there, and a name listed in a module's __all__ counts as read.  A public
name that an __init__.py re-exports from a module of its package and
does not list in its __all__ must be read by some other module than
those two, but for the few in KEPT_PUBLIC: a re-export that nothing
reads keeps a name alive that only its own module uses.  Tests and
the benchmark do not count as readers: code that only they reach belongs
with them.  Every parameter of a function or lambda must be read by it,
unless its name starts with an underscore or it is a method's self or cls.

The integer rule "an int that is not a bool" is written once, in
model.check_int (and the JSON reader model.bool_from_json needs the bool
type itself), so no other isinstance(..., bool) call may appear.  Likewise
the certificate kinds are spelled once, as the KIND_* names of bounds.py,
so no other module of the package holds one of their strings as a literal.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cellassoc"
BOOL_HELPERS = frozenset({"check_int", "bool_from_json"})
KIND_STRINGS = frozenset({"lemma2_chain", "dl_reconstruction", "avg_counting"})

# Public defs that nothing in the package reads, each with why it stays.
KEPT_PUBLIC = {
    "_encode.py cells_masks": "perfbench traces and calls it until ROADMAP item 1",
    "_encode.py channel_arrays": "perfbench traces and calls it until ROADMAP item 1",
    "uplink_decode.py prune": "the README documents it as library API",
    "_kernels/__init__.py dl_set_feasible": "perfbench traces and counts them until ROADMAP item 1",
    "_kernels/__init__.py ul_set_feasible": "perfbench traces and counts them until ROADMAP item 1",
}


def modules():
    """(path relative to src/cellassoc, syntax tree) of every module."""
    return [
        (path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.rglob("*.py"))
    ]


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def all_names(tree):
    """The names a module lists in its __all__."""
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def read_names(tree):
    """Names a module reads: loaded names, attribute names and its __all__."""
    names = all_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree):
    """(line, bound name) of every import, __future__ features aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def defined(tree):
    """(line, name) of every module-level function, class and assigned name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.append((node.lineno, sub.id))
    return out


def private_names(tree):
    """(line, name) of every private module-level name."""
    return [(line, name) for line, name in defined(tree) if is_private(name)]


def public_defs(tree):
    """(line, name) of every public module-level function and class."""
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def reads_of(tree):
    """read_names of a module and every name it imports from another module."""
    return read_names(tree) | {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    }


def unread(parsed, names):
    """(path, line, name) of each (line, name) of names(tree) that no parsed module reads.

    A name imported from another module is read by the importer, and the
    names of an __all__ (cellassoc.__all__ among them) count as read.
    """
    reads = set().union(*(reads_of(tree) for _path, tree in parsed))
    return [
        (path, line, name)
        for path, tree in parsed
        for line, name in names(tree)
        if name not in reads
    ]


def unread_reexports(parsed):
    """(path, line, name) of each re-export of a package __init__.py that no other module reads.

    A re-export is a public name that the __init__.py imports from a
    module of its package (a relative import) and does not list in its
    __all__; it is read when a module other than the __init__.py and the
    module it comes from reads or imports it.
    """
    out = []
    for path, tree in parsed:
        if not path.endswith("__init__.py"):
            continue
        package, exported = path[: -len("__init__.py")], all_names(tree)
        for node in tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            source = package + node.module.replace(".", "/")
            skipped = {path, f"{source}.py", f"{source}/__init__.py"}
            reads = set().union(*(reads_of(t) for p, t in parsed if p not in skipped))
            out += [
                (path, node.lineno, a.asname or a.name)
                for a in node.names
                if not (a.asname or a.name).startswith("_")
                and (a.asname or a.name) not in exported | reads
            ]
    return out


def unread_parameters(tree):
    """(line, function, parameter) of each parameter that its function never reads.

    Functions and lambdas count alike (a lambda's function is "lambda"),
    and a read in a nested function counts.  Exempt are a name that starts
    with an underscore, which marks a parameter a caller's interface needs,
    and the first parameter of a method (self or cls), which the binding
    passes.
    """
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if id(node) in methods:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {
            sub.id
            for statement in body
            for sub in ast.walk(statement)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        out += [
            (param.lineno, getattr(node, "name", "lambda"), param.arg)
            for param in params
            if param is not None and not param.arg.startswith("_") and param.arg not in reads
        ]
    return out


def bool_tests(tree, allowed=frozenset()):
    """Lines of isinstance(..., bool) calls outside the functions named in allowed."""
    inside = {
        sub
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in allowed
        for sub in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(t, ast.Name) and t.id == "bool" for t in ast.walk(node.args[1]))
        and node not in inside
    ]


def test_every_import_is_read():
    unused = []
    for path, tree in modules():
        reads = read_names(tree)
        init = path.endswith("__init__.py")
        for line, name in imported(tree):
            if name not in reads and (is_private(name) or not init):
                unused.append(f"{path}:{line} {name}")
    assert not unused, unused


def test_every_private_module_name_is_read():
    found = unread(modules(), private_names)
    assert not found, found


def test_every_public_def_is_exported_or_read():
    # Public defs, and the re-exports of each package __init__.py.
    parsed = modules()
    found = {
        f"{path} {name}"
        for path, _line, name in unread(parsed, public_defs) + unread_reexports(parsed)
    }
    assert found == set(KEPT_PUBLIC), found ^ set(KEPT_PUBLIC)


def test_every_parameter_is_read():
    found = [
        f"{path}:{line} {function}({param})"
        for path, tree in modules()
        for line, function, param in unread_parameters(tree)
    ]
    assert not found, found


def test_the_checks_see_dead_code():
    tree = ast.parse(
        "from typing import Sequence\n"
        "import os.path\n"
        "_LIMIT = 3\n"
        "def _helper():\n"
        "    return os.sep\n"
    )
    assert [name for _line, name in imported(tree) if name not in read_names(tree)] == [
        "Sequence"
    ]
    assert [name for _line, name in defined(tree) if name not in read_names(tree)] == [
        "_LIMIT",
        "_helper",
    ]
    package = [
        ("a.py", ast.parse("__all__ = ['exported']\ndef exported():\n    return 1\n")),
        ("b.py", ast.parse("from .c import imported\ndef unread():\n    return imported\n")),
        ("c.py", ast.parse("def imported():\n    return 2\nclass Unused:\n    pass\n")),
    ]
    assert unread(package, public_defs) == [("b.py", 2, "unread"), ("c.py", 3, "Unused")]
    package = [
        ("p/__init__.py", ast.parse("from ._m import used, unused, _private, listed\n"
                                    "__all__ = ['listed']\n")),
        ("p/_m.py", ast.parse("def used(): pass\ndef unused(): return used\n")),
        ("q.py", ast.parse("from .p import used\n")),
    ]
    assert unread_reexports(package) == [("p/__init__.py", 1, "unused")]
    tree = ast.parse(
        "class C:\n"
        "    @classmethod\n"
        "    def make(cls, data, spare):\n"
        "        return [x for x in data]\n"
        "def f(a, *args, _unused, key=1, **extra):\n"
        "    def g():\n"
        "        return a\n"
        "    return g, lambda y, _z: key\n"
    )
    assert sorted(unread_parameters(tree)) == [
        (3, "make", "spare"),
        (5, "f", "args"),
        (5, "f", "extra"),
        (8, "lambda", "y"),
    ]


def test_bool_tests_live_in_the_model_helpers():
    found = [
        f"{path}:{line}"
        for path, tree in modules()
        for line in bool_tests(tree, BOOL_HELPERS if path == "model.py" else frozenset())
    ]
    assert not found, found


def test_the_check_sees_bool_tests():
    tree = ast.parse(
        "def check_int(v):\n"
        "    return isinstance(v, bool)\n"
        "def f(v):\n"
        "    return isinstance(v, (int, bool)) or isinstance(v, int)\n"
    )
    assert bool_tests(tree) == [2, 4]
    assert bool_tests(tree, {"check_int"}) == [4]


def kind_literals(tree):
    """Lines of the string constants that spell a certificate kind."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in KIND_STRINGS
    ]


def test_kind_strings_live_in_bounds():
    found = [
        f"{path}:{line}"
        for path, tree in modules()
        if path != "bounds.py"
        for line in kind_literals(tree)
    ]
    assert not found, found


def test_the_check_sees_kind_strings():
    tree = ast.parse(
        'KIND = "lemma2_chain"\n'
        "def f(kind):\n"
        '    """avg_counting in a sentence is prose, not a literal."""\n'
        '    return kind == "avg_counting" or kind == "dl_reconstruction_x"\n'
    )
    assert kind_literals(tree) == [1, 4]
