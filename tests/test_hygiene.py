"""Every import in the package modules and the tests is used, every private
module-level function or class of the package is used in its module, every
module-level function, class and constant of the package but the `cmd_*`
verbs is named in a package module or a test outside its own definition,
no package module imports another's private name, every binding the
benchmark tracer wraps exists, and every cache of the package is bounded
but the (k, n)-keyed ones.

No linter is a dependency of this project, so this walks the syntax tree of
each module: a name bound by an import must be referenced somewhere else in
the module as a plain name (an attribute access `linalg.rank` references
`linalg`). `__init__.py` is skipped, since its imports are the package's
exports.
"""

import ast
import importlib
from pathlib import Path

from positroid.groebner import GroebnerBasis

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "positroid").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused.extend(f"{path.relative_to(ROOT)}: {name}"
                      for name in _imported_names(tree) if name not in used)
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_unused_private_functions():
    # A private helper serves its own module only, so one that no other
    # top-level statement of the module names is dead code.
    unused = []
    for path in sorted((ROOT / "src" / "positroid").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                 for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not any(stmt.name in used for j, used
                                in enumerate(names) if j != i)):
                unused.append(f"{path.name}: {stmt.name}")
    assert not unused, "unused private functions:\n" + "\n".join(unused)


def _names(tree):
    # Every identifier the tree refers to: plain names, attributes, imported
    # names, and the dotted parts of string constants (the tracer names its
    # bindings in strings).
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_no_private_names_imported_between_modules():
    # A name that another module needs is public in the module that owns it.
    private = []
    for path in sorted((ROOT / "src" / "positroid").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("positroid")):
                private.extend(f"{path.name}: {alias.name}"
                               for alias in node.names
                               if alias.name.startswith("_"))
    assert not private, "private imports:\n" + "\n".join(private)


def _tracer_layers():
    """`LAYERS` of bench/tracing.py, read from its syntax tree."""
    path = ROOT / "bench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def test_tracer_bindings_resolve():
    # The tracer looks each binding up as vars(owner)[attr]; a renamed or
    # deleted one would otherwise only show as a KeyError in traced runs.
    missing = []
    for layer, bindings in _tracer_layers().items():
        for module, path in bindings:
            owner = importlib.import_module(f"positroid.{module}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            if attr not in vars(owner):
                missing.append(f"{layer}: {module}.{path}")
    assert not missing, "unresolved tracer bindings:\n" + "\n".join(missing)
    # The tracer counts basis sizes with it.
    assert callable(vars(GroebnerBasis)["leading_monomials"])


def _defined_names(stmt):
    # The names a top-level statement binds by definition or assignment.
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_dead_module_names():
    # Every module-level function, class and constant of the package is
    # named in a package module or a test outside its own definition; an
    # export from `__init__.py` is no use. The `cmd_*` verbs are reached
    # through the decorator that registers them.
    statements = [(path, stmt) for path in MODULES
                  for stmt in ast.parse(path.read_text(),
                                        filename=str(path)).body]
    names = [set(_names(stmt)) for _, stmt in statements]
    dead = [f"{path.name}: {name}"
            for i, (path, stmt) in enumerate(statements)
            if path.parent.name == "positroid"
            for name in _defined_names(stmt)
            if not name.startswith("cmd_")
            and not any(name in used for j, used in enumerate(names)
                        if j != i)]
    assert not dead, "module-level names used nowhere:\n" + "\n".join(dead)



# The one cache keyed by (k, n) alone: a process meets few shapes, and each
# pattern-free family is bounded by groebner.MAX_GENERATOR_READINGS.
UNBOUNDED_CACHES = {"pattern_free_generators"}


def _is_unbounded_cache(decorator):
    # `cache`, or `lru_cache` with maxsize None; a bare `lru_cache` has a
    # finite default.
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "attr", getattr(target, "id", None))
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    sizes = [*call.args[:1],
             *(kw.value for kw in call.keywords if kw.arg == "maxsize")]
    return any(isinstance(x, ast.Constant) and x.value is None
               for x in sizes)


def test_caches_are_bounded():
    # Every cache of the package has a finite maxsize, but the named
    # (k, n)-keyed ones; finding exactly those shows the walk sees caches.
    unbounded = set()
    for path in sorted((ROOT / "src" / "positroid").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unbounded.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_is_unbounded_cache, node.decorator_list)))
    assert unbounded == UNBOUNDED_CACHES


# Every memo of the package, by module: each object a sweep reuses has
# exactly one.
MEMOS = {"hilbert.surviving_variables", "hilbert.component_monomials",
         "ideals.schubert_vanishing_generators",
         "ideals.pattern_free_generators",
         "ideals._specialized_pattern_free_generators",
         "k1basis._off_ones_locus"}
CACHES = {"cache", "lru_cache"}


def _cache_name(node):
    # "cache" or "lru_cache" for a reference to either, bare or as a
    # `functools` attribute, called or not.
    node = node.func if isinstance(node, ast.Call) else node
    name = getattr(node, "attr", getattr(node, "id", None))
    return name if name in CACHES else None


def test_every_memo_is_named():
    # Each cache is a decorator of one module-level function named in
    # MEMOS; a cache built any other way is a reference to `cache` or
    # `lru_cache` outside a decorator, and fails the count.
    memos, stray = set(), []
    for path in sorted((ROOT / "src" / "positroid").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     for d in node.decorator_list if _cache_name(d)]
        references = sum(1 for node in ast.walk(tree)
                         if isinstance(node, (ast.Name, ast.Attribute))
                         and _cache_name(node))
        if references != len(decorated):
            stray.append(path.name)
        memos.update(decorated)
    assert not stray, "caches outside a decorator: " + ", ".join(stray)
    assert memos == MEMOS
