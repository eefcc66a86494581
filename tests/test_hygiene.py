"""Hygiene of the package source: no dead private helpers, no unused imports,
no defaulted parameter that no call passes, no parameter a body never reads.

A module-level private name of `src/madcycle` (a function, class or constant
whose name starts with one underscore) must be read somewhere in the package
besides its own definition, and every name a module imports must be read in
that module or listed in its `__all__`. A defaulted parameter of a private
function or method must be passed by some call in the package, or it is a
constant in disguise. Every parameter of a module-level private function
or a private method must be read by its body, `self` and `cls` aside. Tests
do not count as readers or callers: a helper only a test calls is dead code
of the package. No module but `instances`, whose generators take a seed,
imports `random`: every answer is exact or unknown, so no search draws random
numbers. No module but `graph` wraps a cycle or path verifier in
`require_verified`: every other module checks its certificates by
`graph.certify`. No process-global cache that outlives its graph:
`functools.lru_cache` and `functools.cache` appear only as
`lru_cache(maxsize=1)` on `density.mad_with_witness`, which keeps the one
graph a solve asks about again. Every no of a
case analysis is gated: a `SolveResult("no", ...)` is the first argument of
`solver._downgrade` or lies in the exact fallback, and no statement assigns
"no" to an `.answer`. Every exact search returns its object or None, or
raises StateBudgetExceeded past its budget, so only the layers that turn a
search into an answer catch it: the exact fallback, `dirac_cycle`,
`fan_path`, the outside-path probe and the case analysis. Stdlib `ast` only.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "madcycle"


def _reads(tree: ast.AST) -> set[str]:
    """Every name tree reads: bare names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _private_defs(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants of tree."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """'module.name' for each private definition no module reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*(_reads(t) for t in trees.values()))
    return [f"{mod}.{name}" for mod, tree in sorted(trees.items())
            for name in _private_defs(tree) if name not in read]


def unused_imports(sources: dict[str, str]) -> list[str]:
    """'module.name' for each imported name its module never reads."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{mod}.{name}")
    return out


def _private_functions(tree: ast.Module):
    """(qualified name, def, is method) for each private function of tree."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if name.startswith("_") and not name.startswith("__"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    out.append((prefix + name, child, in_class and not static))
                visit(child, prefix + name + ".", False)

    visit(tree, "", False)
    return out


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether call passes the parameter `name`, whose positional index is
    index (None when it is keyword-only), by position or by keyword."""
    if index is not None and (len(call.args) > index
                              or any(isinstance(x, ast.Starred) for x in call.args)):
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def dead_defaults(sources: dict[str, str]) -> list[str]:
    """'module.function.param' for each defaulted parameter of a private
    function or method that no call in the package passes, by position or by
    keyword. Calls are matched by name; a function the package also reads
    other than by calling it (a callback, say) is skipped, as its calls are
    out of sight, and a call with *args or **kwargs passes everything."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    callees, other_reads = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):  # breadth first: a call before its callee
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
                callees.add(id(f))
            elif id(node) in callees:
                continue
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                other_reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                other_reads.add(node.attr)
    out = []
    for mod, tree in sorted(trees.items()):
        for qualname, fn, is_method in _private_functions(tree):
            if fn.name in other_reads:
                continue
            found = calls.get(fn.name, [])
            a = fn.args
            positional = (a.posonlyargs + a.args)[is_method:]
            defaulted = [(i, p) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for i, p in defaulted:
                if not any(_passes(c, i, p.arg) for c in found):
                    out.append(f"{mod}.{qualname}.{p.arg}")
    return out


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """'module.function.param' for each parameter of a module-level private
    function or a private method that its body, nested functions included,
    never reads; `self` and `cls` are exempt."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        scopes = [("", tree.body)]
        scopes += [(c.name + ".", c.body) for c in tree.body if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for fn in body:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or not fn.name.startswith("_") or fn.name.startswith("__")):
                    continue
                read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
                a = fn.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                params += [x for x in (a.vararg, a.kwarg) if x is not None]
                out += [f"{mod}.{prefix}{fn.name}.{x.arg}" for x in params
                        if x.arg not in ("self", "cls") and x.arg not in read]
    return out


def random_importers(sources: dict[str, str]) -> list[str]:
    """Each module other than instances that imports random."""
    out = []
    for mod, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if mod != "instances" and any(n.split(".")[0] == "random" for n in names):
                out.append(mod)
                break
    return out


def _called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def wrapped_certificate_checks(sources: dict[str, str]) -> list[str]:
    """'module:line' for each require_verified(verify_cycle_certificate(...))
    or require_verified(verify_path_certificate(...)) outside graph."""
    verifiers = {"verify_cycle_certificate", "verify_path_certificate"}
    out = []
    for mod, text in sorted(sources.items()):
        if mod == "graph":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and _called_name(node) == "require_verified"
                    and node.args and isinstance(node.args[0], ast.Call)
                    and _called_name(node.args[0]) in verifiers):
                out.append(f"{mod}:{node.lineno}")
    return out


_CACHES = {"lru_cache", "cache"}
_ALLOWED_CACHES = {("density", "mad_with_witness")}


def _one_entry(decorator: ast.expr) -> bool:
    """Whether decorator is a call whose one argument is maxsize=1."""
    return (isinstance(decorator, ast.Call) and not decorator.args
            and [ast.unparse(kw) for kw in decorator.keywords] == ["maxsize=1"])


def process_global_caches(sources: dict[str, str]) -> list[str]:
    """'module:line', in line order, for each use of functools.lru_cache or
    functools.cache, under any import alias, other than a one-entry
    decorator, `lru_cache(maxsize=1)`, of an allowed function."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        names, modules, allowed = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names |= {a.asname or a.name for a in node.names if a.name in _CACHES}
            elif isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (mod, node.name) in _ALLOWED_CACHES):
                allowed |= {id(n) for d in node.decorator_list if _one_entry(d)
                            for n in ast.walk(d)}
        lines = []
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr in _CACHES
                        and isinstance(node.value, ast.Name) and node.value.id in modules)):
                lines.append(node.lineno)
        out += [f"{mod}:{line}" for line in sorted(lines)]
    return out


_EXACT_NOS = {("solver", "exact_longest_cycle_fallback")}


def _is_no(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and node.value == "no"


def ungated_nos(sources: dict[str, str]) -> list[str]:
    """'module:line' for each SolveResult("no", ...) that is neither the
    first argument of a _downgrade(...) call nor inside an exact search
    (_EXACT_NOS), and for each assignment of "no" to an `.answer`."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "_downgrade" and node.args:
                allowed.add(id(node.args[0]))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (mod, node.name) in _EXACT_NOS):
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "SolveResult":
                says_no = (node.args and _is_no(node.args[0])) or any(
                    kw.arg == "answer" and _is_no(kw.value) for kw in node.keywords)
                if says_no and id(node) not in allowed:
                    out.append(f"{mod}:{node.lineno}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_no(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "answer" for t in targets):
                    out.append(f"{mod}:{node.lineno}")
    return out


_BUDGET_CATCHERS = {
    ("solver", "exact_longest_cycle_fallback"), ("longpaths", "dirac_cycle"),
    ("longpaths", "fan_path"), ("solver", "_outside_path"), ("solver", "_case_analysis"),
}


def budget_catchers(sources: dict[str, str]) -> list[str]:
    """'module:line' for each except clause naming StateBudgetExceeded, alone
    or in a tuple, outside the answer layers (_BUDGET_CATCHERS)."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (mod, node.name) in _BUDGET_CATCHERS):
                allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and id(node) not in allowed
                    and "StateBudgetExceeded" in _reads(node.type)):
                out.append(f"{mod}:{node.lineno}")
    return out


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_private_helper_is_read():
    assert dead_private_names(_package_sources()) == []


def test_every_import_is_read():
    assert unused_imports(_package_sources()) == []


def test_every_defaulted_parameter_is_passed():
    assert dead_defaults(_package_sources()) == []


def test_every_parameter_is_read():
    assert unread_parameters(_package_sources()) == []


def test_only_the_generators_import_random():
    assert random_importers(_package_sources()) == []


def test_certificates_are_checked_by_certify():
    assert wrapped_certificate_checks(_package_sources()) == []


def test_no_process_global_cache_but_the_mad_cache():
    assert process_global_caches(_package_sources()) == []


def test_every_case_analysis_no_is_gated():
    assert ungated_nos(_package_sources()) == []


def test_only_the_answer_layers_catch_a_budget_trip():
    assert budget_catchers(_package_sources()) == []


def test_the_check_sees_budget_catchers():
    sources = {
        "a": "def f():\n    try:\n        return g()\n"
             "    except StateBudgetExceeded:\n        return None\n",
        "b": "try:\n    g()\nexcept (ValueError, errors.StateBudgetExceeded) as exc:\n    pass\n"
             "try:\n    g()\nexcept ValueError:\n    pass\n",
        "segments": "def fan_path():\n    try:\n        g()\n"
                    "    except StateBudgetExceeded:\n        pass\n",
        "solver": "def _case_analysis():\n    try:\n        g()\n"
                  "    except StateBudgetExceeded:\n        pass\n"
                  "def solve():\n    try:\n        g()\n"
                  "    except StateBudgetExceeded:\n        pass\n",
    }
    # an allowed function's name counts only in its own module
    assert budget_catchers(sources) == ["a:4", "b:3", "segments:4", "solver:9"]


def test_the_check_sees_process_global_caches():
    sources = {
        "a": "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x):\n    return x\n",
        "b": "import functools as ft\n@ft.cache\ndef f(x):\n    return x\n",
        "c": "from functools import cache as memo, partial\nh = memo(partial(max, 1))\n",
        "d": "def cache(x):\n    return x\n@cache\ndef f():\n    return 0\n",
        "density": "from functools import lru_cache\n"
                   "@lru_cache(maxsize=512)\ndef mad_with_witness(g):\n    return g\n"
                   "@lru_cache\ndef other(g):\n    return g\n",
    }
    # d's own cache is not functools'; density's mad cache is allowed only
    # with one entry
    assert process_global_caches(sources) == ["a:2", "b:2", "c:2", "density:2", "density:5"]
    sources["density"] = sources["density"].replace("maxsize=512", "maxsize=1")
    assert process_global_caches(sources) == ["a:2", "b:2", "c:2", "density:5"]


def test_the_check_sees_wrapped_certificate_checks():
    sources = {
        "a": "def f(g, c):\n    require_verified(verify_cycle_certificate(g, c))\n",
        "b": "def f(g, c):\n    x = 1\n    G.require_verified(G.verify_path_certificate(g, c))\n",
        "c": "def f(g, c, s):\n    require_verified(verify_density_certificate(g, c, s))\n"
             "    return certify(g, c)\n",
        "graph": "def certify(g, c):\n    require_verified(verify_cycle_certificate(g, c))\n",
    }
    # the density verifier and graph itself are allowed
    assert wrapped_certificate_checks(sources) == ["a:2", "b:3"]


def test_the_check_sees_random_imports():
    sources = {
        "a": "import random as r\n",
        "b": "def f():\n    from random import Random\n    return Random\n",
        "c": "import os\nfrom .random_graphs import g\n",
        "instances": "import random\n",
    }
    assert random_importers(sources) == ["a", "b"]


def test_the_checks_see_dead_helpers_and_unused_imports():
    sources = {
        "a": "import os\nfrom .b import _used, seen\n_LIMIT = 3\n"
             "def _dead():\n    return seen\n"
             "def _alive():\n    return _used(_LIMIT)\n"
             "def run():\n    return _alive()\n",
        "b": "from typing import Any\n__all__ = ['Any']\n"
             "def _used(x):\n    return x\nseen = 1\n",
    }
    assert dead_private_names(sources) == ["a._dead"]
    assert unused_imports(sources) == ["a.os"]


def test_the_check_sees_defaults_no_call_passes():
    sources = {
        "a": "def _used(x, y=0, *, z=1):\n    return x\n",
        "b": "from .a import _used\n"
             "def _by_position(x, y=0):\n    return x\n"
             "def _as_callback(x, y=0):\n    return x\n"
             "class C:\n"
             "    def _tick(self, k=1, j=0):\n        return k\n"
             "    @staticmethod\n"
             "    def _static(k=1):\n        return k\n"
             "def run(c):\n"
             "    c._tick(j=2)\n    C._static(2)\n"
             "    return _used(_by_position(1, 2), z=3), sorted([], key=_as_callback)\n",
    }
    # _as_callback is read as a value, so its calls are out of sight
    assert dead_defaults(sources) == ["a._used.y", "b.C._tick.k"]


def test_the_check_sees_parameters_no_body_reads():
    sources = {
        "a": "def _glue(g, sub, *rest, **opts):\n    return sub\n"
             "def _closure(x, y):\n    def inner():\n        return y\n"
             "    x = 1\n    return inner\n"
             "def public(z):\n    return 0\n"
             "class C:\n"
             "    def _tick(self, k, *, j=0):\n        return j\n"
             "    @classmethod\n"
             "    def _make(cls, n):\n        return cls()\n"
             "    def run(self, w):\n        return 0\n",
    }
    # a parameter only stored to is unread; public functions are not checked
    assert unread_parameters(sources) == [
        "a._glue.g", "a._glue.rest", "a._glue.opts", "a._closure.x",
        "a.C._tick.k", "a.C._make.n",
    ]


def test_the_check_sees_ungated_nos():
    sources = {
        "a": "def f(base):\n    return SolveResult('no', **base)\n",
        "b": "def f(res):\n    res.answer = 'no'\n    res.answer = 'unknown'\n    return res\n",
        "c": "def f(base, ok):\n    return _downgrade(SolveResult('no', **base), ok, 'why')\n"
             "def g(base):\n    return S.SolveResult(answer='no', **base)\n",
        "solver": "def exact_longest_cycle_fallback(g, t):\n    return SolveResult('no')\n"
                  "def other(res: R):\n    res.answer: str = 'no'\n"
                  "    return SolveResult('yes'), _downgrade(res, True, SolveResult('no'))\n",
    }
    # a no inside _downgrade's first argument or the exact fallback is gated
    assert ungated_nos(sources) == ["a:2", "b:2", "c:4", "solver:4", "solver:5"]
