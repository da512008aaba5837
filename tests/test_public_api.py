"""Every public function and every dataclass field of the package is reached
from the package itself.

A public top-level function counts as reached when another module of
``src/lbverify`` imports it by name or reads it as ``module.attr`` through
an alias of an lbverify module, or when its own module calls it by name
where no local binding shadows it.  Attribute reads on anything else do not
count, so a field such as ``scan.null_rate`` cannot hide a function of the
same name.  A dataclass field counts as read when some module reads an
attribute of its name; constructor keywords and stores do not count.  The
few functions the tests alone call, and the fields the tests alone read,
are listed with the claim that keeps them.

Private names stay private: the underscore names one module of the package
imports from another, or reads through a module alias, are listed with the
reason each crossing stays.
"""

import ast
import importlib
import inspect
import json
import pathlib
import re
import types

import lbverify

SRC = pathlib.Path(lbverify.__file__).parent

#: Public functions that no module of the package calls, and why they stay.
TEST_ONLY = {
    ("curvature", "ode_integrate_f"): "acceptance criterion 3, the RK4 oracle of f",
    ("scalar_field", "scalar_profile"): "acceptance criterion 4, the scalar profile",
    ("scalar_field", "noether_charge"): "acceptance criterion 4, the first integral",
    ("scalar_field", "phi_accumulate"): "acceptance criterion 4, phi by quadrature",
    ("curvature", "alpha_deformation_metric"): "the paper's general-form claim",
    ("special_functions", "hyp2f1"): "acceptance criterion 11, general (a, b, c) on z in [-10, 0]",
}

#: Dataclass fields that no module of the package reads, and why they stay.
TEST_ONLY_FIELDS = {
    ("scalar_field", "ScalarProfile", "phi_p_sq_constraint"): "acceptance criterion 4, the scalar profile",
    ("scalar_field", "ScalarProfile", "phi"): "acceptance criterion 4, the scalar profile",
    ("scalar_field", "ScalarProfile", "noether"): "acceptance criterion 4, the scalar profile",
}


#: (module, target module, private name) references between package modules, and why each stays.
PRIVATE_REFERENCES = {}

#: Functions the benchmark tracer (``perfbench/tracer.py``) hooks by name that
#: the package no longer defines, each with the commit that removed it.  Their
#: hooks and metrics read 0 until the tracer names their successors.
BENCHMARK_DEAD_NAMES = {
    "model.f_eval": "removed by bd663d5; ROADMAP item 1 re-points it",
    "model.w_eval": "removed by the commit that adds model.metric_blocks; ROADMAP item 1 re-points it",
    "congruence.null_rate_sign_scan": "removed by 89c5466; ROADMAP item 1 re-points it",
    "congruence.timelike_scan": "removed by 89c5466; ROADMAP item 1 re-points it",
    "energy_conditions.region_scan": "removed by 271e19c; ROADMAP item 1 re-points it",
    "numerics.bisect": "removed by f580abb; ROADMAP item 1 re-points it",
    "stability.jacobian_eigen": "removed by 59a6027; ROADMAP item 1 re-points it",
    "numerics.five_point_diffs": "removed by the commit that adds numerics.Jet; ROADMAP item 1 re-points it",
    "numerics.adaptive_simpson": (
        "replaced by numerics.adaptive_gauss_kronrod in the commit that adds it; ROADMAP item 1 re-points it"
    ),
    "numerics.central_diff": (
        "moved into the tests by the commit that adds numerics.adaptive_gauss_kronrod; ROADMAP item 1 re-points it"
    ),
    "curvature.ricci_diagonal_fd": (
        "renamed curvature.ricci_diagonal_generic by the commit that adds numerics.Jet; ROADMAP item 1 re-points it"
    ),
}

TRACER = SRC.parents[1] / "perfbench" / "tracer.py"
RUNNER = SRC.parents[1] / "perfbench" / "run.py"
BENCHMARK = SRC.parents[1] / "BENCHMARK.json"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public_functions(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def _cross_module_references(module, tree):
    """(target module, name) pairs that ``module`` imports or reads through a module alias."""
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("lbverify")):
            target = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if target and target != "lbverify":
                    refs.add((target, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
    return {ref for ref in refs if ref[0] != module}


def _own_module_calls(tree):
    """Names a module reads at top level or in a function that binds no local of that name."""
    used = set()
    for top in tree.body:
        names = [node for node in ast.walk(top) if isinstance(node, ast.Name)]
        local = set()
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = {top.name} | {node.id for node in names if isinstance(node.ctx, ast.Store)}
            local |= {arg.arg for arg in ast.walk(top) if isinstance(arg, ast.arg)}
        used |= {node.id for node in names if isinstance(node.ctx, ast.Load) and node.id not in local}
    return used


def test_every_public_function_is_reached_from_the_package():
    modules = _modules()
    referenced = set().union(*(_cross_module_references(name, tree) for name, tree in modules.items()))
    unreached = {
        (name, fn)
        for name, tree in modules.items()
        for fn in _public_functions(tree) - _own_module_calls(tree)
        if (name, fn) not in referenced
    }
    assert unreached == set(TEST_ONLY), (
        f"only tests reach {sorted(unreached - set(TEST_ONLY))}; "
        f"listed but reached or gone: {sorted(set(TEST_ONLY) - unreached)}"
    )


def test_private_names_cross_modules_only_where_listed():
    crossings = {
        (name, target, attr)
        for name, tree in _modules().items()
        for target, attr in _cross_module_references(name, tree)
        if attr.startswith("_")
    }
    assert crossings == set(PRIVATE_REFERENCES), (
        f"unlisted: {sorted(crossings - set(PRIVATE_REFERENCES))}; "
        f"listed but gone: {sorted(set(PRIVATE_REFERENCES) - crossings)}"
    )


def test_a_field_of_the_same_name_does_not_count_as_a_reference():
    tree = ast.parse(
        "from . import congruence as cg\n"
        "from .model import metric_eval\n"
        "def build(scan):\n"
        "    null_rate = scan.null_rate\n"
        "    return cg.kinematics_scan, null_rate\n"
    )
    assert _cross_module_references("suites", tree) == {("model", "metric_eval"), ("congruence", "kinematics_scan")}
    assert "null_rate" not in _own_module_calls(tree)


def _is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def _dataclass_fields(tree):
    """(class, field) for every annotated field of every dataclass in ``tree``."""
    return {
        (node.name, stmt.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(_is_dataclass_decorator(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _attribute_reads(tree):
    """Names read as ``value.name`` anywhere in ``tree``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_by_the_package():
    modules = _modules()
    read = set().union(*(_attribute_reads(tree) for tree in modules.values()))
    unread = {
        (name, cls, field)
        for name, tree in modules.items()
        for cls, field in _dataclass_fields(tree)
        if field not in read
    }
    assert unread == set(TEST_ONLY_FIELDS), (
        f"only tests read {sorted(unread - set(TEST_ONLY_FIELDS))}; "
        f"listed but read or gone: {sorted(set(TEST_ONLY_FIELDS) - unread)}"
    )


def test_a_constructor_keyword_or_store_does_not_count_as_a_field_read():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    kept: float\n"
        "    dropped: float\n"
        "    LIMIT = 3\n"
        "@dataclasses.dataclass\n"
        "class Box:\n"
        "    content: float\n"
        "class Plain:\n"
        "    ignored: float\n"
        "def use(box):\n"
        "    box.content = Pair(kept=1.0, dropped=2.0)\n"
        "    return box.content.kept\n"
    )
    assert _dataclass_fields(tree) == {("Pair", "kept"), ("Pair", "dropped"), ("Box", "content")}
    assert _attribute_reads(tree) == {"content", "kept", "dataclass"}


def _is_package_function(name):
    """Whether ``module.fn`` names a function defined in that ``lbverify`` module."""
    module, _, fn = name.partition(".")
    try:
        mod = importlib.import_module(f"lbverify.{module}")
    except ModuleNotFoundError:
        return False
    obj = getattr(mod, fn, None)
    return inspect.isfunction(obj) and obj.__module__ == mod.__name__


def _tracer():
    """``perfbench/tracer.py``, read and executed in memory, never imported, so
    that nothing is written under perfbench/."""
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    return tracer


def test_benchmark_tracer_names_resolve_or_are_listed_dead():
    tracer = _tracer()
    names = set(tracer._PRE) | set(tracer._POST) | {row[-1] for row in tracer._SPAN_METRICS}
    dead = {name for name in names if not _is_package_function(name)}
    assert dead <= set(BENCHMARK_DEAD_NAMES), f"unlisted dead tracer names: {sorted(dead - set(BENCHMARK_DEAD_NAMES))}"
    alive = {name for name in BENCHMARK_DEAD_NAMES if _is_package_function(name)}
    assert not alive, f"listed as dead but defined: {sorted(alive)}"


def test_benchmark_per_layer_names_are_emitted_and_resolve_or_are_listed_dead():
    # Each per-layer metric of BENCHMARK.json is one the tracer's
    # layer_metrics emits (its keys do not depend on the traces) or one the
    # runner assigns itself.  A metric of one function, a span metric or a
    # count named function.key, names a function that resolves or is
    # listed as dead.
    tracer = _tracer()
    emitted = set(tracer.layer_metrics([])) | set(re.findall(r'metrics\["([^"]+)"\] =', RUNNER.read_text()))
    per_layer = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert not set(per_layer) - emitted, f"per-layer metrics nothing emits: {sorted(set(per_layer) - emitted)}"
    functions = {metric: fn for metric, _, _, fn in tracer._SPAN_METRICS}
    functions.update(
        {metric: key.rpartition(".")[0] for metric, _, key in tracer._COUNT_METRICS if key.count(".") == 2}
    )
    dead = {functions[metric] for metric in per_layer if metric in functions} - set(
        filter(_is_package_function, functions.values())
    )
    unlisted = dead - set(BENCHMARK_DEAD_NAMES)
    assert not unlisted, f"unlisted dead per-layer functions: {sorted(unlisted)}"
