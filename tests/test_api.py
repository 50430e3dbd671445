"""The public API: every exported name, every name README's API paragraph
gives, every private name README's module map gives, and every name the
benchmark's workloads use resolves; the package depends on numpy alone."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import ftfreq

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names():
    """Dotted names in backticks in README's "Lower-level pieces" paragraph."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Lower-level pieces", 1)[1].split("\n\n", 1)[0]
    spans = re.findall(r"`([^`]+)`", paragraph)
    return [span for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*", span)]


def resolve(dotted):
    obj = ftfreq
    for part in dotted.removeprefix("ftfreq.").split("."):
        obj = getattr(obj, part)
    return obj


def test_every_exported_name_resolves():
    assert len(set(ftfreq.__all__)) == len(ftfreq.__all__)
    for name in ftfreq.__all__:
        getattr(ftfreq, name)


def test_readme_api_names_resolve():
    names = readme_api_names()
    assert "Pipeline" in names and "regression_at" in names
    for name in names:
        resolve(name)


def module_map_private_names():
    """(module, name) for each backticked name that starts with _ in the
    rows of README's module map."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
    return [(module, name) for module, contents in rows
            for name in re.findall(r"`(_\w+)`", contents)]


def test_module_map_private_names_resolve():
    names = module_map_private_names()
    assert {("mixing", "_adjugates"), ("recovery", "_roots"), ("recovery", "_frequencies"),
            ("pipeline", "_CHUNK")} <= set(names)
    for module, name in names:
        assert hasattr(importlib.import_module(f"ftfreq.{module}"), name), (module, name)


def test_readme_batch_sizes_are_the_pipeline_s():
    # README quotes step()'s batch cap and run()'s block size in its Python
    # API section and in its module map: every figure is the constant's, and
    # every quote is still found
    text = README.read_text(encoding="utf-8")
    quotes = {"_AHEAD": (r"min\(d / Ts, (\d+)\)", r"at most (\d+), `_AHEAD`"),
              "_CHUNK": (r"calls the block routine per (\d+) rows",
                         r"per (\d+)-row block \(`_CHUNK`\)")}
    pipeline = importlib.import_module("ftfreq.pipeline")
    for name, patterns in quotes.items():
        for pattern in patterns:
            figures = re.findall(pattern, text)
            assert figures and {int(f) for f in figures} == {getattr(pipeline, name)}, pattern


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_benchmark_imports_resolve():
    """Every name the benchmark's workloads import from ftfreq, and every
    attribute they read off an imported ftfreq module (cli.main,
    harness.run_scenario, ...), still exists."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules, checked = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ftfreq":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                found = getattr(owner, alias.name, None)
                if found is None:  # a submodule not yet imported
                    found = importlib.import_module(f"{node.module}.{alias.name}")
                if inspect.ismodule(found):
                    modules[alias.asname or alias.name] = found
                checked.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
            checked.append(f"{node.value.id}.{node.attr}")
    assert {"ftfreq.signals.generate_trace", "harness.build_pipeline",
            "harness.run_scenario", "cli.main"} <= set(checked)


def imports(path):
    """Every module, and every name from a module, that a source file
    imports, by its dotted name."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "ftfreq" if node.level else ""
            name = ".".join(filter(None, (base, node.module)))
            names.add(name)
            names.update(f"{name}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def imported_modules(module):
    """The ftfreq modules a module of the package imports, by their names."""
    return {name for name in imports(inspect.getfile(module)) if name.startswith("ftfreq")}


def test_the_streaming_path_does_not_import_the_engine():
    """There is one driver: the whole-trace engine module is gone, and
    pipeline, which holds both entries, shares its mixing stage through
    mixing, which imports no driver; harness runs scenarios through
    pipeline."""
    from ftfreq import harness, mixing, pipeline
    assert importlib.util.find_spec("ftfreq.engine") is None
    assert {"ftfreq.mixing", "ftfreq.mixing.mix_rows"} <= imported_modules(pipeline)
    assert not {"ftfreq.pipeline", "ftfreq.harness"} & imported_modules(mixing)
    assert "ftfreq.pipeline" in imported_modules(harness)


def test_both_drivers_call_the_one_batched_form_of_each_stage():
    """The mixing, gradient and omega_grad recovery stages each have one
    batched form, which the driver imports in place of their one-row calls,
    so that a second form shows here; no stage module imports the driver.
    Mixing has no one-row form beside adjugate: mix and its input layer
    are gone."""
    from ftfreq import estimator, mixing, pipeline
    shared = {"ftfreq.estimator.gradient_rows", "ftfreq.mixing.mix_rows",
              "ftfreq.recovery.recover_rows"}
    assert shared <= imported_modules(pipeline)
    assert not {"ftfreq.estimator.step_gradient", "ftfreq.mixing.adjugate"} & \
        imported_modules(pipeline)
    assert "ftfreq.pipeline" not in imported_modules(estimator)
    for gone in ("mix", "_one_row_stack", "_floats"):
        assert not hasattr(mixing, gone), gone


def stage_callers(names):
    """For each function name in names, the functions of the package that
    call it, as "module.Class.function"."""
    callers = {name: set() for name in names}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callers:
                    callers[name].add(".".join([module, *scope]))
            visit(child, module, scope)

    for path in Path(ftfreq.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return callers


def test_one_block_routine_calls_the_batched_stages():
    """mix_rows, gradient_rows and recover_rows are each called from one
    function of the package, Pipeline._rows, the block routine both of its
    entries drive the chain through, so that a second driving path shows
    here. The one other call is gradient_rows' one-row call in its own
    module, step_gradient."""
    assert stage_callers(("mix_rows", "gradient_rows", "recover_rows")) == {
        "mix_rows": {"pipeline.Pipeline._rows"},
        "gradient_rows": {"pipeline.Pipeline._rows", "estimator.step_gradient"},
        "recover_rows": {"pipeline.Pipeline._rows"},
    }


def test_one_form_of_the_finite_time_inversion():
    """theta_ft has one written form, finite_time_theta: the one-row
    extraction, finite_time_estimate, and the block routine, which forms
    the fired row's theta_ft to recover it with the block, each call it, so
    that a second copy of the float formula shows here."""
    assert stage_callers(("finite_time_theta",)) == {
        "finite_time_theta": {"estimator.finite_time_estimate", "pipeline.Pipeline._rows"}}


def test_one_routine_records_an_extraction():
    """Both entries record the extraction their block fired through one
    routine, Pipeline._fire, the one caller of the one-row extraction,
    finite_time_estimate, so that a second extraction path shows here."""
    assert stage_callers(("_fire", "finite_time_estimate")) == {
        "_fire": {"pipeline.Pipeline.step", "pipeline.Pipeline._run_block"},
        "finite_time_estimate": {"pipeline.Pipeline._fire"}}


def test_one_route_from_theta_to_omega():
    """The root finder, _roots, the tail from cosines to frequencies,
    _frequencies, and the imaginary-part test with the FrequencyEstimate it
    passes, _estimate, are each called from their batched call,
    recover_rows, and its one-row call, recover_frequencies, alone; and the
    root finder's two sources of roots, the closed form at n = 3,
    _cubic_roots, and the companion matrices' eigenvalues,
    _companion_roots, the one caller of np.linalg.eigvals, from _roots
    alone, so that a second route from theta to omega shows here; and the
    Newton polish, _polished, which polishes real and complex roots alike,
    from _roots alone, so that a second copy of it shows here too. The band
    rule, _in_band, is called by _frequencies and by Pipeline.__init__ alone,
    which puts the cold rows' guesses in band without a round trip through
    theta0."""
    both = {"recovery.recover_rows", "recovery.recover_frequencies"}
    assert stage_callers(("_roots", "_frequencies", "_estimate", "_cubic_roots",
                          "_companion_roots", "eigvals")) == {
        "_roots": both, "_frequencies": both, "_estimate": both,
        "_cubic_roots": {"recovery._roots"}, "_companion_roots": {"recovery._roots"},
        "eigvals": {"recovery._companion_roots"}}
    assert stage_callers(("_polished",)) == {"_polished": {"recovery._roots"}}
    assert stage_callers(("_in_band",)) == {
        "_in_band": {"recovery._frequencies", "pipeline.Pipeline.__init__"}}


# A built-in simulate, then an n = 3 Pipeline run through its extraction;
# prints the modules loaded by then.
RUN_BOTH_DRIVERS = """
import json, math, sys
from ftfreq import DremConfig, EstimatorSettings, ModelConfig, Pipeline
from ftfreq.cli import main
assert main(["scenario", "noiseless-2h", "--out", sys.argv[1]]) == 0
freqs = (1.5, 2.5, 3.5)
pipeline = Pipeline(ModelConfig(n=3, h=0.3, omega_min=1.0, omega_max=4.0),
                    DremConfig(d=0.4, epsilon=10.0),
                    EstimatorSettings(gamma=(1.0,) * 3, omega0=freqs, t_ft=6.0), 0.01)
for k in range(700):
    result = pipeline.step(k * 0.01, sum(math.sin(w * k * 0.01) for w in freqs))
assert result.omega_ft is not None
print(json.dumps(sorted(sys.modules)))
"""


def test_the_package_depends_on_numpy_alone(tmp_path):
    """scipy is installed beside numpy but not declared: neither driver
    loads it; and no package module reaches for the tests' exact
    arithmetic (fractions) or for anything under tests/."""
    package = Path(ftfreq.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    done = subprocess.run([sys.executable, "-c", RUN_BOTH_DRIVERS, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "numpy" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]
    for path in package.glob("*.py"):
        for name in imports(path):
            assert name.split(".")[0] not in ("fractions", "tests", "exact", "conftest"), (
                path.name, name)
