"""The public API: every exported name, every name README's API paragraph
gives, and every name the benchmark's workloads use resolves."""

import ast
import importlib
import inspect
import re
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


def imported_modules(module):
    """The ftfreq modules a module of the package imports, by their names."""
    tree = ast.parse(Path(inspect.getfile(module)).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "ftfreq" if node.level else ""
            name = ".".join(filter(None, (base, node.module)))
            names.add(name)
            names.update(f"{name}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name for name in names if name.startswith("ftfreq")}


def test_the_streaming_path_does_not_import_the_engine():
    """Pipeline and the engine share their mixing stage through mixing,
    which imports neither pipeline nor engine; the engine imports pipeline."""
    from ftfreq import engine, mixing, pipeline
    assert "ftfreq.engine" not in imported_modules(pipeline)
    assert {"ftfreq.mixing", "ftfreq.mixing.mix_rows"} <= imported_modules(pipeline)
    assert not {"ftfreq.engine", "ftfreq.pipeline"} & imported_modules(mixing)
    assert "ftfreq.pipeline" in imported_modules(engine)


def test_both_drivers_call_the_one_batched_form_of_each_stage():
    """The mixing, gradient and omega_grad recovery stages each have one
    batched form, which Pipeline and the engine both import, so that a
    second form in either driver shows here."""
    from ftfreq import engine, estimator, pipeline
    shared = {"ftfreq.estimator.gradient_rows", "ftfreq.mixing.mix_rows",
              "ftfreq.recovery.recover_rows"}
    assert shared <= imported_modules(pipeline)
    assert shared <= imported_modules(engine)
    assert not {"ftfreq.estimator.step_gradient", "ftfreq.mixing.adjugate"} & (
        imported_modules(pipeline) | imported_modules(engine))
    assert not {"ftfreq.pipeline", "ftfreq.engine"} & imported_modules(estimator)
