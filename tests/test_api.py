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
