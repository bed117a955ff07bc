"""Tooling around the package: the traced benchmark, ``python -m toepquant``, imports, config knobs, error types and the README's stream version.

``perfbench/tracing.py`` refuses to run when a name it wraps is no longer
bound, so a refactor that drops one breaks the traced benchmark.  The
tracer test installs and removes the tracer without running any workload.
Those bindings are the package's only unused imports, each marked ``noqa``.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from toepquant import STREAM_VERSION, cli, exceptions
from toepquant.bounds import evaluate_bounds
from toepquant.cli import build_parser
from toepquant.exceptions import InvalidArgumentError, NumericError, ToepquantError
from toepquant.experiments import _EXPERIMENTS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
ERROR_TYPES = [v for v in vars(exceptions).values() if isinstance(v, type) and issubclass(v, BaseException)]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    bindings = [binding for layer in tracing.LAYERS.values() for binding in layer[0]]

    def bound():
        return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr in bindings}

    originals = bound()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bound()
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not fn for key, fn in originals.items())
    assert bound() == originals


def run_python(*args):
    """``python *args`` with this checkout's ``src`` first on the module path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "toepquant", "ruler", "--d", "16", "--alpha", "0.5")
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.startswith("d,alpha,size")
    assert row.endswith("1 2 3 4 8 12 16")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["estimate", "--simulate", "--delta", "1e150"], 0),  # pair means and norms near 1e300
        (["ruler", "--d", "16", "--alpha", "5"], 2),
        (["estimate", "--simulate", "--delta", "1e154"], 3),  # pair means overflow
    ],
    ids=["finite", "invalid", "numeric"],
)
def test_warnings_as_errors_leave_the_exit_codes(argv, code):
    # a numpy RuntimeWarning raised as an error would be a traceback with exit 1
    done = run_python("-W", "error", "-m", "toepquant", *argv)
    assert (done.returncode, "Traceback" in done.stderr) == (code, False), done.stderr
    assert len(done.stderr.splitlines()) <= 1
    if code == 0:
        values = [float(line.split(",")[1]) for line in done.stdout.splitlines()[1:]]
        assert all(map(math.isfinite, values))


def test_every_module_uses_what_it_imports():
    unused = []
    for path in sorted((ROOT / "src" / "toepquant").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_import_marked_noqa_is_a_binding_the_tracer_wraps():
    wrapped = {binding for layer in load_tracing().LAYERS.values() for binding in layer[0]}
    marked = []
    for path in sorted((ROOT / "src" / "toepquant").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                marked += [(f"toepquant.{path.stem}", alias.asname or alias.name) for alias in node.names]
    assert marked
    assert [binding for binding in marked if binding not in wrapped] == []


def test_every_import_is_the_package_the_standard_library_or_numpy():
    # numpy is the one runtime dependency pyproject.toml declares; scipy may
    # be installed beside it, but an install from the package metadata lacks it
    allowed = set(sys.stdlib_module_names) | {"toepquant", "numpy"}
    foreign = []
    for path in sorted((ROOT / "src" / "toepquant").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


def test_every_config_field_is_a_command_line_option():
    # a field no option sets is a knob only Python callers can turn; the one
    # left is the one tests size experiment 4's runs with
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in parser._actions + subparsers.choices["exp"]._actions if a.option_strings}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert fields - dests == {"variants"}


def test_every_bounds_option_is_an_evaluate_bounds_parameter():
    # cmd_bounds passes every parsed option not in _NOT_BOUNDS to evaluate_bounds,
    # so an option that is no parameter would be a TypeError, a traceback with exit 1
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = parser._actions + subparsers.choices["bounds"]._actions
    dests = {a.dest for a in actions if a.option_strings and a.dest not in ("help", "version")}
    assert dests - set(cli._NOT_BOUNDS) == set(inspect.signature(evaluate_bounds).parameters)


def test_exp_ids_are_the_experiment_table():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (exp_id,) = [a for a in subparsers.choices["exp"]._actions if a.dest == "experiment"]
    assert exp_id.choices == sorted(_EXPERIMENTS)


def test_every_error_type_means_one_exit_code():
    # each type but the base is an invalid argument (exit 2) or a numeric failure (exit 3), never both
    for cls in ERROR_TYPES:
        assert cls is ToepquantError or issubclass(cls, InvalidArgumentError) != issubclass(cls, NumericError), cls


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_of_each_error_type(monkeypatch, capsys, cls):
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(cli, "ruler_alpha", fail)
    code = cli.main(["ruler", "--d", "16", "--alpha", "0.5"])
    out, err = capsys.readouterr()
    if issubclass(cls, NumericError):
        assert (code, err) == (3, "numeric failure: boom\n")
    else:
        assert (code, err) == (2, "invalid configuration: boom\n")
    assert out == ""


def test_readme_names_the_current_stream_version():
    # the randomness contract marks exactly one version "(current)"
    current = re.findall(r"\*\*Version (\d+)\*\* \(current\)", (ROOT / "README.md").read_text())
    assert current == [str(STREAM_VERSION)]
