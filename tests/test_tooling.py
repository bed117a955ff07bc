"""Tooling around the package: the traced benchmark, the digest tool's rejected command lines, the suite's warning filters, ``python -m toepquant``, imports, where range and entry rules are stated and CSV tables written, config knobs, error types and the README's stream version.

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
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toepquant import STREAM_VERSION, cli, exceptions
from toepquant.bounds import evaluate_bounds
from toepquant.cli import build_parser
from toepquant.exceptions import InvalidArgumentError, NumericError, ToepquantError
from toepquant.experiments import _EXPERIMENTS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DIGESTS = ROOT / "tools" / "output_digests.py"
ERROR_TYPES = [v for v in vars(exceptions).values() if isinstance(v, type) and issubclass(v, BaseException)]


def load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_script("perfbench_tracing", TRACING)


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


FALSIFIED_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_falsified_property(x):
    assert x < 10


def test_after_it():
    pass
'''


def test_a_falsified_property_leaves_the_session_running(tmp_path):
    # under the suite's warnings-as-errors config, hypothesis's report of a falsifying
    # example once raised a DeprecationWarning in a pytest hook, an INTERNALERROR that ended the session
    (tmp_path / "test_two.py").write_text(FALSIFIED_THEN_PASSING)
    argv = ["-m", "pytest", "-v", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    done = subprocess.run([sys.executable, *argv, "test_two.py"], capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "test_two.py::test_after_it PASSED" in done.stdout, done.stdout[-2000:]
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout[-2000:]
    assert "1 failed, 1 passed" in done.stdout


def test_every_command_line_the_digest_tool_rejects_exits_2_or_3(tmp_path):
    # the tool digests these exits and messages; here each is held to the exit-code contract
    digests = load_script("output_digests", DIGESTS)
    for name, text in digests.BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    for argv in digests.REJECTED:
        code, err = digests.rejection([arg.replace("WORK", str(tmp_path)) for arg in argv])
        assert code in (2, 3) and "Traceback" not in err, (" ".join(argv)[:200], code, err)


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


# the words of a range rule, which only exceptions.require_integer, require_real and require_indices may state
RANGE_WORDS = (
    "must lie in", "must be finite and", "must be positive", "must be at least", "must be non-negative",
    "takes integers only",
)

# the checks that state a range inline, by how their messages start: values
# derived from the arguments, and the entries of arrays
INLINE_RANGES = ("||T||^2 ", "delta^2 ", "delta^4 ", "bounds not finite ", "the powers of modes ")


def message_text(node: ast.expr) -> str:
    """The text of a string or f-string literal, ``{}`` for each replacement field; "" for any other expression."""
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_every_scalar_range_is_stated_in_exceptions():
    messages = []
    for path in sorted((ROOT / "src" / "toepquant").glob("*.py")):
        if path.name == "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "InvalidArgumentError"
                and node.exc.args
            ):
                messages.append((f"{path.name}:{node.lineno}", message_text(node.exc.args[0])))
    inline = [
        f"{where} {text}" for where, text in messages
        if any(word in text for word in RANGE_WORDS) and not text.startswith(INLINE_RANGES)
    ]
    assert inline == []
    # every inline check listed still exists
    assert [p for p in INLINE_RANGES if not any(text.startswith(p) for _, text in messages)] == []


def sites(match) -> list[str]:
    """``module.Class.function`` of every node under ``src/`` that ``match`` accepts."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if match(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, f"{scope}.{child.name}" if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope)

    for path in sorted((ROOT / "src" / "toepquant").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def raise_sites(text: str) -> list[str]:
    """``module.Class.function`` of every ``raise`` under ``src/`` whose message is the literal ``text``."""
    return sites(
        lambda node: isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and bool(node.exc.args) and message_text(node.exc.args[0]) == text
    )


def test_matrix_entries_are_checked_only_where_a_matrix_is_built():
    # a SymToeplitz holds finite entries, so no reader of one checks them again
    assert raise_sites("matrix contains non-finite entries") == ["toeplitz.SymToeplitz.__post_init__"]


def test_every_csv_table_is_written_by_one_writer():
    # the CLI tables and the run files print their values alike because one function writes them all
    def builds_a_csv_writer(node: ast.AST) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in ("writer", "DictWriter")

    assert sites(builds_a_csv_writer) == ["experiments._write_dicts"]


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


def test_readme_examples_run(tmp_path, capsys):
    # every toepquant line under "Command line", continuations joined, and the
    # Python example of that section run and print a result
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (shell,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    (python,) = re.findall(r"```python\n(.*?)```", section, re.S)
    commands = [line for line in shell.replace("\\\n", " ").splitlines() if line.startswith("toepquant ")]
    assert len(commands) == 6
    samples = tmp_path / "samples.csv"
    np.savetxt(samples, np.random.default_rng(0).standard_normal((200, 16)), delimiter=",")
    for command in commands:
        argv = [str(samples) if arg == "samples.csv" else arg for arg in shlex.split(command)[1:]]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "results")
        assert cli.main(argv) == 0, command
        assert capsys.readouterr().out, command
    *body, last = ast.parse(python).body
    namespace: dict = {}
    exec(compile(ast.Module(body, []), "README.md", "exec"), namespace)
    rel_error, a = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    assert math.isfinite(rel_error) and a.shape == (16,) and np.all(np.isfinite(a))
