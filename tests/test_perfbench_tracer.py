"""The benchmark's tracer (perfbench/tracing.py) still installs over the
program and leaves it as it found it.

The tracer patches functions of `bicomplex` by name, so removing or
renaming one of them must go together with a change to the tracer; this
smoke test fails first.  It reads perfbench/ and asserts nothing about
span names, which belong to the benchmark.
"""

import importlib
import sys
from pathlib import Path

from bicomplex import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RUNS = (
    ["fss", "catalog:heisenberg3-invariant", "--filtration", "both", "--format", "machine"],
    ["classify", "catalog:heisenberg3-invariant", "--format", "machine"],
)


def _bindings() -> dict:
    """Every attribute of every bicomplex module and of the classes they define."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "bicomplex" or key.startswith("bicomplex.")):
            continue
        for attr, value in vars(module).items():
            out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                out.update({(key, attr, a): v for a, v in vars(value).items()})
    return out


def _outputs(capsys) -> list[tuple[int, str]]:
    outputs = []
    for argv in RUNS:
        code = cli.main(argv)  # looked up here, so a traced main runs
        outputs.append((code, capsys.readouterr().out))
    return outputs


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    plain = _outputs(capsys)
    assert all(code == 0 for code, _ in plain)

    tracer = tracing.Tracer()
    before = _bindings()
    try:
        tracer.install()
        assert _bindings() != before  # something is traced
        traced = _outputs(capsys)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _bindings() == before
