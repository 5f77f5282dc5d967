import ast
import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import cozero
from cozero.cli import main

PUBLIC = {
    "wiener_brute",
    "wiener_quotient",
    "wiener_closed",
    "parse_ring_spec",
    "RingSpec",
    "integers_mod",
    "product_of_integers_mod",
    "product_of_fields",
    "WienerReport",
    "STATUS_VALUE",
    "STATUS_EMPTY",
    "STATUS_DISCONNECTED",
    "BruteForceLimitError",
    "FactorizationError",
}


def test_public_surface_is_the_routes_specs_report_and_errors():
    assert len(cozero.__all__) == len(PUBLIC)
    assert set(cozero.__all__) == PUBLIC
    for name in cozero.__all__:
        assert getattr(cozero, name) is not None, name


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "cozero").glob("*.py"))

# A backticked dotted name, optionally called: `cozero.quotient`,
# `groupbfs.group_wiener`, `QuotientGraph.rows`, `RingSpec.chains(i)`.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _modules() -> dict[str, object]:
    return {info.name: importlib.import_module(f"cozero.{info.name}") for info in pkgutil.iter_modules(cozero.__path__)}


def _classes(modules) -> dict[str, type]:
    """Every class defined in a cozero module, by name."""
    return {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }


def _resolve_names(text: str, where: str) -> int:
    """Check that every backticked `cozero.<module>...`, `<module>.<name>...` and
    `<Class>.<attr>...` of a cozero module in `text` resolves, and count them.

    Other dotted names, such as `spec.local_factors()` or `int.to_bytes`, are
    not the package's and are skipped.
    """
    modules = _modules()
    classes = _classes(modules)
    named = 0
    for dotted in DOTTED.findall(text):
        parts = dotted.split(".")
        if parts[0] == "cozero":
            target, rest = (modules[parts[1]], parts[2:]) if parts[1] in modules else (cozero, parts[1:])
        elif parts[0] in modules:
            target, rest = modules[parts[0]], parts[1:]
        elif parts[0] in classes:
            target, rest = classes[parts[0]], parts[1:]
        else:
            continue
        for attr in rest:
            # A dataclass field without a default is no class attribute.
            fields = {f.name for f in dataclasses.fields(target)} if dataclasses.is_dataclass(target) else ()
            assert hasattr(target, attr) or attr in fields, f"{where} names `{dotted}`, which does not resolve"
            target = getattr(target, attr, None)
        named += 1
    return named


def test_readme_names_resolve():
    # Prose that names a deleted or renamed module, function, class or
    # attribute fails here.
    assert _resolve_names(README.read_text(), "README.md") >= 8


def test_source_docstring_names_resolve():
    # The same check over every module of the package, docstrings and
    # comments alike.
    named = {path.name: _resolve_names(path.read_text(), path.name) for path in SOURCES}
    assert sum(named.values()) >= 20, named


def _fenced(heading: str, language: str) -> list[str]:
    """The lines of the first ```language block under README's `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    block = section.split(f"```{language}\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_readme_cli_examples_run_as_written(capsys):
    lines = [line for line in _fenced("CLI", "sh") if line.startswith("cozero ")]
    assert len(lines) == 11
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        for value in re.findall(r"\d+", comment):
            assert value in out, line


def test_readme_library_example_runs_as_written():
    namespace: dict[str, object] = {}
    checked = []
    for line in _fenced("Library", "python"):
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        # The comment's first item, up to a comma or a bar, is the value.
        expected = ast.literal_eval(re.split(r"[,|]", comment)[0].strip())
        assert eval(code, namespace) == expected, line
        checked.append(expected)
    assert checked == [2611, "value", 16, 14, 2954, 2611]
