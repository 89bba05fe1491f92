"""The README's library quickstart runs as written and gives the values
its comments state, its command line section names every flag, and every
module attribute it names exists; every cross-reference in the package's
docstrings resolves."""

import ast
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import multinumbers
from multinumbers.cli import COMMANDS

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The text of the README section headed ``## title``."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n")[1].split("\n## ")[0]


def quickstart_lines() -> list[str]:
    """The lines of the one Python block in the "Library quickstart" section."""
    (block,) = re.findall(r"```python\n(.*?)```", section("Library quickstart"), re.S)
    return block.splitlines()


def test_the_library_quickstart_gives_its_commented_values():
    lines = quickstart_lines()
    namespace = {}
    exec("\n".join(lines), namespace)
    stated, exact = [], []  # (call, the value its comment states); the prob_* calls
    for line in lines:
        code, _, comment = (part.strip() for part in line.partition("#"))
        value = re.match(r"Fraction\(-?\d+, \d+\)", comment)
        if value:
            stated.append((code, value[0]))
        elif re.match(r"prob_\w+\(", code):
            exact.append(code)
    assert [value for _, value in stated] == ["Fraction(1, 6)", "Fraction(3, 1)", "Fraction(1, 4)"]
    for code, value in stated:
        assert repr(eval(code, namespace)) == value, code
    assert len(exact) == 2
    for code in exact:
        assert type(eval(code, namespace)) is Fraction, code
    assert len(namespace["reports"]) == 511


def test_the_command_line_section_names_exactly_the_flags_of_the_table():
    flags = {flag for command in COMMANDS.values() for flag in command.flags}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section("Command line")))
    # the section shows abbreviations, such as --ord, which are not flags
    abbreviations = {name for name in named if any(f.startswith(name) for f in flags - {name})}
    assert named - abbreviations == flags


def test_every_module_attribute_the_readme_names_exists():
    modules = [m.name for m in pkgutil.iter_modules(multinumbers.__path__)]
    reference = re.compile(rf"(?<![\w.])({'|'.join(modules)})\.(\w+)")
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    # ``multi.py`` names a file, not an attribute
    named = {ref for span in spans for ref in reference.findall(span) if ref[1] != "py"}
    assert len(named) >= 10
    missing = [
        f"{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"multinumbers.{module}"), name)
    ]
    assert not missing


def test_every_docstring_cross_reference_resolves():
    # a reference such as :func:`_row` or :func:`series._compose` names an
    # attribute of its own module or of the package module it starts with
    role = re.compile(r":(?:func|attr|meth|data|class):`([\w.]+)`")
    modules = {m.name for m in pkgutil.iter_modules(multinumbers.__path__)}

    def resolves(start, path: list[str]) -> bool:
        value = start
        for name in path:
            if not hasattr(value, name):
                return False
            value = getattr(value, name)
        return True

    checked, missing = 0, []
    for path in sorted(Path(multinumbers.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"multinumbers.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for ref in role.findall(ast.get_docstring(node) or ""):
                head, *rest = ref.split(".")
                checked += 1
                if not resolves(module, [head, *rest]) and not (
                    head in modules
                    and resolves(importlib.import_module(f"multinumbers.{head}"), rest)
                ):
                    missing.append(f"{path.name}: {ref}")
    assert checked >= 40
    assert not missing
