"""Checks on the package source and its README. All but the flag and default
checks are static and use only the standard library."""

import argparse
import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cofactor").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read. `__init__.py` is skipped by the
    caller: its imports are the package's exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "from typing import IO\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["line 1: IO", "line 3: b"]


def referenced_names(node: ast.AST) -> Counter:
    """How often each name appears as a bare name, an attribute or an imported name."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                   else n.name.rpartition(".")[2] for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes of `sources` (module name →
    source) that no code in any of them refers to outside their own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = sum(map(referenced_names, trees.values()), Counter())
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and references[node.name] == referenced_names(node)[node.name]]


def test_every_private_definition_is_used():
    assert unused_private_definitions(
        {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}) == []


def test_check_finds_an_unused_private_definition():
    sources = {"a": "def _used():\n    pass\n\ndef _unused():\n    pass\n\n"
                    "def _recursive():\n    return _recursive()\n\nclass _Orphan:\n    pass\n",
               "b": "from .a import _used\n_used()\n"}
    assert unused_private_definitions(sources) == ["a: _unused", "a: _recursive", "a: _Orphan"]


def unnamed_public_definitions(sources: dict[str, str], readme: str) -> list[str]:
    """Public top-level functions and public methods of `sources` (module name →
    source) that no module but `__init__` refers to outside their own body and
    that `readme` does not name: public surface that only tests could call."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = sum((referenced_names(tree) for module, tree in trees.items()
                      if module != "__init__"), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and references[fn.name] == referenced_names(fn)[fn.name]
                        and not re.search(rf"\b{fn.name}\b", readme)):
                    found.append(f"{module}: {fn.name}")
    return found


def test_every_public_definition_is_used_or_documented():
    assert unnamed_public_definitions(
        {path.stem: path.read_text(encoding="utf-8") for path in SOURCES},
        (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_check_finds_an_unnamed_public_definition():
    sources = {"a": "def used():\n    pass\n\ndef documented():\n    pass\n\n"
                    "def orphan():\n    return orphan()\n\n"
                    "class Box:\n    def size(self):\n        pass\n\n"
                    "    def _hidden(self):\n        pass\n",
               "b": "from .a import used\nused()\n",
               "__init__": "from .a import orphan, used\n"}
    assert unnamed_public_definitions(sources, "Call `documented()`.") == [
        "a: orphan", "a: size"]


def scipy_references(source: str) -> tuple[list[str], list[str]]:
    """(lines naming scipy outside a function body, lines naming it inside one).
    An import of scipy or of a scipy submodule and a bare `scipy` name count."""
    tree = ast.parse(source)

    def names_scipy(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "scipy" and node.level == 0
        return isinstance(node, ast.Name) and node.id == "scipy"

    in_functions = {id(node) for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for node in ast.walk(func)}
    found = [node for node in ast.walk(tree) if names_scipy(node)]
    return ([f"line {n.lineno}" for n in found if id(n) not in in_functions],
            [f"line {n.lineno}" for n in found if id(n) in in_functions])


def test_only_sparse_module_names_scipy_and_only_inside_a_function():
    for path in SOURCES:
        outside, inside = scipy_references(path.read_text(encoding="utf-8"))
        assert outside == [], path.name
        if path.name != "sparse.py":
            assert inside == [], path.name
    assert scipy_references((SOURCES[0].parent / "sparse.py").read_text())[1] != []


def test_check_finds_scipy_references():
    source = ("import scipy.sparse as sp\nfrom scipy.special import expit\n"
              "from .scipy import x\nimport numpy\n\n"
              "def view():\n    import scipy.sparse\n    return scipy.sparse\n")
    assert scipy_references(source) == (["line 1", "line 2"], ["line 7", "line 8"])


def readme_flags(readme: str) -> set[str]:
    """The flags named in the README paragraph that starts with `Flags:`."""
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Flags:"))
    return set(re.findall(r"`(--[\w-]+)", paragraph))


def test_readme_lists_every_cli_flag():
    from cofactor.cli import build_parser
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    flags = {option for command in commands.values() for action in command._actions
             if not isinstance(action, argparse._HelpAction)
             for option in action.option_strings}
    assert readme_flags((ROOT / "README.md").read_text(encoding="utf-8")) == flags


def test_check_reads_the_flags_paragraph():
    readme = "Run `--not-a-flag`.\n\nFlags: `--config PATH`, `--mode in|out`,\n`--dry-run`.\n\nMore."
    assert readme_flags(readme) == {"--config", "--mode", "--dry-run"}


def test_cli_defaults_equal_the_library_defaults():
    # each default is written twice: in the CLI's config and in the dataclass
    from cofactor.cli import DEFAULT_CONFIG
    from cofactor.factor import Hyperparams
    from cofactor.sdae import SdaeConfig
    hyper = dataclasses.asdict(Hyperparams())
    del hyper["sdae"], hyper["seed"]    # set by the text section and the top-level seed
    assert DEFAULT_CONFIG["hyper"] == hyper
    sdae = {f.name: f.default for f in dataclasses.fields(SdaeConfig)
            if f.default is not dataclasses.MISSING}
    text = DEFAULT_CONFIG["text"]
    assert sdae == {key: text[key] for key in ("noise_rate", "pretrain_epochs", "learning_rate")}
