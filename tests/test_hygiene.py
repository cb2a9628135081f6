"""Checks on the package source and its README. All but the flag, default and
README-example checks are static and use only the standard library."""

import argparse
import ast
import dataclasses
import random
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
    """(lines naming scipy outside a function body, `function: line` for each
    naming it inside one, with the innermost function's name). An import of
    scipy or of a scipy submodule, a bare `scipy` name and a string that is a
    scipy module's dotted name count; prose that mentions scipy does not."""
    tree = ast.parse(source)

    def names_scipy(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "scipy" and node.level == 0
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return re.fullmatch(r"scipy(\.\w+)*", node.value) is not None
        return isinstance(node, ast.Name) and node.id == "scipy"

    enclosing = {}      # ast.walk goes outside in, so inner functions overwrite
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                enclosing[id(node)] = getattr(func, "name", "<lambda>")
    found = [node for node in ast.walk(tree) if names_scipy(node)]
    return ([f"line {n.lineno}" for n in found if id(n) not in enclosing],
            [f"{enclosing[id(n)]}: line {n.lineno}" for n in found if id(n) in enclosing])


def test_only_sparse_module_names_scipy_and_only_inside_a_function():
    """Only the sparse module's kernel loader names scipy."""
    for path in SOURCES:
        outside, inside = scipy_references(path.read_text(encoding="utf-8"))
        assert outside == [], path.name
        if path.name != "sparse.py":
            assert inside == [], path.name
    inside = scipy_references((SOURCES[0].parent / "sparse.py").read_text())[1]
    assert inside != [] and {ref.split(":")[0] for ref in inside} == {"_sparsetools"}


def test_check_finds_scipy_references():
    source = ("import scipy.sparse as sp\nfrom scipy.special import expit\n"
              "from .scipy import x\nimport numpy\n\n"
              "def view():\n    import scipy.sparse\n    return scipy.sparse\n\n"
              "def load():\n    \"\"\"scipy's kernels.\"\"\"\n"
              "    return find_spec('scipy'), lambda: 'scipy.sparse._sparsetools'\n")
    assert scipy_references(source) == (
        ["line 1", "line 2"],
        ["view: line 7", "view: line 8", "load: line 12", "<lambda>: line 12"])


def deferred_relative_imports(source: str) -> list[str]:
    """Lines holding a relative import (`from .x import y`) inside a function
    body. Such an import hides a cycle between the package's modules."""
    found = {node for func in ast.walk(ast.parse(source))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if isinstance(node, ast.ImportFrom) and node.level > 0}
    return [f"line {node.lineno}" for node in sorted(found, key=lambda node: node.lineno)]


def test_no_module_imports_a_sibling_inside_a_function():
    for path in SOURCES:
        assert deferred_relative_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_check_finds_deferred_relative_imports():
    source = ("from .a import x\nimport numpy\n\n"
              "def load():\n    import scipy.sparse\n    from .factor import ModelState\n"
              "    from os import path\n\n"
              "    def inner():\n        from .. import b\n    return inner\n")
    assert deferred_relative_imports(source) == ["line 6", "line 10"]


def csr_matrix_calls(sources: dict[str, str]) -> list[str]:
    """For each call `CsrMatrix(...)` in `sources` (module name → source) outside
    the sparse module, `module: name` of the top-level definition holding it
    (`<module>` at module level). Arrays passed to that call are not sorted or
    deduplicated: they must already be canonical."""
    found = []
    for module, source in sources.items():
        if module == "sparse":
            continue
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "CsrMatrix" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{module}: {getattr(top, 'name', '<module>')}")
    return found


def test_csr_matrices_are_built_only_by_sparse_and_the_cache_loaders():
    # every other CsrMatrix comes from from_coo, which sorts its entries, or
    # from a method of a matrix; the two loaders pass arrays read from disk,
    # which the build checks and refuses when they are not canonical
    assert csr_matrix_calls({path.stem: path.read_text(encoding="utf-8")
                             for path in SOURCES}) == ["cli: _load_cached_clicks",
                                                       "cli: _load_cached_docs"]


def test_check_finds_csr_matrix_calls():
    sources = {"sparse": "def build():\n    return CsrMatrix(1)\n",
               "a": "from .sparse import CsrMatrix\nEMPTY = CsrMatrix(0)\n\n"
                    "def helper():\n    def inner():\n        return sparse.CsrMatrix(2)\n"
                    "    return inner\n\n"
                    "def reader(m: CsrMatrix) -> CsrMatrix:\n    return isinstance(m, CsrMatrix)\n"}
    assert csr_matrix_calls(sources) == ["a: <module>", "a: helper"]


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


def library_usage_blocks(readme: str) -> list[str]:
    """The Python code blocks of the README's "Library usage" section."""
    section = readme.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    # the blocks share one namespace, as a reader running them in turn would
    blocks = library_usage_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) == 2
    draw = random.Random(7)
    words = [f"w{k}" for k in range(30)]
    (tmp_path / "ratings.txt").write_text("".join(
        f"u{u} i{i} {draw.randint(1, 5)}\n" for u in range(30) for i in range(20)
        if draw.random() < 0.4), encoding="utf-8")
    (tmp_path / "docs.txt").write_text("".join(
        f"i{i}\t{' '.join(draw.choices(words, k=8))}\n" for i in range(20)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(0 < float(rmse) < 5 for rmse in printed)


def test_library_usage_blocks_read_only_that_section():
    readme = ("## Library usage\n\n```python\na = 1\n```\n\nText.\n\n"
              "```python\nb = a\n```\n\n## Determinism\n\n```python\nc = 3\n```\n")
    assert library_usage_blocks("# T\n" + readme) == ["a = 1\n", "b = a\n"]
