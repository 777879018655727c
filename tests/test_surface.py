"""Every public name has a user: the package's own modules, a demo or the
README read it, the acceptance suite imports it, or it is one of the
paper's objects on the list below."""

import ast
import re
import symtable
from pathlib import Path

import mixedrandic

ROOT = Path(__file__).resolve().parent.parent

#: The paper's objects that only the tests call; each stays public.
PAPER_OBJECTS = {
    "hermitian_adjacency",       # H, the sixth-root Hermitian adjacency matrix
    "laplacian",                 # D - H, whose normalized form is I - R
    "serialize_graph",           # the mixedgraph v1 text of a graph
    "is_positive",               # positivity: every cycle gain is 1
    "are_switching_equivalent",  # switching equivalence of two gain views
}


def read_names(source: str) -> set[str]:
    """The module-level names a Python source reads, from any scope, and
    every attribute name it reads."""
    names = {node.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute)}
    tables = [symtable.symtable(source, "<source>", "exec")]
    while tables:
        table = tables.pop()
        names |= {s.get_name() for s in table.get_symbols() if s.is_referenced()
                  and (table.get_type() == "module" or s.is_global())}
        tables += table.get_children()
    return names


def used_names() -> set[str]:
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "mixedrandic").glob("*.py"))
               + sorted((ROOT / "demos").glob("*.py"))
               if p.name != "__init__.py"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    names = set().union(*map(read_names, sources))
    # a name the README writes as code
    names |= set(re.findall(r"`([A-Za-z_]\w*)", readme))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8"))
    names |= {alias.name for node in ast.walk(acceptance)
              if isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("mixedrandic")
              for alias in node.names}
    return names


def test_every_public_name_has_a_user():
    orphans = sorted(set(mixedrandic.__all__) - used_names() - PAPER_OBJECTS)
    assert not orphans, f"public names nothing uses: {', '.join(orphans)}"


def test_paper_objects_are_public():
    assert PAPER_OBJECTS <= set(mixedrandic.__all__)


def test_read_names_ignores_definitions_locals_and_docstrings():
    source = ('"""orphan"""\nfrom m import used, unused\n'
              'def orphan(arc):\n    arc = 1\n    return used(arc).attr\n')
    assert read_names(source) == {"used", "attr"}


def test_no_module_imports_dataclasses():
    # every command pays for the package's class definitions at import, and
    # a dataclass decorator costs about 0.6 ms of that where a record costs
    # tens of microseconds
    importers = []
    for path in sorted((ROOT / "src" / "mixedrandic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, f"dataclasses imported at {', '.join(importers)}"
