"""Every function, class and method of the package has a caller in the
package, or the benchmark's span table names it: no code lives under
``src/`` for the tests alone.

The test reads the source files and ``perfbench/spans.py`` as text and
imports neither. ``fixtures.py`` builds test and benchmark corpora, so its
own definitions are not checked; its calls into the package count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothclap"
SPANS = ROOT / "perfbench" / "spans.py"


def parse_package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def loaded_names(trees) -> set[str]:
    """Every name the package reads, bare or as an attribute."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def span_table_names() -> set[str]:
    """The attribute of each row of the SPANNED and COUNTED tables, which the
    benchmark looks up by name."""
    names = set()
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
            for target in node.targets
        ):
            names.update(ast.literal_eval(row.elts[1]) for row in node.value.elts)
    return names


def definitions(trees):
    """(dotted name, name) of each top-level function and class, and of each
    method, outside fixtures.py."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        if module == "fixtures":
            continue
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_in_the_package_or_a_span():
    trees = parse_package()
    called = loaded_names(trees) | span_table_names()
    uncalled = [
        dotted
        for dotted, name in definitions(trees)
        if name not in called
        # main finds each subcommand's handler by name
        and not name.startswith("cmd_")
        # Python calls these itself
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert uncalled == [], "no caller under src/ and no row in perfbench/spans.py"
