"""Dead-code guard: every top-level function and class in the package,
and every method, is used somewhere in the package itself.

A function or class counts as used when it is loaded as a bare name or
as an attribute anywhere in ``src/invflight`` outside its own
definition; a method counts only through an attribute access, since a
local variable of the same name does not call it. Re-exports and
``__all__`` entries do not count. Names that are kept on
purpose without a caller in the package are listed below with the
reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "invflight"

EXEMPT = {
    "dynamics.sideslip_rate":
        "undifferentiated lateral balance, kept as a residual relation "
        "(ROADMAP item 6(a)) for the run report (item 5)",
    "dynamics.aoa_rate":
        "undifferentiated normal balance, kept as a residual relation "
        "(ROADMAP item 6(a)) for the run report (item 5)",
    "errors.ConfigError.codes":
        "public API of the typed input error: the violation codes a "
        "library caller checks",
}


def _definitions(module, tree):
    """(qualified name, node, is a method) of every definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")):
                        yield f"{module}.{node.name}.{sub.name}", sub, True


def _uses(node, attributes_only=False):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif (not attributes_only and isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)):
            yield n.id


def _unused():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    total, attributes = Counter(), Counter()
    for tree in trees.values():
        total.update(_uses(tree))
        attributes.update(_uses(tree, attributes_only=True))
    unused = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(module, tree):
            uses = attributes if method else total
            own = Counter(_uses(node, attributes_only=method))
            if uses[node.name] - own[node.name] <= 0:
                unused.append(qualname)
    return unused


def test_every_definition_is_used_in_the_package():
    unused = [q for q in _unused() if q not in EXEMPT]
    assert unused == [], f"defined but never used in src: {unused}"


def test_exemptions_are_current():
    # an exemption whose name is gone or now used must be dropped
    assert sorted(_unused()) == sorted(EXEMPT)
