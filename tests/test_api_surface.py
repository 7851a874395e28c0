"""Guard against library surface that only the tests reach.

Every public function, class, method and property defined in
``src/handguard`` must be referenced somewhere in ``src/`` other than its
own definition, by an ``ast.Name`` or an ``ast.Attribute``.  Names in a
module's ``__all__`` count as referenced: they are the package's declared
entry points.  The match is by bare name, so it finds a dead name only
when no other definition shares it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "handguard"

# name -> why it stays although nothing in src/ calls it
ALLOWED = {
    "hand_in_robot_base": "acceptance gate C5 checks the transform chain through it",
    "as_matrix": "acceptance gate C5 compares 4x4 matrices through it",
    "synthesize_observation": "acceptance gate C6 builds its observations with it",
    "rotation_from_axis_angle": "acceptance gates C5 and C6 draw their rotations with it",
    "estimate_pose": "acceptance gate C6 estimates poses through it",
    "recognition_ranking": "the default-pattern test ranks the volar matrix through it",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public module-level functions and classes,
    and of the public methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _referenced_names(node: ast.AST) -> list:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and not isinstance(n.ctx, ast.Store)
    ]


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced_definitions(src: Path = SRC) -> list:
    """Sorted `module.name` of public definitions nothing else in src references."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    counts = {}
    exported = set()
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
        exported |= _exported(tree)
    dead = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            own = _referenced_names(node).count(node.name)
            if counts.get(node.name, 0) == own and node.name not in exported:
                dead.append(f"{module}.{qualname}")
    return sorted(dead)


def test_every_public_definition_is_used_in_src():
    dead = [d for d in unreferenced_definitions() if d.rsplit(".", 1)[1] not in ALLOWED]
    assert dead == [], f"defined in src/handguard but referenced only outside src: {dead}"


def test_allow_list_names_exist_and_are_unused_in_src():
    # an entry whose name gained a caller, or lost its definition, must go
    dead = {d.rsplit(".", 1)[1] for d in unreferenced_definitions()}
    assert set(ALLOWED) <= dead


def test_scan_sees_a_test_only_function(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def only_tests():\n    return only_tests\n\n"
        "class C:\n    def m(self):\n        return used()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["m.C", "m.C.m", "m.only_tests"]
