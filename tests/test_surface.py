"""Every top-level name in `src/qcas` is reached by the program itself, and
every name a `src/qcas` module imports is used in that module.

A function, class or constant defined at the top of a `src/qcas` module, and
each non-dunder method of such a class, must be used somewhere in `src/qcas`
or `perfbench` outside its own definition:
as a `Name`, as an `Attribute` or as an imported alias.  Tests do not count,
so code that only its own tests reach fails here; oracles belong in
`tests/reference.py`.  A name an import binds in a module, at any depth, must
be read as a `Name` somewhere in that module.  The few names that stay for
another reason are allow-listed below with that reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "qcas").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "tasks.baseline_circuit": "the paper's hand-designed baseline encoder, checked by criterion 9",
}

IMPORTS_ALLOWED = {
    "tasks.metrics": "perfbench/tracing.py wraps tasks.metrics, a tracer site",
    "tasks.eval_soft_constraint": "perfbench/tracing.py wraps tasks.eval_soft_constraint, "
                                  "a tracer site",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def top_level_definitions(tree):
    """(label, name, node) for each top-level function, class and assigned
    name, and for each non-dunder method of a top-level class, labelled
    `Class.method`."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def used_names(tree, skip):
    """Names used in `tree` as a Name, an Attribute or an imported alias,
    outside the node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
            if node.asname:
                found.add(node.asname)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    everywhere = {path: used_names(tree, None) for path, tree in trees.items()}
    missing = []
    for path, tree in trees.items():
        if path.parent.name != "qcas":
            continue
        for label, name, node in top_level_definitions(tree):
            elsewhere = any(name in names for other, names in everywhere.items()
                            if other != path)
            if not elsewhere and name not in used_names(tree, node):
                missing.append(f"{path.stem}.{label}")
    return missing


def test_every_top_level_name_is_reached_by_the_program():
    missing = [name for name in unreached() if name not in ALLOWED]
    assert not missing, f"only tests reach {missing}; move oracles to tests/reference.py"


def test_allow_list_is_current():
    assert set(ALLOWED) <= set(unreached()), "an allow-listed name is now reached"


def unused_imports():
    """`module.name` for each name an import binds in a `src/qcas` module that
    the module never reads; `from __future__` imports bind no name."""
    unused = []
    for path in PROGRAM:
        if path.parent.name != "qcas":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unused


def test_every_imported_name_is_used():
    unused = [name for name in unused_imports() if name not in IMPORTS_ALLOWED]
    assert not unused, f"imported but never used: {unused}"


def test_import_allow_list_is_current():
    assert set(IMPORTS_ALLOWED) <= set(unused_imports()), "an allow-listed import is now used"
