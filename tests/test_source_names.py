"""Every function, class and non-dunder method in src/qgen is referenced by
name from src/qgen itself, apart from an allowlist with a reason per name.
A helper only tests call belongs in tests/, not in the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qgen"

# Names src/qgen does not reference, and why each stays.
ALLOWED = {
    "softmax_rows": "a perfbench trace site (perfbench/layers.py)",
    "concat_last": "a perfbench trace site (perfbench/layers.py)",
    "greedy_decode": "a perfbench trace site (perfbench/layers.py)",
    "question_distance": "perfbench/test_corpus.py imports it",
    "teacher_forced_accuracy": "ROADMAP item 6 puts it on the training path",
    "load_checkpoint": "ROADMAP item 7 puts it on the resume path",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions_and_references():
    """{name: "file:line"} of each top-level function or class and each
    non-dunder method, and the set of names any src/qgen module reads, as a
    bare name or as an attribute."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, kinds) and (item is node or not _is_dunder(item.name)):
                    defined.setdefault(item.name, f"{path.name}:{item.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_no_unreferenced_names_in_src():
    defined, referenced = definitions_and_references()
    dead = {name: where for name, where in defined.items()
            if name not in referenced and name not in ALLOWED}
    assert dead == {}


def test_no_stale_allowlist_entry():
    """An allowed name that src/qgen dropped or now references leaves the list."""
    defined, referenced = definitions_and_references()
    stale = {name for name in ALLOWED if name not in defined or name in referenced}
    assert stale == set()
