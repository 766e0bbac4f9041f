import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_LIBRARY = sorted((_ROOT / "src" / "lovaszgap").glob("*.py"))


def _names(path: Path) -> set[str]:
    """Every name the module reads: a ``Name``, an ``Attribute`` or a string
    constant that is an identifier, such as the bindings the benchmark's
    tracer looks up by name.  An import alias is none of these, so a
    re-export does not count."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_library_definition_is_named_by_its_callers():
    # a function or class that neither the library, its scripts nor the
    # benchmark names is code that nothing calls; the tests do not count,
    # since a definition that only they call is a test helper
    callers = [
        *_LIBRARY,
        *(_ROOT / "scripts").glob("*.py"),
        *(
            path
            for path in (_ROOT / "perfbench").glob("*.py")
            if not path.name.startswith("test_")
        ),
    ]
    named = set().union(*map(_names, callers))
    defined = {
        node.name: path.name
        for path in _LIBRARY
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert {name: path for name, path in defined.items() if name not in named} == {}
