"""Every public class of the package is a value type or an exception: a
@dataclass(frozen=True), made and checked once and never changed after, or
a subclass of an exception class. Checked on the source, so that a class
with a hand-written __setattr__ or mutable state fails here, not in use."""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rollbound"


def _classes() -> dict[str, ast.ClassDef]:
    """Each top-level class of the package modules, by module.name."""
    return {f"{path.stem}.{node.name}": node
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "dataclass"
               and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is True for kw in dec.keywords)
               for dec in node.decorator_list)


def _exception_names(classes) -> set[str]:
    """The names of the package's exception classes: those with a built-in
    exception base, or one of the package's own exceptions, as a base."""
    names = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    grew = True
    while grew:
        found = {node.name for node in classes.values()
                 if any(isinstance(base, ast.Name) and base.id in names
                        for base in node.bases)}
        grew = not found <= names
        names |= found
    return names


def test_every_public_class_is_a_frozen_dataclass_or_an_exception():
    classes = _classes()
    exceptions = _exception_names(classes)
    public = {name: node for name, node in classes.items()
              if not node.name.startswith("_")}
    assert "core.Trajectory" in public and "errors.InvalidInput" in public
    mutable = sorted(name for name, node in public.items()
                     if not _is_frozen_dataclass(node) and node.name not in exceptions)
    assert mutable == [], f"public classes neither frozen dataclasses nor exceptions: {mutable}"
