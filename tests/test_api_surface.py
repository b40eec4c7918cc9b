"""Every public top-level function and class of the package has a caller in
the program: its name is loaded, as a name or an attribute, somewhere in
src/rollbound or bench/, its own module included. A definition or an import
does not count, nor does the package's __init__.py, a test file, or a string
such as the bench tracer's target list. The allowlist names the exceptions,
each with its reason, and can only shrink: an allowlisted name that gains a
caller fails too, so that it is taken off the list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rollbound"

#: public names with no caller in the program yet, and why they stay
ALLOWED_UNCALLED = {
    "slerp": "the planned pose files of simulate (camera adherence in the toy) call it",
    "rotation_about_z": "the planned pose files of simulate (camera adherence in the toy) "
                        "call it",
    "save_trajectory": "the planned pose files of simulate (camera adherence in the toy) "
                       "call it",
    "bridge_mean": "a closed form of the error theory, checked by its oracle",
    "leakage_peak": "a closed form of the error theory, checked by its oracle",
    "discrete_spline_minimizer": "the numerical oracle of solve_damping_spline",
    "simulate_bridge_paths": "the Monte-Carlo oracle of the bridge statistics",
    "rollout_pure_ar": "a bench tracer target; goes with the single-trial wrappers once "
                       "ablate runs on the Monte-Carlo engine",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions() -> dict[str, str]:
    """Each public top-level function and class, with its module."""
    defined = {}
    for path in _modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
    return defined


def _loaded_names() -> set[str]:
    """Every name read, as a name or an attribute, in the package modules
    and the bench code."""
    sources = _modules() + sorted(p for p in (ROOT / "bench").glob("*.py")
                                  if not p.name.startswith("test_"))
    loaded = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_caller_or_a_reason():
    defined = _public_definitions()
    loaded = _loaded_names()
    uncalled = {name for name in defined if name not in loaded}
    unexplained = sorted(f"{defined[name]}.{name}" for name in uncalled - ALLOWED_UNCALLED.keys())
    assert not unexplained, f"public names with no caller in src/ or bench/: {unexplained}"
    stale = sorted(ALLOWED_UNCALLED.keys() - uncalled)
    assert not stale, f"allowlisted names that now have a caller or are gone: {stale}"
