"""Every random draw of the package comes from the master seed: in
src/rollbound no code makes a generator but seeding.py, which makes each one
with derive_rng from (seed, label, index). The check reads the source: it
fails on a call of numpy's default_rng or RandomState, on a legacy
np.random function (a distribution or seed), on an import of the standard
library's random module, and on a Generator or PCG64 made outside
seeding.py."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rollbound"

#: numpy.random names that hold no hidden state: the seeded constructors
SEEDED = {"Generator", "PCG64", "SeedSequence"}

#: constructors of a bit generator or generator, allowed in seeding.py alone
CONSTRUCTORS = {"Generator", "PCG64"}


def _called_name(func: ast.expr) -> tuple[str | None, bool]:
    """The name a call's function is read by, and whether it is read as an
    attribute of a module named random (np.random.normal, numpy.random.seed)."""
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute):
        owner = func.value
        from_random = ((isinstance(owner, ast.Attribute) and owner.attr == "random")
                       or (isinstance(owner, ast.Name) and owner.id == "random"))
        return func.attr, from_random
    return None, False


def unseeded_draws(source: str, filename: str) -> list[str]:
    """Each line of the source that draws, or may draw, outside the seed
    streams, with its reason."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            found += [f"{line}: imports random" for alias in node.names
                      if alias.name == "random"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                found.append(f"{line}: imports from random")
            elif node.module == "numpy.random":
                found += [f"{line}: imports numpy.random.{alias.name}" for alias in node.names
                          if alias.name not in SEEDED]
        elif isinstance(node, ast.Call):
            name, from_random = _called_name(node.func)
            if name in ("default_rng", "RandomState"):
                found.append(f"{line}: calls {name}")
            elif from_random and name not in SEEDED:
                found.append(f"{line}: calls the legacy np.random.{name}")
            elif name in CONSTRUCTORS and filename != "seeding.py":
                found.append(f"{line}: makes a {name} outside seeding.py")
    return found


def test_every_generator_comes_from_the_seed():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unseeded_draws(path.read_text(encoding="utf-8"), path.name)
    assert found == []


@pytest.mark.parametrize("source, reason", [
    ("import numpy as np\ng = np.random.default_rng()", "calls default_rng"),
    ("from numpy.random import default_rng", "imports numpy.random.default_rng"),
    ("import numpy\nr = numpy.random.RandomState(3)", "calls RandomState"),
    ("import numpy as np\nx = np.random.normal(size=3)", "calls the legacy np.random.normal"),
    ("import numpy as np\nnp.random.seed(0)", "calls the legacy np.random.seed"),
    ("import random", "imports random"),
    ("from random import choice", "imports from random"),
    ("from numpy.random import PCG64, Generator\ng = Generator(PCG64(1))",
     "makes a Generator outside seeding.py"),
    ("import numpy as np\nb = np.random.PCG64(1)", "makes a PCG64 outside seeding.py"),
], ids=["default_rng", "import-default_rng", "RandomState", "legacy-dist", "legacy-seed",
        "import-random", "from-random", "Generator", "PCG64"])
def test_the_check_finds_each_unseeded_draw(source, reason):
    assert any(f.endswith(reason) for f in unseeded_draws(source, "worldsim.py")), reason


def test_seeding_alone_may_make_generators():
    source = "from numpy.random import PCG64, Generator\ng = Generator(PCG64(seq))"
    assert unseeded_draws(source, "seeding.py") == []
    assert unseeded_draws("from numpy.random import SeedSequence\nSeedSequence([1])",
                          "worldsim.py") == []
