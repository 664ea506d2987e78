"""DESIGN.md's module map (section 3) matches the package tree: it
names every module under ``src/repro``, and every module it names
exists."""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def _named_modules():
    """Module paths the map names, relative to ``src/repro``.

    A package is a two-space-indented ``name/`` line; its modules are
    the four-space-indented ``*.py`` lines below it.  A two-space
    ``*.py`` line is a top-level module (or a path written out in
    full).  Deeper lines continue a description.
    """
    text = (REPO / "DESIGN.md").read_text()
    block = re.search(r"^```\nsrc/repro/\n(.*?)^```$", text, re.M | re.S)
    assert block, "no src/repro/ module map in DESIGN.md"
    named, package = set(), ""
    for line in block.group(1).splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        token = line.split()[0]
        if indent == 2 and token.endswith("/"):
            package = token
        elif indent == 2 and token.endswith(".py"):
            named.add(token)
        elif indent == 4 and token.endswith(".py"):
            named.add(package + token)
    return named


def _modules():
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_module_map_names_every_module():
    missing = _modules() - _named_modules()
    assert not missing, f"modules missing from DESIGN.md: {sorted(missing)}"


def test_module_map_names_only_existing_modules():
    stale = _named_modules() - _modules()
    assert not stale, f"DESIGN.md names missing modules: {sorted(stale)}"
