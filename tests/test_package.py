"""The package namespace: lazy, complete, and the submodules' own objects.

Each check runs in a fresh interpreter, since the test run itself has long
since loaded every submodule.
"""

import os
import subprocess
import sys
from pathlib import Path

import crucialis

SUBMODULES = ("_native", "cli", "constructions", "cruciality", "errors", "powers", "search", "words")


def fresh(script: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(crucialis.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bare_import_loads_no_submodule():
    out = fresh(
        "import sys, crucialis\n"
        "print(*sorted(m for m in sys.modules if m.startswith('crucialis.')))\n"
    )
    assert out == [""]


def test_every_public_name_is_the_defining_submodules_object():
    # a class, function or Word constant names the module that defines it;
    # a plain constant must at least be some submodule's very object
    out = fresh(
        "import importlib, crucialis\n"
        "values = {name: getattr(crucialis, name) for name in crucialis.__all__}\n"
        f"modules = [importlib.import_module(f'crucialis.{{m}}') for m in {SUBMODULES!r}]\n"
        "for name, value in values.items():\n"
        "    homes = [m.__name__ for m in modules if getattr(m, name, None) is value]\n"
        "    defined_in = getattr(value, '__module__', None)\n"
        "    if isinstance(defined_in, str) and defined_in.startswith('crucialis.'):\n"
        "        print(name, defined_in in homes)\n"
        "    else:\n"
        "        print(name, bool(homes))\n"
    )
    assert len(out) == len(crucialis.__all__) == 53
    assert [line for line in out if not line.endswith(" True")] == []


def test_star_import_binds_every_public_name():
    out = fresh(
        "from crucialis import *\n"
        "import crucialis\n"
        "print(sum(name in globals() for name in crucialis.__all__))\n"
    )
    assert out == ["53"]


def test_dir_lists_public_names_and_submodules():
    out = fresh(
        "import crucialis\n"
        "listed = set(dir(crucialis))\n"
        f"print(set(crucialis.__all__) <= listed, set({SUBMODULES!r}) <= listed)\n"
    )
    assert out == ["True True"]


def test_submodules_resolve_after_a_bare_import():
    out = fresh(
        "import sys, crucialis\n"
        f"for name in {SUBMODULES!r}:\n"
        "    print(getattr(crucialis, name) is sys.modules[f'crucialis.{name}'])\n"
        "print(crucialis.search.search_minimal is crucialis.search_minimal)\n"
    )
    assert out == ["True"] * (len(SUBMODULES) + 1)


def test_unknown_name_raises_attribute_error():
    out = fresh(
        "import crucialis\n"
        "try:\n"
        "    crucialis.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert out == ["module 'crucialis' has no attribute 'no_such_name'"]
