"""What each entry point loads: the package binds its names on first use, and
each CLI subcommand loads only the library modules it needs.

Every call runs in a fresh interpreter, since an in-process run (the golden
grid) loads modules cumulatively and would hide a handler that forgot its
own import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpforms

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = {"curves", "errors", "galois", "lattice", "riemann_roch", "sections", "verdicts",
           "verification"}
# the CLI module itself loads errors and lattice (its parser reads KINDS)
BASE = {"errors", "lattice"}
# runs argv through dpforms.cli.run, then prints [exit code, loaded dpforms.* modules]
CHILD = ("import contextlib, io, json, sys; from dpforms.cli import run\n"
         "with contextlib.redirect_stdout(io.StringIO()): code = run(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith('dpforms.'))]))")
INSTANCE = {"model": {"m": 2, "n": 6, "kind": "plane"}, "curves": "auto",
            "galois": [[7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6]], "q_point": "no"}


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv, modules", [
    (["lattice", "--m", "3", "--n", "7"], set()),
    (["classify", "--m", "3", "--n", "7", "--ell", "4"], {"verdicts"}),
    (["rr", "--m", "3", "--n", "7", "--max-j", "4", "--embedding"], {"riemann_roch"}),
    (["curves", "--m", "3", "--n", "4"], {"curves"}),
    (["sections", "ci", "--h", "1,0,0,0,0,0,1"], {"sections"}),
    (["sections", "lines", "--a", "1,0,0,0,1", "--b", "1,0,1"], {"sections"}),
    (["ell", "--instance", "<instance>"], {"curves", "galois", "verdicts"}),
    (["verify"], LIBRARY),
], ids=["lattice", "classify", "rr", "curves", "sections-ci", "sections-lines", "ell", "verify"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    instance = tmp_path / "swap.json"
    instance.write_text(json.dumps(INSTANCE), encoding="utf-8")
    argv = [str(instance) if arg == "<instance>" else arg for arg in argv]
    code, loaded = json.loads(_python("-c", CHILD, *argv))
    assert code == 0
    assert set(loaded) == {"cli"} | BASE | modules


def test_import_loads_no_library_module_until_a_name_is_used():
    code = ("import sys, dpforms\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('dpforms.'))\n"
            "assert loaded() == [], loaded()\n"
            "dpforms.classify\n"
            "assert loaded() == ['dpforms.errors', 'dpforms.lattice', 'dpforms.verdicts'], loaded()")
    _python("-c", code)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from dpforms import *", namespace)
    assert set(dpforms.__all__) <= namespace.keys()
    for name in dpforms.__all__:
        assert namespace[name] is getattr(dpforms, name)
    assert set(dpforms.__all__) <= set(dir(dpforms))
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        dpforms.nonsense


def test_the_package_keeps_no_stale_binding(monkeypatch):
    # a name is read from its module on each use, so a rebinding there (a
    # monkeypatch, or a tracing wrapper) shows through and is undone with it
    from dpforms import verdicts

    original = verdicts.classify
    monkeypatch.setattr(verdicts, "classify", lambda *args, **kwargs: None)
    assert dpforms.classify is verdicts.classify is not original
    monkeypatch.undo()
    assert dpforms.classify is original


def test_each_factory_is_its_constructor():
    # one front door per input: the factory names bind the validating constructors
    assert dpforms.build_model is dpforms.SurfaceModel
    assert dpforms.poly is dpforms.UnivariatePoly
    assert dpforms.binary_form is dpforms.BinaryForm
