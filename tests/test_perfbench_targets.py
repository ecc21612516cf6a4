"""The traced benchmark wraps package functions by name; each name must still exist.

``perfbench/tracing.py`` is read and executed here without being imported
as a module, so no bytecode is written next to it.
"""

import importlib
import os
import types

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing_targets():
    with open(TRACING) as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    exec(compile(source, TRACING, "exec"), module.__dict__)
    return module._TARGETS


def test_every_traced_target_resolves():
    missing = []
    for _layer, modname, clsname, attr, _kind in _tracing_targets():
        owner = importlib.import_module(modname)
        if clsname is not None:
            found = attr in getattr(owner, clsname).__dict__
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"
