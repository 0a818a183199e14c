"""Every method perfbench's traced run wraps is still defined.

``perfbench/instrument.py``'s ``TARGETS`` names ``repro`` methods by
module, class and attribute, and ``Patcher.wrap`` reads each one from
the class ``__dict__`` (an inherited attribute would be restored onto
the wrong class).  A renamed or moved method would otherwise surface
only as a ``KeyError`` in ``python3 -m perfbench --trace``.
"""

import importlib

import pytest

from perfbench.instrument import TARGETS


@pytest.mark.parametrize(
    "target", TARGETS,
    ids=[f"{t.module}.{t.cls}.{t.attr}" for t in TARGETS])
def test_traced_method_is_defined_on_its_class(target):
    module = importlib.import_module(target.module)
    cls = getattr(module, target.cls, None)
    assert isinstance(cls, type), f"{target.module} has no class {target.cls}"
    assert target.attr in cls.__dict__, \
        f"{target.cls}.{target.attr} is not defined on the class itself"
