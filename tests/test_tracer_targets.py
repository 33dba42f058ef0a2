"""Every layer the bench tracer wraps still exists on the package.

``perfbench/tracer.py`` names its targets by module and attribute path, so a
rename in ``nhdm`` would silently break ``perfbench/run.py --trace 1``.  The
tracer source is read and run with ``exec``, so no bytecode is written next
to it.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_target_resolves():
    targets = tracer_targets()
    assert targets
    for span, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), span
