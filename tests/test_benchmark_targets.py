"""The benchmark's per-layer targets name functions the package still has.

perfbench's tracer reports a traced name the package no longer has as
absent, with the value 0, so a rename or a deletion would zero a
per-layer metric without failing anything; this test fails instead.
"""

import functools
import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_every_tracer_target_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module, path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        try:
            fn = functools.reduce(getattr, path.split("."), owner)
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        assert callable(fn), f"{module}.{path}"
    assert not missing, f"traced names absent from the package: {missing}"
