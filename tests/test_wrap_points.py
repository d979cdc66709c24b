"""The benchmark's per-layer metrics time the program through named wrap
points (``perfbench/tracer.py``'s ``WRAP_POINTS``); a target that no longer
resolves is skipped and its layer silently reads 0. Every program target
must resolve, except the two whose modules the program retired."""

import importlib

from perfbench.tracer import WRAP_POINTS

RETIRED = ("crawler_service_ray.state.writers",
           "crawler_service_ray.state.metrics")


def test_program_wrap_points_resolve():
    targets = [t for _layer, t in WRAP_POINTS
               if t.startswith("crawler_service_ray.")
               and t.split(":")[0] not in RETIRED]
    assert targets
    missing = []
    for target in targets:
        mod_name, path = target.split(":")
        obj = importlib.import_module(mod_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(target)
    assert missing == []
