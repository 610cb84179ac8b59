"""The benchmark's workloads, loaded read-only from ``perfbench/workloads.py``."""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load()
