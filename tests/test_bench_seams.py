"""The benchmark's traced run wraps dalvq functions by (module, name).

``perfbench/traced_run.py`` looks each name up with ``vars(owner)[attr]``, so
a refactor that drops or renames one fails every traced benchmark run. This
calls its ``install_layers`` with a tracer that only records, and checks that
every wrapped name exists where it is looked up.
"""

import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


class RecordingTracer:
    def __init__(self):
        self.seams = []

    def install(self, owner, attr, name, counted=False, tally=None):
        self.seams.append((owner, attr, name))


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)   # traced_run imports its tracer module
    spec = importlib.util.spec_from_file_location("traced_run",
                                                  os.path.join(PERFBENCH, "traced_run.py"))
    traced_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_run)
    tracer = RecordingTracer()
    traced_run.install_layers(tracer)
    assert len(tracer.seams) > 10
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name in tracer.seams if not callable(vars(owner).get(attr))]
    assert not missing
