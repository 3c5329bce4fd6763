"""The layer spans of ``perfbench/spans.py`` still bind to the program.

``perfbench/run.py --trace 1`` patches module attributes by name; a rename
in the package would make ``install`` fail or leave a span silent.  This
runs the real hooks on two small jobs and checks the call counts.
"""

import contextlib
import importlib.util
import io

from conftest import DATA, REPO

from fracmirror import cli, topology


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_record_each_stage_once_per_job():
    spans = _load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for command in ("bseries", "all"):
            config = cli.JobConfig(command=command, input=str(DATA / "p2_k3.json"), N=4, fmt="json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.run(config) == 0
    finally:
        undo()
    assert cli.euler_double_cover is topology.euler_double_cover
    assert tracer.calls["cohom.deformed_solution"] == 1
    assert tracer.calls["topology.euler_double_cover"] == 1
