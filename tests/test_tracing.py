"""The benchmark's tracer can still wrap every library name it times.

perfbench/tracing.py replaces functions where their callers look them up
(lp.solve, pwa.mat_vec_mul, network.compose, ...). A name that a module
stops importing breaks the traced benchmark run, so installing and
removing the tracer is checked here, with the rest of the library tests.
"""

from pathlib import Path

from pwanet import cli, formats, lp, network, pwa, pwa_algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    modules = (cli, formats, lp, network, pwa, pwa_algebra)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lp.solve is not before[2]["solve"]
        assert network.compose is not before[3]["compose"]
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before
