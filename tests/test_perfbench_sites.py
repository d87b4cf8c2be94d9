"""The benchmark's traced runs (perfbench/run.py --trace 1) wrap qgen
functions where their callers look them up, by name. A site that no longer
resolves, say an import dropped from qgen.model, crashes every traced run;
this test catches that without running the benchmark."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    missing = []
    for site, _, _ in layers.SITES:
        owner, attr = spans.resolve(site)
        if attr not in owner.__dict__:  # how spans.replace_function reads it
            missing.append(site)
    assert missing == []
