"""The campaign benchmark's tracer wraps functions at the names the calling
modules bind. A refactor that unbinds one of them would only make the
benchmark print "not traced (name gone)", so the suite checks them here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "campaignbench" / "tracer.py"


def test_every_traced_site_is_bound():
    spec = importlib.util.spec_from_file_location("campaign_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer().installed(tracer.LAYER_SITES) as installed:
        pass
    assert installed.missing == []
