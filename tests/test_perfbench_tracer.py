"""The benchmark's tracer binds package names: they must all still resolve."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of every besovtransfer module and traced class, by identity."""
    import besovtransfer.cli as cli
    import besovtransfer.dynamics as dynamics
    import besovtransfer.grid as grid
    import besovtransfer.transfer as transfer

    owners = [mod for name, mod in sys.modules.items() if mod is not None
              and (name == "besovtransfer" or name.startswith("besovtransfer."))]
    owners += [cli.Runner, dynamics.Branch, grid.Grid, transfer.TransferMatrix]
    return {(repr(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        for name, (mod, fns) in tracer.SPANNED.items():
            for fn_name in fns:
                assert getattr(mod, fn_name) is not before[(repr(mod), fn_name)], name
        for name, (mod, fn_name) in tracer.COUNTED.items():
            assert getattr(mod, fn_name) is not before[(repr(mod), fn_name)], name
    finally:
        t.uninstall()
    after = _bindings()
    assert during.keys() == before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
