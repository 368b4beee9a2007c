"""SciPy loads only in runs that assemble the atom matrix M, and its
eigensolver stack only in runs that solve an eigenproblem.

Each case runs in a fresh interpreter, so modules loaded by other tests
do not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SPARSE = "scipy.sparse"
EIGEN_STACK = ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg")
SCIPY = (SPARSE,) + EIGEN_STACK


def loaded_after(script: str, modules=EIGEN_STACK) -> list:
    """The given modules that are in sys.modules after running script."""
    probe = textwrap.dedent(script) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli_script(tmp_path: Path, commands, map_spec: dict, max_level: int) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": {"arity": 2, "max_level": max_level},
                               "map": map_spec}))
    return f"""
        from besovtransfer.cli import main
        for command in {list(commands)!r}:
            assert main([command, "--config", {str(cfg)!r},
                         "--out", {str(tmp_path / "out")!r}]) == 0, command
    """


def test_import_loads_no_eigensolver():
    assert loaded_after("import besovtransfer", SCIPY) == []


def test_cross_checked_transfer_loads_no_eigensolver():
    # both routes, the numeric one through the bin operator U
    assert loaded_after("""
        import numpy as np
        from besovtransfer import BesovParams, MapSpec, apply_transfer, build_grid, make_map
        from besovtransfer.atoms import random_rep
        params = BesovParams()
        system = make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), params)
        rep = random_rep(system.grid, params, np.random.default_rng(0), n_atoms=15)
        out = apply_transfer(system, rep, mode="analytic", cross_check=True)
        assert out.meta["cross_check_l1"] <= out.meta["defect_l1"] + 1e-6
        apply_transfer(system, rep, mode="numeric")
    """, SCIPY) == []


def test_ledger_bounds_validate_load_no_scipy(tmp_path):
    script = cli_script(tmp_path, ["ledger", "bounds", "validate"],
                        {"map": "beta", "beta": 1.8}, 8)
    assert loaded_after(script, SCIPY) == []


def test_ledger_density_clt_load_no_eigensolver(tmp_path):
    script = cli_script(tmp_path, ["ledger", "density", "clt"], {"map": "doubling"}, 8)
    assert loaded_after(script, SCIPY) == []


def test_spectrum_loads_the_eigensolver(tmp_path):
    # positive control: beta=1.8 is not level-triangular, so it needs ARPACK
    script = cli_script(tmp_path, ["spectrum"], {"map": "beta", "beta": 1.8}, 6)
    assert loaded_after(script, SCIPY) == list(SCIPY)
