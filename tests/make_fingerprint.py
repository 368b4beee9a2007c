"""SHA-256 fingerprint of the CLI outputs, the atom matrix, the ledger, the
cross-checked transfer on the widened and on the probed system, the sliced
expansions, a finer-scale flattening, the strong-regularity,
weight-regularity and integrability reports on six fixed systems, and of
one Runner run of all nine analyses on one of them.

`tests/test_fingerprint.py` recomputes every digest and names each entry
that differs from `tests/fingerprint.json`.  A change that moves outputs
by design regenerates the file and lists each changed entry:

    python tests/make_fingerprint.py

Digests depend on the floating-point libraries, so the file records the
NumPy and SciPy versions it was made with.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Dict
from unittest import mock

import numpy as np
import scipy

# the checkout's package, as pytest's pythonpath setting gives the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import besovtransfer.cli as cli
from besovtransfer.atoms import (BesovAtom, PiecewiseFn, besov_to_souza, coefficient_norm,
                                 random_rep, subtree_rep)
from besovtransfer.domains import strong_regularities
from besovtransfer.dynamics import potential_regularity
from besovtransfer.grid import CellId
from besovtransfer.transfer import apply_transfer, lebesgue_bound_check, slice_rep

FINGERPRINT = Path(__file__).resolve().with_name("fingerprint.json")

# name -> (grid, map spec); every other config value is the default
SYSTEMS = {
    "beta18_K9": ({"arity": 2, "max_level": 9}, {"map": "beta", "beta": 1.8}),
    "golden_K10": ({"arity": 2, "max_level": 10},
                   {"map": "beta", "beta": (1 + math.sqrt(5)) / 2}),
    "lorenz_cusp_K8": ({"arity": 2, "max_level": 8}, {"map": "lorenz_cusp"}),
    "gauss20_K8": ({"arity": 2, "max_level": 8}, {"map": "gauss", "r_max": 20}),
    "pw_linear_K9": ({"arity": 2, "max_level": 9},
                     {"map": "pw_linear", "breakpoints": [0.0, 1 / 3, 1.0],
                      "slopes": [3.0, 1.5]}),
    "m_ary3_K5": ({"arity": 3, "max_level": 5}, {"map": "m_ary", "arity": 3}),
}
# the system also run through one Runner with all nine analyses
ALL_ANALYSES_SYSTEM = "lorenz_cusp_K8"
# seeded expansions per system for apply_transfer: (seed, complex coefficients)
EXPANSIONS = ((1, False), (2, False), (3, True))


def versions() -> Dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _array_sha(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


def _cli(out: dict, key: str, argv, root: Path) -> None:
    """Digests of one `cli.main` call: exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    out[f"{key}:exit"] = _sha(str(rc))
    # the printed paths name the temporary directory
    out[f"{key}:stdout"] = _sha(stdout.getvalue().replace(str(root), "<out>"))
    out[f"{key}:stderr"] = _sha(stderr.getvalue().replace(str(root), "<out>"))


def system_digests(name: str, root: Path) -> Dict[str, str]:
    """Every digest of one system, keyed '<system>/<entry>'."""
    grid, spec = SYSTEMS[name]
    cfg = root / f"{name}.json"
    cfg.write_text(json.dumps({"grid": grid, "map": spec}))
    out: Dict[str, str] = {}
    kept = []   # every M the runs read; the first is the `matrix` run's

    def matrix(runner, assemble=cli.Runner.matrix):
        kept.append(assemble(runner))
        return kept[-1]

    with mock.patch.object(cli.Runner, "matrix", matrix):
        for analysis in cli.ANALYSES:
            run_dir = root / name / analysis
            _cli(out, f"{name}/{analysis}", [analysis, "--config", str(cfg),
                                             "--out", str(run_dir)], root)
            for path in sorted(run_dir.glob("*")) if run_dir.is_dir() else []:
                out[f"{name}/{analysis}/{path.name}"] = _sha(path.read_bytes())
    for bound in cli.EXPLAIN_NAMES:
        _cli(out, f"{name}/explain {bound}", ["explain", bound, "--config", str(cfg),
                                              "--out", str(root / name / "explain")], root)
    if name == ALL_ANALYSES_SYSTEM:
        # one Runner with every analysis: the stages it shares between them
        config = cli.RunConfig.from_json({"grid": grid, "map": spec,
                                          "analyses": list(cli.ANALYSES)}, root / name / "all")
        written = cli.Runner(config).run()
        out[f"{name}/all:written"] = _sha("\n".join(path.name for path in written))
        for path in sorted(config.out_dir.glob("*")):
            out[f"{name}/all/{path.name}"] = _sha(path.read_bytes())
    tm = kept[0]
    coo = tm.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for part in ("row", "col", "data"):
        out[f"{name}/M.{part}"] = _array_sha(getattr(coo, part)[order])
    out[f"{name}/ledger"] = _sha(_json(tm.ledger.as_dict()))
    system = tm.system
    # the probed system as a run builds it, before assembly widens its ledger
    probed = cli.Runner(cli.RunConfig.from_json({"grid": grid, "map": spec},
                                                root / name / "probed")).system()
    for seed, complex_coeffs in EXPANSIONS:
        rep = random_rep(system.grid, system.params, np.random.default_rng(seed),
                         n_atoms=15, complex_coeffs=complex_coeffs)
        for key, on in ((f"{name}/apply_transfer seed {seed}", system),
                        (f"{name}/apply_transfer probed seed {seed}", probed)):
            res = apply_transfer(on, rep, mode="analytic", cross_check=True)
            out[f"{key}:index"] = _array_sha(res.index)
            out[f"{key}:value"] = _array_sha(res.value)
            out[f"{key}:meta"] = _sha(_json(res.meta))
        for q in (system.params.q, math.inf):
            params = dataclasses.replace(system.params, q=q)
            sliced = slice_rep(dataclasses.replace(rep, params=params),
                               dataclasses.replace(system, params=params))
            out[f"{name}/slice_rep seed {seed} q={q}"] = _sha(_json(
                {"measured_lhs": sliced.measured_lhs, "input_norm": sliced.input_norm}))
    out.update(library_digests(name, system))
    return out


def library_digests(name: str, system) -> Dict[str, str]:
    """Digests of the library reports no CLI output prints whole: a
    finer-scale flattening, the strong-regularity reports, the weight
    regularity of every branch and the integrability report."""
    grid, params, K = system.grid, system.params, system.grid.max_level
    out: Dict[str, str] = {}
    f = PiecewiseFn.from_function(grid, K, lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x))
    general = []
    for d, W in ((0.5, CellId(1, 0)), (1.5, CellId(2, 3)), (-0.75 + 0.25j, CellId(1, 1)),
                 (2.0, CellId(3, 2)), (1.0, CellId(K, 5))):
        rep = subtree_rep(f, W, params, positive=True, theta=params.theta_beta)
        budget = grid.measure(W) ** (params.s - params.beta)
        general.append((d, BesovAtom(W, rep.scaled(budget / (coefficient_norm(rep) * 1.0000001)))))
    for q in (params.q, math.inf):
        flat = besov_to_souza(general, dataclasses.replace(params, q=q), grid)
        out[f"{name}/besov_to_souza q={q}:meta"] = _sha(_json(flat.meta))
    images = [b.img for b in system.branches]
    # the first two images joined into their one interval
    merged = (min(lo for lo, _ in images[:2]), max(hi for _, hi in images[:2]))
    for t, reports in ((0, system.strong_reports.values()),
                       (2, strong_regularities(grid, images + [merged], 0.5, t=2))):
        out[f"{name}/strong_regularities t={t}"] = _sha(_json([
            [rep.c_strong, rep.worst_cell, rep.max_rel_defect, rep.cells_probed]
            for rep in reports]))
    out[f"{name}/potential_regularity"] = _sha(_json([
        potential_regularity(system.averages(b, K), b, params)[1] for b in system.branches]))
    out[f"{name}/lebesgue_bound_check"] = _sha(_json(
        dataclasses.asdict(lebesgue_bound_check(system))))
    return out


def digests() -> Dict[str, str]:
    out: Dict[str, str] = {}
    # one parser for every call: building it takes a tenth of the time
    parser = cli._build_parser()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_build_parser", lambda: parser):
        for name in SYSTEMS:
            out.update(system_digests(name, Path(tmp)))
    return out


def main() -> None:
    data = {"versions": versions(), "digests": digests()}
    FINGERPRINT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{FINGERPRINT}: {len(data['digests'])} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
