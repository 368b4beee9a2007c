"""The benchmark's workloads: inputs made from a seed, one pass, and checks.

A pass is what one closed-loop client asks for before it asks again.  Every
pass builds its map systems afresh, as each CLI run does, so no pass reuses
the weight averages, the cell operator or the branch ledger that an earlier
pass cached or tightened.  The program is called through module attributes
(`dynamics.make_map`, not a name imported once), so the tracer's wrappers
are seen.

Each pass is a fixed list of operations.  An operation that raises one of
the program's typed errors counts as failed; its outputs are not checked.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import besovtransfer.atoms as atoms
import besovtransfer.cli as cli
import besovtransfer.dynamics as dynamics
import besovtransfer.grid as grid
import besovtransfer.transfer as transfer
from besovtransfer.errors import BesovTransferError

import checks

PARAMS = atoms.BesovParams()
BETA18 = Fraction(9, 5)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Tolerances of the density checks against the Parry density (see README).
TOL_BETA18_K9 = 4e-3       # K=9: 0.8 falls in a parent too close to its edge to be cut
TOL_BETA18_K10 = 2.5e-4    # K=10: cuts at 0.44, 0.792, 0.8


class Pass:
    """Outputs of one pass and the count of operations that failed."""

    def __init__(self):
        self.failed = 0
        self.errors: List[str] = []
        self.outputs: list = []

    def attempt(self, op: Callable[[], object]) -> Optional[object]:
        try:
            return op()
        except BesovTransferError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def _read_density(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return checks.edges_from_midpoints(data[:, 0]), data[:, 1]


def output_mb(out_dir: Path) -> float:
    return sum(p.stat().st_size for p in out_dir.iterdir()) / 1e6


def runner_pass(config: dict, out_dir: Path) -> Pass:
    """One CLI run of the configured analyses, written to out_dir."""
    result = Pass()
    run_config = cli.RunConfig.from_json(config, out_dir)
    if result.attempt(cli.Runner(run_config).run) is not None:
        result.outputs.append(out_dir)
    return result


def fixed_density(apply: Callable[[np.ndarray], np.ndarray], widths: np.ndarray,
                  tol: float = 1e-13, max_iter: int = 1000) -> Tuple[np.ndarray, int]:
    """Power iteration of a cell-average operator from the flat density."""
    v = np.ones(len(widths))
    for it in range(1, max_iter + 1):
        new = apply(v)
        new = new / np.sum(new * widths)
        delta = float(np.max(np.abs(new - v)))
        v = new
        if delta < tol:
            return v, it
    return v, -1


# -- spectral ---------------------------------------------------------------------


class Spectral:
    """beta=1.8 at K=9 through the CLI runner: every analysis that needs the matrix."""

    name = "spectral"
    ops_per_pass = 1
    K = 9

    def __init__(self, seed: int):
        self.seed = seed
        self.config = {"grid": {"arity": 2, "max_level": self.K},
                       "map": {"map": "beta", "beta": float(BETA18)},
                       "analyses": ["ledger", "matrix", "density", "spectrum", "decay",
                                    "clt", "ly"],
                       "seed": seed}
        self.sigma2: List[Tuple[float, float]] = []

    def run_pass(self, out_dir: Path) -> Pass:
        return runner_pass(self.config, out_dir)

    def check(self, result: Pass) -> Tuple[List[str], Optional[float]]:
        bad: List[str] = []
        dist = None
        for out in result.outputs:
            edges, rho = _read_density(out / "density.csv")
            bad += checks.check_density(edges, rho)
            dist = checks.step_l1(edges, rho, checks.parry_steps(BETA18))
            bad += checks.check_within("density vs Parry", dist, TOL_BETA18_K9)
            # the branch images cover [0, 1), so every atom keeps all its mass
            widths = checks.atom_widths(edges)
            trip = np.loadtxt(out / "matrix.csv", delimiter=",", skiprows=1, ndmin=2)
            bad += checks.check_column_masses(checks.column_mass_residual(
                trip[:, 0].astype(np.int64), trip[:, 1].astype(np.int64), trip[:, 2],
                widths, widths, PARAMS.s, PARAMS.p))
            with (out / "ledger.csv").open() as fh:
                bad += checks.check_ledger(list(csv.DictReader(fh)), 2)
            spec = json.loads((out / "spectral.json").read_text())
            eig = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
            bad += checks.check_spectrum(
                eig[:, 0] + 1j * eig[:, 1],
                [complex(z["re"], z["im"]) for z in spec["peripheral"]],
                spec["eigenspace_dim_at_1"], spec["transitive"], spec["gap"])
            clt = json.loads((out / "clt.json").read_text())
            self.sigma2.append((clt["sigma2"], clt["green_kubo"]))
            decay = json.loads((out / "decay.json").read_text())
            ly = json.loads((out / "ly.json").read_text())
            bad += checks.check_decay_ly(decay["degenerate"], decay["fitted_rate"],
                                         ly["lambda"])
        return bad, dist

    def finish(self) -> List[str]:
        """The CLT variances against the seeded orbit simulation."""
        if not self.sigma2:
            return []
        orbit = checks.orbit_variance(float(BETA18), self.seed)
        bad: List[str] = []
        for sigma2, gk in self.sigma2:
            bad += checks.check_clt(sigma2, gk, orbit)
        return bad


# -- crosscheck -------------------------------------------------------------------


class Crosscheck:
    """Seeded 15-atom expansions through apply_transfer(cross_check=True).

    Counts per map are sized so that no map takes most of the pass.  On
    beta=1.8 the pass also iterates the numeric route to its fixed density.
    """

    name = "crosscheck"
    # (spec, K, probe_level, expansions per pass)
    MAPS = [
        (dynamics.MapSpec("beta", beta=GOLDEN), 10, 10, 20),
        (dynamics.MapSpec("beta", beta=float(BETA18)), 10, 10, 20),
        (dynamics.MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5)),
         10, 10, 20),
        (dynamics.MapSpec("lorenz_cusp", exponent=0.75), 10, 10, 10),
        (dynamics.MapSpec("gauss", r_max=20), 8, 7, 5),
    ]
    ops_per_pass = sum(m[3] for m in MAPS) + 1

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for spec, K, probe, count in self.MAPS:
            cut = dynamics.working_grid(spec, grid.build_grid(2, K))
            reps = [atoms.random_rep(cut, PARAMS, rng, n_atoms=15) for _ in range(count)]
            self.inputs.append((spec, K, probe, reps))

    def run_pass(self, out_dir: Path) -> Pass:
        result = Pass()
        for spec, K, probe, reps in self.inputs:
            is_beta18 = spec.name == "beta" and spec.beta == float(BETA18)
            try:
                system = dynamics.make_map(spec, grid.build_grid(2, K), PARAMS,
                                           probe_level=probe)
            except BesovTransferError as exc:
                # every operation on this map fails with it
                result.failed += len(reps) + is_beta18
                result.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            for rep in reps:
                out = result.attempt(lambda: transfer.apply_transfer(
                    system, rep, mode="analytic", cross_check=True))
                if out is not None:
                    result.outputs.append(("route", system, rep, out))
            if is_beta18:
                widths = system.grid.widths(K)
                rho = result.attempt(lambda: fixed_density(
                    lambda v: transfer.transfer_numeric(
                        system, atoms.PiecewiseFn(system.grid, K, v)).values, widths))
                if rho is not None:
                    result.outputs.append(("density", system, rho))
        return result

    @staticmethod
    def _image_mass(system, rep) -> float:
        """Exact mass of the expansion inside the union of the branch images."""
        grid_, theta = system.grid, PARAMS.theta
        images = [b.img for b in system.branches]
        total = 0.0
        for cell, d in rep.coeffs.items():
            lo, hi = grid_.interval(cell)
            inside = sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in images)
            total += d * (hi - lo) ** (-theta) * inside
        return total

    @staticmethod
    def _mass(system, rep) -> float:
        grid_, theta = system.grid, PARAMS.theta
        return sum(d * grid_.measure(cell) ** (1.0 - theta) for cell, d in rep.coeffs.items())

    def check(self, result: Pass) -> Tuple[List[str], Optional[float]]:
        bad: List[str] = []
        dist = None
        for item in result.outputs:
            if item[0] == "route":
                _, system, rep, out = item
                K = system.grid.max_level
                f = atoms.evaluate(rep, K)
                numeric = transfer.transfer_numeric(system, f).values
                bad += checks.check_route(atoms.evaluate(out, K).values, numeric,
                                          system.grid.widths(K))
                bad += checks.check_mass(f"{system.spec.name} output",
                                         float(np.real(self._mass(system, out))),
                                         float(np.real(self._image_mass(system, rep))))
            else:
                _, system, (rho, iterations) = item
                edges = system.grid.edges(system.grid.max_level)
                if iterations < 0:
                    bad.append("numeric route: power iteration did not converge")
                bad += checks.check_density(edges, rho)
                dist = checks.step_l1(edges, rho, checks.parry_steps(BETA18))
                bad += checks.check_within("numeric density vs Parry", dist, TOL_BETA18_K10)
        return bad, dist

    def finish(self) -> List[str]:
        return []


WORKLOADS: Dict[str, type] = {w.name: w for w in (Spectral, Crosscheck)}
