"""Batch front end: configure a map, run analyses, emit ledgers and data.

All outputs are plain CSV/JSON with stable formatting, so identical
configurations and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .atoms import BesovParams, PiecewiseFn, atom_rep, evaluate
from .dynamics import MAP_FIELDS, PROBE_LEVEL, BranchSystem, MapSpec, make_map, working_grid
from .errors import (
    AssumptionError,
    BesovTransferError,
    CapacityError,
    ConfigError,
    DegenerateFitError,
    MapSpecError,
    ParamsError,
)
from .grid import CellId, Grid, build_grid, validate_grid
from .spectral import (
    clt_variance,
    correlations,
    decay_rate,
    eigenvalues,
    invariant_density,
    lasota_yorke_verify,
    peripheral_spectrum,
    subdominant_modulus,
)
from .transfer import (
    BASIS_CAP,
    SPLIT_LEVEL,
    BoundLedger,
    Constants,
    assemble_matrix,
    bound_ledger,
    lebesgue_bound_check,
)

ANALYSES = ("validate", "ledger", "matrix", "density", "spectrum",
            "decay", "clt", "ly", "bounds")
EXPLAIN_NAMES = ("theta", "C_D", "C_FR", "C_ES", "essential_bound", "ly_lambda", "t0")

OBSERVABLES = {
    "cos": lambda x: np.cos(2 * np.pi * x),
    "sin": lambda x: np.sin(2 * np.pi * x),
    "half": lambda x: np.where(x < 0.5, 0.5, -0.5),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4


class Field(NamedTuple):
    """What a config field may hold.  kind is int (a whole number in
    low..high), float (a finite number above low), str, a tuple of the
    names it may take, a one-element list for a list of that kind, or a
    dict of Fields for a section.  Values in also are taken as they are."""

    kind: object
    low: float = -math.inf
    high: float = math.inf
    also: tuple = ()


CONFIG = Field({
    "schema_version": Field(int, 1, 1),
    "grid": Field({"arity": Field(int, 2), "max_level": Field(int, 1)}),
    "params": Field({**dict.fromkeys(("s", "p", "beta", "eps", "delta", "gamma"), Field(float)),
                     "q": Field(float, also=("inf", math.inf))}),
    "map": Field({"map": Field(str), "potential": Field(str), "beta": Field(float),
                  "arity": Field(int, 1), "r_max": Field(int, 1), "exponent": Field(float),
                  "constant": Field(float),
                  **dict.fromkeys(("breakpoints", "slopes", "offsets"), Field([float]))}),
    "analyses": Field([ANALYSES]),
    "constants": Field({**dict.fromkeys(("C_GC", "C_GBS", "C_GBVA"), Field(float, 0)),
                        "C_GSR": Field(float, 0, also=(None,))}),
    "caps": Field({"basis": Field(int, 1), "split_level": Field(int, 0),
                   "probe_level": Field(int, 0)}),
    "observable": Field(tuple(OBSERVABLES)),
    "seed": Field(int, 0),
})


@dataclass
class RunConfig:
    grid: Grid
    params: BesovParams
    map_spec: MapSpec
    analyses: List[str]
    out_dir: Path
    constants: Constants
    seed: int
    basis_cap: int
    split_level: int
    probe_level: int
    observable: str

    @classmethod
    def from_json(cls, data: Dict, out_dir: Path) -> "RunConfig":
        data = _check("config", data, CONFIG)
        grid = build_grid(**{"arity": 2, "max_level": 10, **data.get("grid", {})})
        # float() reads q's "inf"
        params = BesovParams(**{k: float(v) for k, v in data.get("params", {}).items()})
        params.validate()   # exponent box; violations carry the inequality
        spec = data.get("map", {})
        if "map" not in spec:
            raise ConfigError("config.map.map: missing")
        name, potential = spec["map"], spec.get("potential", "jacobian")
        if name in MAP_FIELDS:      # make_map refuses an unknown name
            read = {"map", "potential", *MAP_FIELDS[name]}
            if potential == "constant":
                read.add("constant")
            unread = [key for key in spec if key not in read]
            if unread:
                raise ConfigError(f"config.map.{unread[0]}: not read by map {name!r} "
                                  f"with potential {potential!r}")
        caps = {"basis": BASIS_CAP, "split_level": SPLIT_LEVEL, "probe_level": PROBE_LEVEL,
                **data.get("caps", {})}
        # split levels run to the grid's depth, which only the grid knows
        _check("config.caps.split_level", caps["split_level"], Field(int, 0, grid.max_level))
        constants = Constants(**{k.lower(): v for k, v in data.get("constants", {}).items()})
        return cls(grid=grid, params=params, map_spec=MapSpec(spec.pop("map"), **spec),
                   analyses=data.get("analyses", ["ledger"]), out_dir=out_dir,
                   constants=constants, seed=data.get("seed", 0),
                   basis_cap=caps["basis"], split_level=caps["split_level"],
                   probe_level=caps["probe_level"], observable=data.get("observable", "cos"))


def _check(name: str, raw, field: Field):
    """raw as the field takes it; ConfigError naming the field otherwise.
    A bool or a string is not a number, and a number must be finite."""
    kind, low, high, also = field
    if raw in also:
        return raw
    if isinstance(kind, dict):
        if isinstance(raw, dict):
            return {key: _check(f"{name}.{key}", value,
                                kind[_check(f"{name}.{key}", key, Field(tuple(kind)))])
                    for key, value in raw.items()}
        expected = "an object"
    elif isinstance(kind, list):
        if isinstance(raw, list):
            return [_check(name, x, Field(kind[0], low, high)) for x in raw]
        expected = "a list"
    elif isinstance(kind, tuple):
        if raw in kind:
            return raw
        expected = f"a name from {', '.join(kind)}"
    elif kind is str:
        if isinstance(raw, str):
            return raw
        expected = "a string"
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        expected = "a number"
    elif not abs(raw) <= sys.float_info.max:
        expected = "a finite number"
    elif kind is float:
        if low < raw:
            return float(raw)
        expected = f"a number > {low}"
    elif raw != int(raw):
        expected = "a whole number"
    elif low <= raw <= high:
        return int(raw)
    else:
        expected = f"a whole number >= {low}" if high == math.inf else \
            f"a whole number in {low}..{high}"
    raise ConfigError(f"{name}: expected {expected}, got {raw!r}")


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class Runner:
    """Executes analyses in dependency order, materializing each stage once."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._system: Optional[BranchSystem] = None
        self._matrix = None
        self._density = None
        self._eigenvalues = None
        self.written: List[Path] = []

    # -- cached stages ------------------------------------------------------

    def system(self) -> BranchSystem:
        if self._system is None:
            self._system = make_map(self.config.map_spec, self.config.grid,
                                    self.config.params,
                                    probe_level=self.config.probe_level)
            # integrability gate: refuse the operator when the split fails
            lebesgue_bound_check(self._system)
        return self._system

    def matrix(self):
        if self._matrix is None:
            self._matrix = assemble_matrix(self.system(), K=self.config.grid.max_level,
                                           t=self.config.split_level,
                                           constants=self.config.constants,
                                           basis_cap=self.config.basis_cap)
        return self._matrix

    def density(self):
        if self._density is None:
            self._density = invariant_density(self.system(), self.config.grid.max_level)
        return self._density

    def ledger(self) -> BoundLedger:
        """The run's bound ledger: M's (widened, with its measured block)
        once the run has assembled M, else the probed system's."""
        if self._matrix is not None:
            return self._matrix.ledger
        return bound_ledger(self.system(), self.config.constants, t=self.config.split_level)

    def eigenvalues(self):
        """The one eigensolve of the run, shared by spectrum and decay."""
        if self._eigenvalues is None:
            self._eigenvalues = eigenvalues(self.matrix())
        return self._eigenvalues

    # -- emitters -----------------------------------------------------------

    def _write(self, name: str, text: str) -> Path:
        path = self.config.out_dir / name
        path.write_text(text)
        self.written.append(path)
        return path

    def run(self) -> List[Path]:
        try:
            self.config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {self.config.out_dir} is not a usable directory: "
                              f"{exc}") from exc
        order = [a for a in ANALYSES if a in self.config.analyses]
        for analysis in order:
            getattr(self, f"emit_{analysis}")()
        return self.written

    def emit_validate(self) -> None:
        # the working grid: the configured one cut at the map's breakpoints
        report = validate_grid(working_grid(self.config.map_spec, self.config.grid))
        data = report.as_dict()
        data["all_pass"] = report.all_pass
        self._write("axioms.json", _json_text(data))

    def emit_ledger(self) -> None:
        self._write("ledger.csv", self.system().ledger_csv())

    def emit_bounds(self) -> None:
        self._write("bounds.json", _json_text(self.ledger().as_dict()))

    def emit_matrix(self) -> None:
        self._write("matrix.csv", self.matrix().to_triplets())
        # bounds, the last analysis, writes M's ledger when it is asked for
        if "bounds" not in self.config.analyses:
            self.emit_bounds()

    def emit_density(self) -> None:
        rho, info = self.density()
        self._write("density.csv", rho.to_csv())
        self._write("density_info.json", _json_text({
            "iterations": info.iterations, "method": "power", "residual": info.residual,
            "clamp_mass": info.clamp_mass, "tail_deficit": info.deficit}))

    def emit_spectrum(self) -> None:
        report = peripheral_spectrum(self.matrix(), spectrum=self.eigenvalues())
        lines = ["re,im,modulus"]
        for lam in report.eigenvalues:
            lines.append(f"{float(lam.real)!r},{float(lam.imag)!r},{float(abs(lam))!r}")
        self._write("spectrum.csv", "\n".join(lines) + "\n")
        self._write("spectral.json", _json_text({
            "peripheral": [{"re": l.real, "im": l.imag} for l in report.peripheral],
            "gap": report.gap,
            "essential_bound": report.essential_bound,
            "eigenspace_dim_at_1": report.eigenspace_dim_at_1,
            "semisimple": report.semisimple,
            "transitive": report.transitive,
            "solver": report.solver,
        }))

    def emit_decay(self) -> None:
        grid = self.system().grid
        # default observable: the zero-mean first-level difference
        u = atom_rep(CellId(1, 0), self.config.params, grid, 1.0) \
            + atom_rep(CellId(1, 1), self.config.params, grid, -1.0)
        v = evaluate(u, grid.max_level)
        rho, _ = self.density()
        try:
            rep = decay_rate(self.system(), u, v, k_max=40,
                             lambda2=subdominant_modulus(self.eigenvalues().values), density=rho)
            cks, fitted, cert = rep.correlations, rep.fitted_rate, rep.certificate_rate
            degenerate = False
        except DegenerateFitError:
            cks = correlations(self.system(), u, v, k_max=40, density=rho)
            fitted, cert, degenerate = 0.0, 0.0, True
        lines = ["k,re,im,abs"]
        for k, c in enumerate(cks):
            lines.append(f"{k},{float(c.real)!r},{float(c.imag)!r},{float(abs(c))!r}")
        self._write("decay.csv", "\n".join(lines) + "\n")
        self._write("decay.json", _json_text({"fitted_rate": fitted, "certificate_rate": cert,
                                              "degenerate": degenerate}))

    def emit_clt(self) -> None:
        v = PiecewiseFn.from_function(self.system().grid, self.config.grid.max_level,
                                      OBSERVABLES[self.config.observable])
        rho, _ = self.density()
        rep = clt_variance(self.system(), v, density=rho)
        self._write("clt.json", _json_text({
            "sigma2": rep.sigma2, "green_kubo": rep.green_kubo,
            "fd_error": rep.fd_error, "t_grid": list(rep.t_grid),
            "leading": {repr(t): {"re": l.real, "im": l.imag}
                        for t, l in sorted(rep.leading.items())},
        }))

    def emit_ly(self) -> None:
        rep = lasota_yorke_verify(self.matrix(), ensemble_size=60, n_max=20,
                                  seed=self.config.seed)
        self._write("ly.json", _json_text({
            "C": rep.C, "lambda": rep.lam, "n_max": rep.n_max,
            "ensemble_size": rep.ensemble_size, "cap": rep.cap,
            "pass": rep.passed, "seed": rep.seed}))


# -- explain --------------------------------------------------------------------


def explain(name: str, config: RunConfig) -> str:
    """Defining formula and current numeric decomposition of a bound."""
    if name not in EXPLAIN_NAMES:
        raise ConfigError(
            f"unknown bound name {name!r}; known: {', '.join(EXPLAIN_NAMES)}")
    params = config.params
    if name == "t0":
        val = params.t0
        return (f"t0 = p/(1 - s*p + delta*p)\n"
                f"   = {params.p!r}/(1 - {params.s!r}*{params.p!r} + "
                f"{params.delta!r}*{params.p!r})\n"
                f"   = {val:.4f}\n")
    runner = Runner(config)
    ledger = runner.ledger()
    if name == "theta":
        return f"theta_r = {ledger.formulas['theta']}\n" + runner.system().ledger_csv()
    if name == "C_D":
        return (f"C_D = {ledger.formulas['C_D']}\n"
                f"    = 2/(1 - {ledger.lambda_rs2!r}**{params.gamma!r})\n"
                f"    = {ledger.c_d!r}\n")
    if name == "C_FR":
        return f"C_FR = {ledger.formulas['C_FR']}\n     = {ledger.c_fr!r}\n"
    if name == "C_ES":
        return f"C_ES = {ledger.formulas['C_ES']}\n     = {ledger.c_es!r}\n"
    if name == "essential_bound":
        return (f"essential_bound = {ledger.formulas['essential_bound']}\n"
                f"                = {ledger.c_gbs!r} * {ledger.c_d!r} * "
                f"{ledger.c_es!r} * {ledger.c_gc!r}\n"
                f"                = {ledger.essential_bound!r}\n")
    if name == "ly_lambda":
        rep = lasota_yorke_verify(runner.matrix(), ensemble_size=20, n_max=10, seed=config.seed)
        return ("ly_lambda = smallest lambda with "
                "|Phi^n f| <= C*|f|_1 + lambda**n * |f| over the ensemble, "
                "capped by essential_bound\n"
                f"          = {rep.lam!r}  (C = {rep.C!r}, cap = {rep.cap!r}, "
                f"pass = {rep.passed})\n")
    raise AssertionError("unreachable")


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovtransfer",
        description="transfer-operator analyses of piecewise expanding interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ANALYSES:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        _common_flags(p)
    pe = sub.add_parser("explain", help="print a bound's formula and current value")
    pe.add_argument("name", choices=EXPLAIN_NAMES)
    _common_flags(pe)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--max-cells", type=int, default=None,
                   help="override the basis-size cap")


def _load_config(args) -> RunConfig:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {args.config}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {args.config} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
    config = RunConfig.from_json(raw, Path(args.out))
    if args.seed is not None:
        config.seed = _check("--seed", args.seed, CONFIG.kind["seed"])
    if args.max_cells is not None:
        config.basis_cap = _check("--max-cells", args.max_cells, CONFIG.kind["caps"].kind["basis"])
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "explain":
            sys.stdout.write(explain(args.name, config))
            return EXIT_OK
        config.analyses = [args.command]
        runner = Runner(config)
        written = runner.run()
        for path in written:
            print(path)
        return EXIT_OK
    except (ConfigError, MapSpecError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParamsError, AssumptionError) as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except BesovTransferError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
