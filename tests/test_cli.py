"""Command-line front end: configs, outputs, exit codes, determinism."""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import besovtransfer.cli as cli
import besovtransfer.dynamics as dynamics
import besovtransfer.spectral as spectral
import besovtransfer.transfer as transfer
from besovtransfer.cli import EXIT_ASSUMPTION, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from besovtransfer.dynamics import MapSpec
from besovtransfer.errors import ConvergenceError

PHI = (1 + math.sqrt(5)) / 2


def write_config(path: Path, **overrides) -> Path:
    data = {
        "schema_version": 1,
        "grid": {"arity": 2, "max_level": 8},
        "params": {"s": 0.4, "p": 2.0, "q": 2.0, "beta": 0.45,
                   "eps": 0.1, "delta": 0.05, "gamma": 0.5},
        "map": {"map": "doubling", "potential": "jacobian"},
        "analyses": ["density"],
        "seed": 0,
    }
    data.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(data))
    return cfg


def test_density_run_doubling(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["density", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "density.csv").read_text().strip().splitlines()[1:]
    vals = np.asarray([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_ledger_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["ledger", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header = (out / "ledger.csv").read_text().splitlines()[0]
    assert header == "r,a_r,c_DC1,c_DC2,c_DGD1,c_DGD2,c_RP,theta"


def test_spectrum_golden_leading_eigenvalue(tmp_path):
    cfg = write_config(tmp_path, map={"map": "beta", "beta": PHI},
                       grid={"arity": 2, "max_level": 8})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    lam1 = complex(float(rows[0].split(",")[0]), float(rows[0].split(",")[1]))
    assert abs(lam1 - 1.0) <= 1e-9
    meta = json.loads((out / "spectral.json").read_text())
    assert meta["transitive"] is True


def test_config_rejects_exponent_box(tmp_path):
    cfg = write_config(tmp_path, params={"s": 0.45, "p": 2.0, "q": 2.0,
                                         "beta": 0.47, "eps": 0.1,
                                         "delta": 0.05, "gamma": 0.5})
    out = tmp_path / "out"
    rc = main(["density", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_ASSUMPTION


def test_config_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["density", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["density", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    cfg = write_config(tmp_path, analyses=["nonsense"])
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    # a malformed section is refused by name when the config loads, before
    # any analysis runs (ledger reads no observable)
    for key, value in (("grid", 5), ("params", [1]), ("caps", 3), ("map", "doubling"),
                       ("observable", "nonsense")):
        capsys.readouterr()
        cfg = write_config(tmp_path, **{key: value})
        assert main(["ledger", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config.{key}: ")


@pytest.mark.parametrize("case", ["config_is_dir", "config_not_utf8", "config_not_json",
                                  "out_is_file", "out_under_file"])
def test_unreadable_config_or_unusable_out_exits_2_naming_the_path(tmp_path, capsys, case):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    plain = tmp_path / "plain"
    plain.write_text("")
    if case == "config_is_dir":
        cfg = tmp_path
    elif case == "config_not_utf8":
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"seed": "\xe9"}')
    elif case == "config_not_json":
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
    elif case == "out_is_file":
        out = plain
    else:
        out = plain / "out"
    assert main(["ledger", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(cfg if case.startswith("config") else out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, field", [
    ("caps", {"basis": "x"}, "caps.basis"),
    ("caps", {"probe_level": [8]}, "caps.probe_level"),
    ("seed", "x", "seed"),
    ("constants", {"C_GBS": "x"}, "constants.C_GBS"),
    ("constants", {"C_GSR": {}}, "constants.C_GSR"),
    ("analyses", "ledger", "analyses"),
    ("analyses", ["ledger", 3], "analyses"),
    ("constants", {"C_GC": float("nan")}, "constants.C_GC"),
    ("constants", {"C_GBS": float("inf")}, "constants.C_GBS"),
    ("caps", {"basis": 100.9}, "caps.basis"),
    ("caps", {"probe_level": True}, "caps.probe_level"),
    ("seed", 2.7, "seed"),
    ("grid", {"arity": 2, "max_level": 9.5}, "grid.max_level"),
    ("params", {"q": float("nan")}, "params.q"),
    ("params", {"q": float("-inf")}, "params.q"),
    ("params", {"s": True}, "params.s"),
    ("params", {"p": "2"}, "params.p"),
    ("grid", {"max_levle": 6}, "grid.max_levle"),
    ("params", {"sigma": 0.4}, "params.sigma"),
    ("caps", {"bassis": 100}, "caps.bassis"),
    ("constants", {"C_G": 4.0}, "constants.C_G"),
    ("sed", 0, "sed"),
])
def test_config_malformed_value_is_refused_by_field(tmp_path, capsys, key, value, field):
    cfg = write_config(tmp_path, **{key: value})
    assert main(["ledger", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{field}: expected a ")
    assert "unknown analysis" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides, flags, field", [
    ({"map": {"map": "doubling", "potential": "constant", "constant": "abc"}}, [],
     "config.map.constant"),
    ({"map": {"map": "beta", "beta": "x"}}, [], "config.map.beta"),
    ({"map": {"map": "beta", "beta": float("nan")}}, [], "config.map.beta"),
    ({"map": {"map": "gauss", "r_max": 2.5}}, [], "config.map.r_max"),
    ({"map": {"map": "gauss", "r_max": 0}}, [], "config.map.r_max"),
    ({"map": {"map": "m_ary", "arity": "3"}}, [], "config.map.arity"),
    ({"map": {"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0], "slopes": "ab"}}, [],
     "config.map.slopes"),
    ({"map": {"map": "pw_linear", "breakpoints": [0.0, float("inf"), 1.0],
              "slopes": [2.0, 2.0]}}, [], "config.map.breakpoints"),
    ({"map": {"map": "lorenz_cusp", "exponent": None}}, [], "config.map.exponent"),
    ({"seed": -1}, [], "config.seed"),
    ({}, ["--seed", "-1"], "--seed"),
    ({"caps": {"probe_level": -1}}, [], "config.caps.probe_level"),
    ({"caps": {"split_level": -2}}, [], "config.caps.split_level"),
    ({"caps": {"split_level": 9}}, [], "config.caps.split_level"),
    ({"caps": {"basis": 0}}, [], "config.caps.basis"),
    ({}, ["--max-cells", "0"], "--max-cells"),
    ({"constants": {"C_GC": -1}}, [], "config.constants.C_GC"),
    ({"constants": {"C_GBS": 0}}, [], "config.constants.C_GBS"),
    ({"constants": {"C_GSR": -2.0}}, [], "config.constants.C_GSR"),
])
def test_bad_map_value_seed_or_cap_exits_2_naming_the_field(tmp_path, capsys, overrides,
                                                             flags, field):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6}, **overrides)
    rc = main(["ledger", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith(f"config error: {field}: expected a ")
    assert "Traceback" not in err


@pytest.mark.parametrize("section, message", [
    ({"potential": "jacobian"}, "config.map.map: missing"),
    ({"map": 5}, "config.map.map: expected a string, got 5"),
    ({"map": "beta", "beta": 1.0}, "beta map with beta=1.0 is not expanding"),
    ({"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0]},
     "pw_linear needs breakpoints and slopes"),
    ({"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0], "slopes": [2.0]},
     "pw_linear needs len(breakpoints) == len(slopes)+1"),
    ({"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0], "slopes": [2.0, -2.0]},
     "pw_linear slopes must be positive"),
    ({"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0], "slopes": [2.0, 2.0],
      "offsets": [0.5, 0.0]}, "piece 0 maps [0.0,0.5) outside [0,1)"),
    ({"map": "tent"}, "unknown map name: 'tent'"),
    ({"map": "doubling", "potential": "x"}, "unknown potential rule: 'x'"),
    ({"map": "doubling", "potential": "custom"}, "custom potential rule needs custom_fn"),
    ({"map": "doubling", "arity": 5},
     "config.map.arity: not read by map 'doubling' with potential 'jacobian'"),
    ({"map": "beta", "beta": 1.8, "r_max": 3, "constant": 7},
     "config.map.r_max: not read by map 'beta' with potential 'jacobian'"),
    ({"map": "beta", "beta": 1.8, "constant": 7},
     "config.map.constant: not read by map 'beta' with potential 'jacobian'"),
    ({"map": "tent", "arity": 3}, "unknown map name: 'tent'"),
])
def test_unusable_map_section_exits_2_with_its_message(tmp_path, capsys, section, message):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6}, map=section)
    assert main(["ledger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("section, message", [
    ({"map": "pw_linear", "breakpoints": [0.0], "slopes": []},
     "pw_linear needs at least one piece"),
    ({"map": "pw_linear", "breakpoints": [0.0, 0.5, 0.5, 1.0], "slopes": [2.0, 2.0, 2.0]},
     "piece 1 [0.5,0.5) is empty"),
])
@pytest.mark.parametrize("analysis", ["validate", "ledger", "density"])
def test_pw_linear_without_a_piece_to_map_exits_2(tmp_path, capsys, section, message,
                                                  analysis):
    # a map with no branch, or a branch on an empty domain, is a config error
    # in every analysis, validate included
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6}, map=section)
    assert main([analysis, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("section", [
    {"map": "doubling"}, {"map": "m_ary", "arity": 3}, {"map": "beta", "beta": 1.8},
    {"map": "pw_linear", "breakpoints": [0.0, 0.5, 1.0], "slopes": [2.0, 2.0],
     "offsets": [0.0, 0.0]},
    {"map": "lorenz_cusp", "exponent": 0.6}, {"map": "gauss", "r_max": 3},
    {"map": "gauss", "r_max": 3, "potential": "constant", "constant": 0.5},
    {"map": "lorenz_cusp", "potential": "jacobian"},
])
def test_map_section_with_only_fields_its_map_reads_loads(tmp_path, section):
    fields = dict(section)
    spec = cli.RunConfig.from_json({"map": section}, tmp_path).map_spec
    assert spec == MapSpec(fields.pop("map"), **fields)


def test_configured_c_gsr_is_echoed_as_an_override(tmp_path):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6},
                       constants={"C_GSR": 2.5})
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["constants"]["C_GSR"] == 2.5
    assert bounds["formulas"]["C_GSR"] == "configured"
    assert bounds["provenance"]["C_GSR"] == "configured override"


def test_mapspec_json_roundtrip(tmp_path, capsys):
    spec = {"map": "beta", "beta": PHI, "potential": "jacobian"}
    config = cli.RunConfig.from_json({"map": spec}, tmp_path)
    assert config.map_spec == MapSpec("beta", beta=PHI, potential="jacobian")
    cfg = write_config(tmp_path, map={"map": "beta", "betta": 2.0})
    assert main(["ledger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config.map.betta: ")


@pytest.mark.parametrize("q", ['"inf"', "Infinity"])
def test_q_infinity_loads_as_inf(tmp_path, q):
    text = '{"map": {"map": "doubling"}, "params": {"q": %s}, "constants": {"C_GSR": null}}'
    config = cli.RunConfig.from_json(json.loads(text % q), tmp_path)
    assert config.params.q == math.inf
    assert config.constants.c_gsr is None


def test_readme_configuration_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A configuration:\n\n```json\n", 1)[1].split("```", 1)[0]
    config = cli.RunConfig.from_json(json.loads(block), tmp_path)
    assert config.map_spec.name == "beta"
    assert config.analyses == ["ledger", "density", "spectrum"]


def test_nonexpanding_map_rejected(tmp_path):
    cfg = write_config(tmp_path, map={"map": "pw_linear",
                                      "breakpoints": [0.0, 0.5, 1.0],
                                      "slopes": [2.0, 0.9]})
    rc = main(["ledger", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, analyses=["density"],
                       map={"map": "beta", "beta": PHI},
                       grid={"arity": 2, "max_level": 8})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["ly", "--config", str(cfg), "--out", str(out),
                     "--seed", "7"]) == EXIT_OK
        assert main(["density", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("ly.json", "density.csv", "density_info.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"


def test_explain_t0(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["explain", "t0", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    text = capsys.readouterr().out
    assert "p/(1 - s*p + delta*p)" in text
    assert "6.6667" in text


def test_explain_c_d_and_theta(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["explain", "C_D", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2/(1 - lambda_RS2**gamma)" in out
    assert main(["explain", "theta", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "c_DC1**eps * c_RP" in out
    assert out.count("\n") >= 3   # per-branch table


def test_explain_unknown_name(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["explain", "t0", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with pytest.raises(SystemExit):
        main(["explain", "bogus", "--config", str(cfg), "--out", str(tmp_path)])


def test_clt_on_decoupled_halves_exits_4_when_the_gap_collapses(tmp_path, capsys):
    # each half maps onto itself, so 1 is a double eigenvalue: the twisted
    # leading eigenvalue of the "half" observable has no gap to isolate it
    halves = {"map": "pw_linear", "breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0],
              "slopes": [2.0, 2.0, 2.0, 2.0], "offsets": [0.0, 0.0, 0.5, 0.5]}
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6}, map=halves,
                       analyses=["clt"], observable="half")
    assert main(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert "power iteration stalls at t=0.01" in capsys.readouterr().err


def test_bounds_and_clt_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    bounds = json.loads((out / "bounds.json").read_text())
    assert "formulas" in bounds and "essential_bound" in bounds
    assert bounds["formulas"]["C_D"] == "2/(1 - lambda_RS2**gamma)"
    assert main(["clt", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    clt = json.loads((out / "clt.json").read_text())
    assert clt["sigma2"] == pytest.approx(0.5, abs=1e-3)


def test_matrix_and_decay_outputs(tmp_path):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6})
    out = tmp_path / "out"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    triplets = (out / "matrix.csv").read_text().splitlines()
    assert triplets[0] == "row,col,value"
    assert len(triplets) > 64
    bounds = json.loads((out / "bounds.json").read_text())
    assert "provenance" in bounds
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    decay = json.loads((out / "decay.json").read_text())
    # doubling first-level differences die after one step: the fit degenerates
    assert decay["degenerate"] is True
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "axioms.json").read_text())["all_pass"] is True


def test_max_cells_flag(tmp_path):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 10})
    rc = main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--max-cells", "100"])
    assert rc == EXIT_CONFIG


def test_basis_cap_applies_to_the_atom_matrix_alone(tmp_path, capsys):
    # golden K=14 has 32767 atoms: density and clt read the bin operator
    # and run under the default cap, which still refuses M
    cfg = write_config(tmp_path, map={"map": "beta", "beta": PHI},
                       grid={"arity": 2, "max_level": 14})
    for command in ("density", "clt"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == EXIT_OK
    capsys.readouterr()
    assert main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    assert "exceeds cap 8191" in capsys.readouterr().err


def test_caps_defaults_are_the_library_defaults(tmp_path):
    # a config without a caps section runs as the library does by default
    config = cli.RunConfig.from_json(json.loads(write_config(tmp_path).read_text()), tmp_path)
    assemble = inspect.signature(transfer.assemble_matrix).parameters
    make_map = inspect.signature(dynamics.make_map).parameters
    slicing = inspect.signature(transfer.slicing_certificates).parameters
    library = (assemble["basis_cap"].default, assemble["t"].default,
               make_map["probe_level"].default)
    assert (config.basis_cap, config.split_level, config.probe_level) == library \
        == (transfer.BASIS_CAP, transfer.SPLIT_LEVEL, dynamics.PROBE_LEVEL) == (8191, 1, 10)
    assert slicing["t"].default == transfer.SPLIT_LEVEL


@pytest.mark.parametrize("before", ["density", "clt"])
def test_bounds_do_not_depend_on_the_analyses_run_before(tmp_path, before):
    # neither analysis assembles M, whose assembly widens the ledger
    data = {"grid": {"arity": 2, "max_level": 9}, "map": {"map": "lorenz_cusp"}}
    texts = []
    for analyses in (["bounds"], [before, "bounds"]):
        out = tmp_path / "-".join(analyses)
        cli.Runner(cli.RunConfig.from_json(dict(data, analyses=analyses), out)).run()
        texts.append((out / "bounds.json").read_text())
    assert texts[0] == texts[1]


def test_bounds_json_has_one_writer(tmp_path):
    # a run that assembles M writes M's ledger once, with its measured block
    data = {"grid": {"arity": 2, "max_level": 8}, "map": {"map": "lorenz_cusp"}}
    texts = []
    for analyses in (["matrix"], ["matrix", "bounds"], ["spectrum", "bounds"]):
        out = tmp_path / "-".join(analyses)
        written = cli.Runner(cli.RunConfig.from_json(dict(data, analyses=analyses), out)).run()
        assert [p.name for p in written].count("bounds.json") == 1
        texts.append((out / "bounds.json").read_text())
    assert texts[0] == texts[1] == texts[2]
    assert "total_defect_l1" in json.loads(texts[0])["measured"]


def test_explain_passes_the_integrability_gate(tmp_path):
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 6},
                       params={"eps": 0.05, "delta": 0.1})
    for argv in (["bounds"], ["explain", "C_ES"]):
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_ASSUMPTION


def test_spectrum_and_decay_share_one_factorisation(tmp_path, monkeypatch):
    calls = {"factorise": 0, "density": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted("factorise", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted("factorise", np.linalg.eigvals))
    monkeypatch.setattr(spectral, "eigs", counted("factorise", spectral.eigs))
    density = counted("density", spectral.invariant_density)
    monkeypatch.setattr(cli, "invariant_density", density)
    monkeypatch.setattr(spectral, "invariant_density", density)
    # beta=1.8 is not level-triangular, so its spectrum needs an ARPACK solve
    config = cli.RunConfig.from_json(
        {"grid": {"arity": 2, "max_level": 6}, "map": {"map": "beta", "beta": 1.8},
         "analyses": ["spectrum", "decay"]}, tmp_path)
    cli.Runner(config).run()
    assert calls == {"factorise": 1, "density": 1}
    decay = json.loads((tmp_path / "decay.json").read_text())
    gap = json.loads((tmp_path / "spectral.json").read_text())["gap"]
    assert decay["certificate_rate"] == pytest.approx(1.0 - gap, abs=1e-15)


def test_spectrum_alone_computes_no_density(tmp_path, monkeypatch):
    calls, solve = [], spectral.invariant_density

    def density(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "invariant_density", density)
    monkeypatch.setattr(spectral, "invariant_density", density)
    config = cli.RunConfig.from_json(
        {"grid": {"arity": 2, "max_level": 6}, "map": {"map": "beta", "beta": 1.8},
         "analyses": ["spectrum"]}, tmp_path)
    cli.Runner(config).run()
    assert calls == []


def test_a_basis_too_small_for_arpack_is_solved_densely(tmp_path):
    # beta=1.8 at K=1 has 3 atoms and is not level-triangular
    cfg = write_config(tmp_path, grid={"arity": 2, "max_level": 1},
                       map={"map": "beta", "beta": 1.8})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "spectral.json").read_text())["solver"]
    assert solver == {"method": "dense", "k": 3, "ncv": None, "converged": True}


def test_arpack_solves_repeat_exactly(tmp_path):
    # on this matrix ARPACK asks for restart vectors, which an unseeded
    # generator would draw differently on every solve
    config = {"grid": {"arity": 2, "max_level": 6}, "map": {"map": "m_ary", "arity": 3},
              "analyses": ["spectrum", "decay"]}
    runners = [cli.Runner(cli.RunConfig.from_json(config, tmp_path / name)) for name in "ab"]
    tm = runners[0].matrix()
    assert spectral.eigenvalues(tm).values.tobytes() == spectral.eigenvalues(tm).values.tobytes()
    for runner in runners:
        runner.run()
    for fname in ("spectrum.csv", "spectral.json", "decay.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_arpack_failure_is_a_numeric_failure(tmp_path, monkeypatch):
    def stalled(A, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

    monkeypatch.setattr(spectral, "eigs", stalled)
    cfg = write_config(tmp_path, map={"map": "beta", "beta": 1.8},
                       grid={"arity": 2, "max_level": 6})
    tm = cli.Runner(cli.RunConfig.from_json(json.loads(cfg.read_text()), tmp_path)).matrix()
    with pytest.raises(ConvergenceError, match="ARPACK"):
        spectral.eigenvalues(tm)
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_NUMERIC
