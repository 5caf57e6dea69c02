import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import shutil
import struct
import warnings

import numpy as np
import pytest

from fene import coupling, fluid, runner
from fene.checkpoint import MAGIC, VERSION, checkpoint_load, checkpoint_save
from fene.cli import main as cli_main
from fene.errors import ConfigError, VersionError
from fene.fokker_planck import FokkerPlanckSolver
from fene.model import ModelParams
from fene.runner import CONFIG_SCHEMA, RunContext, TimeSeriesRecord, \
    envelope_margin, load_series, parse_config, parse_config_text, run

BASE = """
scenario = {scenario}
seed = {seed}
max_steps = {steps}
grid.n_points = 16
ball.n_radial = 16
ball.n_angular = 16
ball.n_basis = 12
output = {output}
{extra}
"""


def write_cfg(tmp_path, name="run.cfg", scenario="equilibrium", seed=5,
              steps=20, extra="", outdir=None):
    """BASE with the lines of extra; a key set in extra replaces its BASE
    line."""
    outdir = outdir or str(tmp_path / f"{scenario}_out")
    path = tmp_path / name
    base = BASE.format(scenario=scenario, seed=seed, steps=steps,
                       output=outdir, extra="")
    own = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines()
            if line.partition("=")[0].strip() not in own]
    path.write_text("\n".join(kept) + "\n" + extra + "\n")
    return str(path), outdir


def test_schema_defaults_parse():
    cfg = parse_config_text("")
    assert cfg["scenario"] == "equilibrium"
    assert cfg["model.b"] == 4.0
    for key in CONFIG_SCHEMA:
        cfg[key]
    # chi_n at an index, at n_radial (auto), or no cut-off
    for text, chi in (("off", None), ("none", None), ("auto", "auto"),
                      ("7", 7)):
        parsed = parse_config_text(f"ball.chi_index = {text}\n")
        assert parsed["ball.chi_index"] == chi
        assert type(parsed["ball.chi_index"]) is type(chi)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("scenario = equilibrium\nmodle.a = 1.0\n")
    assert err.value.line == 2
    assert err.value.field == "modle.a"


def test_parse_rejects_duplicates_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text("grid.n_points = many\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError, match=r"^line 3: expected 'key = value'$"):
        parse_config_text("seed = 1\n# a comment = none\nfluid.dt 0.002\n")


# the first refused and the first accepted value of each key whose
# CONFIG_SCHEMA parser checks a range
@pytest.mark.parametrize("key, refused, accepted", [
    ("seed", "-1", "0"),
    ("max_steps", "-1", "0"),
    ("snapshots.every", "-1", "0"),
    ("record_every", "0", "1"),
    ("blowup_ceiling", "0", "5e-324"),
    # NaN is refused, and inf is no ceiling
    ("blowup_ceiling", "nan", "inf"),
    ("scenario.rho0", "inf", "1.7976931348623157e308"),
    ("scenario.mean_velocity", "-inf", "-1.7976931348623157e308"),
    ("scenario.amplitude", "nan", "0"),
    ("experiment.horizon", "0", "5e-324"),
    ("experiment.horizon", "inf", "1.7976931348623157e308"),
    ("experiment.deltas", "0.01, 0.01", "0.01, 0.02"),
    ("experiment.deltas", "0, 0.01", "5e-324, 0.01"),
    ("experiment.deltas", "0.01, inf", "0.01, 1.7976931348623157e308"),
    ("experiment.lemma_deltas", "", "0.01"),
    ("experiment.lemma_deltas", "0", "5e-324"),
    ("experiment.lemma_deltas", "nan", "1.7976931348623157e308"),
    ("experiment.ensemble", "99", "100"),
    ("fixed_point.s_prime", "-1", "0"),
    ("fixed_point.s_prime", "2", "1"),
    ("fixed_point.max_iters", "1", "2"),
])
def test_a_range_is_checked_by_its_schema_parser(key, refused, accepted):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"# edge of {key}\n{key} = {refused}\n")
    assert (err.value.line, err.value.field) == (2, key)
    parse_config_text(f"{key} = {accepted}\n")


def test_invalid_b_names_constraint(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, extra="model.b = 1.5")
    stderr_path = tmp_path / "err.json"
    with open(stderr_path, "w") as fh:
        code = run(cfg_path, stderr=fh)
    assert code == 2
    message = json.loads(stderr_path.read_text())
    assert message["reason"] == "ConfigError"
    assert "b > 2" in message["message"]


def test_equilibrium_run_is_steady(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, steps=50)
    assert run(cfg_path) == 0
    records = load_series(outdir)
    assert len(records) == 51
    for attr in ("mass", "momentum_x", "polymer_mass"):
        series = np.array([getattr(r, attr) for r in records])
        assert np.max(np.abs(series - series[0])) < 1e-10
    manifest = json.loads((tmp_path / "equilibrium_out/manifest.json")
                          .read_text() if False else
                          open(os.path.join(outdir, "manifest.json")).read())
    assert manifest["status"] == "ok"
    assert manifest["outcome"]["drifts"]["mass"] < 1e-10


def test_runs_are_seed_deterministic(tmp_path):
    cfg_path, out_a = write_cfg(tmp_path, "a.cfg", scenario="shear_perturbation",
                                steps=30, outdir=str(tmp_path / "out_a"))
    cfg_path_b, out_b = write_cfg(tmp_path, "b.cfg",
                                  scenario="shear_perturbation", steps=30,
                                  outdir=str(tmp_path / "out_b"))
    assert run(cfg_path) == 0
    assert run(cfg_path_b) == 0
    bytes_a = open(os.path.join(out_a, "series.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "series.csv"), "rb").read()
    assert bytes_a == bytes_b


def envelope_records(r0, r1, grad):
    """Two monitored rows one time unit apart: (min_r, max_r) = r0 at t = 0
    and r1 at t = 1, with |grad u| = grad throughout, so I(1) = grad."""
    zeros = (0.0,) * 4
    return [TimeSeriesRecord(
        time=t, mass=0.0, momentum_x=0.0, momentum_y=0.0, polymer_mass=0.0,
        min_r=lo, max_r=hi, min_psi_sample=0.0, blowup_indicator=0.0,
        cutoff_active=0, grad_u_sup=grad, fluid_energy_s=zeros,
        u_norm_sq_s=zeros + (0.0,), fp_l2m_s=zeros, fp_h1m_s=zeros,
        stress_sq_s=zeros, forcing_sq_s=zeros)
        for t, (lo, hi) in ((0.0, r0), (1.0, r1))]


def test_envelope_margin():
    # the first row defines the envelope, so the margin is taken over the
    # later rows: 0 for a steady r, the gap to the envelope while r stays
    # inside and minus the overshoot once it leaves
    p = ModelParams()
    assert envelope_margin(envelope_records((1.5, 1.5), (1.5, 1.5), 0.0),
                           p) == 0.0
    # no |grad u| integral: the envelope is [inf r0, sup r0] itself
    assert envelope_margin(envelope_records((1.5, 1.5), (1.4, 1.5), 0.0),
                           p) == pytest.approx(-0.1, rel=1e-14)
    # gamma = 3 gives c = 1, so I = log 2 bounds r by r0 / 2 and 2 r0
    p3 = ModelParams(gamma=3.0)
    log2 = np.log(2.0)
    below = envelope_records((1.0, 1.0), (0.4, 1.0), log2)
    above = envelope_records((1.0, 1.0), (1.0, 2.2), log2)
    assert envelope_margin(below, p3) == pytest.approx(-0.1, rel=1e-14)
    assert envelope_margin(above, p3) == pytest.approx(-0.2, rel=1e-14)
    # the envelope widens with the integral: r0 / 4 < 0.4 at I = 2 log 2
    wider = envelope_records((1.0, 1.0), (0.4, 1.0), 2.0 * log2)
    assert envelope_margin(wider, p3) == pytest.approx(0.15, rel=1e-14)
    # c = (gamma - 1)/2 = 2 at gamma = 5: I = log 2 also bounds r by r0 / 4
    assert envelope_margin(below, ModelParams(gamma=5.0)) == \
        pytest.approx(0.15, rel=1e-14)
    # one record is its own envelope
    assert envelope_margin(below[:1], p3) == 0.0


def test_fitted_psi_constant_without_velocity_is_infinite():
    # c bounds the growth of log |psi|^2 by c int |u|^2_{s+1}: growth over
    # an interval where that integral is 0 needs an infinite c
    def records(u_sq):
        return [dataclasses.replace(r, fp_l2m_s=(energy,) * 4,
                                    u_norm_sq_s=(u_sq,) * 5)
                for r, energy in zip(envelope_records((1, 1), (1, 1), 0.0),
                                     (1.0, 2.0))]

    assert runner.fitted_psi_constant(records(0.0)) == np.inf
    assert runner.fitted_psi_constant(records(0.5)) == \
        pytest.approx(2 * np.log(2.0), rel=1e-14)


def test_checkpoint_roundtrip_and_errors(tmp_path, grid16, basis16, params):
    cfg = parse_config_text("grid.n_points = 16\nball.n_radial = 16\n"
                            "ball.n_angular = 16\nball.n_basis = 12\n")
    ctx = RunContext(cfg)
    cfg["scenario"] = "shear_perturbation"
    state = ctx.initial_state()
    path = str(tmp_path / "state.fkp")
    checkpoint_save(state, path)
    loaded = checkpoint_load(path, grid=ctx.grid, basis=ctx.basis)
    assert loaded.time == state.time
    assert np.array_equal(loaded.fluid.r, state.fluid.r)
    assert np.array_equal(loaded.psi.coeffs, state.psi.coeffs)
    # byte-identical re-save
    path2 = str(tmp_path / "state2.fkp")
    checkpoint_save(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()
    # standalone load rebuilds the basis deterministically
    alone = checkpoint_load(path)
    assert np.array_equal(alone.psi.coeffs, state.psi.coeffs)

    bad = tmp_path / "bad.fkp"
    bad.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(VersionError):
        checkpoint_load(str(bad))
    trunc = tmp_path / "trunc.fkp"
    trunc.write_bytes(open(path, "rb").read()[:100])
    with pytest.raises(VersionError):
        checkpoint_load(str(trunc))
    odd = tmp_path / "odd.fkp"   # a grid size no TorusGrid accepts
    odd.write_bytes(struct.pack("<4sIIIIIdd", MAGIC, VERSION, 7, 16, 16, 12,
                                4.0, 0.0))
    with pytest.raises(VersionError):
        checkpoint_load(str(odd))
    # a header b (at byte 24) or time (at byte 32) that no save writes
    for offset, value in ((24, np.nan), (24, np.inf), (32, np.nan),
                          (32, -np.inf), (32, -1e-3)):
        patched = bytearray(open(path, "rb").read())
        patched[offset:offset + 8] = struct.pack("<d", value)
        odd.write_bytes(bytes(patched))
        with pytest.raises(VersionError, match="header time"):
            checkpoint_load(str(odd))


@pytest.mark.parametrize("offset, fmt, value", [
    (24, "<d", 1.5),   # b <= 2
    (12, "<I", 2),     # n_radial below the quadrature's least
    (16, "<I", 7),     # an odd n_angular
], ids=["b=1.5", "n_radial=2", "n_angular=7"])
def test_checkpoint_refuses_ball_fields_no_version_wrote(tmp_path, offset,
                                                        fmt, value):
    # loading without a basis rebuilds it from the header: a field that no
    # quadrature or basis accepts is a VersionError, like a bad n_points
    ctx = RunContext(parse_config_text(
        "scenario = shear_perturbation\ngrid.n_points = 16\n"
        "ball.n_radial = 16\nball.n_angular = 16\nball.n_basis = 12\n"))
    path = tmp_path / "state.fkp"
    checkpoint_save(ctx.initial_state(), str(path))
    raw = bytearray(path.read_bytes())
    raw[offset:offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        checkpoint_load(str(path))


def test_resume_matches_uninterrupted_bitwise(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, scenario="shear_perturbation",
                                 steps=40, extra="snapshots.every = 20")
    assert run(cfg_path) == 0
    resumed_dir = str(tmp_path / "resumed")
    snap = os.path.join(outdir, "snapshots", "step000020.fkp")
    assert run(cfg_path, output=resumed_dir, resume_from=snap) == 0
    full = open(os.path.join(outdir, "series.csv")).read().splitlines()
    part = open(os.path.join(resumed_dir, "series.csv")).read().splitlines()
    assert part[0] == full[0]            # header
    assert part[1:] == full[21:]         # rows from the snapshot onward
    via_cli = str(tmp_path / "resumed_cli")
    assert cli_main(["resume", snap, cfg_path, "--output", via_cli]) == 0
    assert open(os.path.join(via_cli, "series.csv")).read().splitlines() == \
        part


def report_lines(run_dir):
    stream = io.StringIO()
    assert runner.report(run_dir, stream=stream) == 0
    return stream.getvalue().splitlines()


def test_stress_difference_artifacts(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, scenario="stress_difference",
                                 steps=30, extra="experiment.horizon = 0.03")
    assert run(cfg_path) == 0
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert abs(manifest["outcome"]["fluid_slope"] - 1.0) < 0.1
    assert abs(manifest["outcome"]["fp_slope"] - 1.0) < 0.1
    lines = open(os.path.join(outdir, "difference.csv")).read().splitlines()
    assert lines[0] == "kind,delta,distance"
    assert len(lines) == 7
    outcome = manifest["outcome"]
    assert report_lines(outdir) == [
        f"run: {outdir}", "status: ok", "scenario: stress_difference",
        f"fluid_slope: {outcome['fluid_slope']}",
        f"fp_slope: {outcome['fp_slope']}"]


def test_contraction_artifacts(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, scenario="contraction_study",
                                 steps=40, extra="experiment.horizon = 0.04")
    assert run(cfg_path) == 0
    outcome = json.load(open(os.path.join(outdir, "manifest.json")))["outcome"]
    assert outcome["all_ratios_below_one"]
    assert outcome["distance_to_monolithic"] < 1e-4
    assert report_lines(outdir) == [
        f"run: {outdir}", "status: ok", "scenario: contraction_study",
        f"ratios: {outcome['ratios']}",
        f"converged: {outcome['converged']}",
        f"distance_to_monolithic: {outcome['distance_to_monolithic']}"]


def test_lemma_a1_artifacts(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, scenario="lemma_a1", seed=3,
                                 extra="experiment.ensemble = 120")
    assert run(cfg_path) == 0
    outcome = json.load(open(os.path.join(outdir, "manifest.json")))["outcome"]
    cs = outcome["c_delta"]
    assert outcome["monotone"]
    assert cs["0.01"] >= cs["0.1"] >= cs["1.0"]
    assert report_lines(outdir) == [
        f"run: {outdir}", "status: ok", "scenario: lemma_a1",
        f"c_delta: {cs}", "monotone: True"]
    # bitwise reproducibility of the experiment
    second = str(tmp_path / "lemma_again")
    assert run(cfg_path, output=second) == 0
    assert open(os.path.join(outdir, "lemma_a1.csv"), "rb").read() == \
        open(os.path.join(second, "lemma_a1.csv"), "rb").read()


def test_lemma_a1_requires_ensemble(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, scenario="lemma_a1",
                            extra="experiment.ensemble = 10")
    assert run(cfg_path, stderr=open(os.devnull, "w")) == 2
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    lineno = open(cfg_path).read().splitlines().index(
        "experiment.ensemble = 10") + 1
    assert (err.value.line, err.value.field) == (lineno, "experiment.ensemble")


def test_blowup_ceiling_aborts(tmp_path):
    cfg_path, outdir = write_cfg(
        tmp_path, scenario="shear_perturbation", steps=50,
        extra="scenario.amplitude = 0.05\nblowup_ceiling = 1e-6")
    stderr_path = tmp_path / "blow.json"
    with open(stderr_path, "w") as fh:
        code = run(cfg_path, stderr=fh)
    assert code == 5
    assert json.loads(stderr_path.read_text())["reason"] == "BlowupCeiling"
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["status"] == "error"
    assert manifest["config"]["blowup_ceiling"] == 1e-6


@pytest.mark.parametrize("flag, value", [
    ("--seed", "1"), ("--max-steps", "3"), ("--ceiling", "10")])
def test_run_settings_have_no_cli_override(tmp_path, capsys, flag, value):
    # a setting given on the command line would escape config_hash, so fene
    # run takes none: argparse refuses the flag (exit 2) and nothing runs
    cfg_path, outdir = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", cfg_path, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not os.path.exists(outdir)


def test_manifest_hashes_the_config_text(tmp_path):
    cfg_path, outdir = write_cfg(tmp_path, extra="max_steps = 2")
    assert cli_main(["run", cfg_path]) == 0
    text = open(cfg_path, encoding="utf-8").read()
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["config_hash"] == \
        hashlib.sha256(text.encode()).hexdigest()
    assert manifest["config"] == json.loads(json.dumps(
        parse_config_text(text)))


def test_empty_output_is_a_config_error(tmp_path, capsys, monkeypatch):
    # "output =" parsed to "", and os.makedirs("") ended the run as an
    # IOError (exit 1)
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = write_cfg(tmp_path, extra="output =")
    assert cli_main(["run", cfg_path]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["reason"] == "ConfigError"
    lineno = open(cfg_path).read().splitlines().index("output =") + 1
    assert payload["message"] == (f"line {lineno}: [output] expected a "
                                  "value, got none")
    assert os.listdir(tmp_path) == ["run.cfg"]
    with pytest.raises(ConfigError) as err:
        parse_config_text("output =   \n")
    assert (err.value.line, err.value.field) == (1, "output")


def test_a_missing_config_is_an_io_error(tmp_path):
    # nothing names an output before the file is read, so none is made
    stderr = io.StringIO()
    outdir = tmp_path / "out"
    assert run(str(tmp_path / "missing.cfg"), output=str(outdir),
               stderr=stderr) == 1
    assert json.loads(stderr.getvalue())["reason"] == "IOError"
    assert not outdir.exists()


def test_cfl_guard_holds_sound_speed(tmp_path):
    # with almost no viscosity the acoustic speed sets the CFL bound (about
    # 0.12 here); dt = 0.15 must be refused before the first step
    outdir = str(tmp_path / "acoustic_out")
    cfg_path = tmp_path / "acoustic.cfg"
    cfg_path.write_text("\n".join([
        "scenario = shear_perturbation", "max_steps = 30",
        f"output = {outdir}", "model.mu_s = 1e-3", "model.mu_b = 0",
        "scenario.amplitude = 1e-2", "fluid.dt = 0.15"]))
    stderr_path = tmp_path / "acoustic.json"
    with open(stderr_path, "w") as fh:
        code = run(str(cfg_path), stderr=fh)
    assert code == 4
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "StabilityViolation"
    assert "CFL" in payload["message"]


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path, outdir = write_cfg(tmp_path, steps=10)
    assert cli_main(["run", cfg_path]) == 0
    assert cli_main(["report", outdir]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "drift mass" in out


def test_positivity_loss_exit_code(tmp_path):
    # strong compression on a thin density past the CFL bound (a safety
    # factor of 1e6)
    cfg_path, _ = write_cfg(
        tmp_path, scenario="density_bump", steps=5, extra="\n".join([
            "scenario.amplitude = 0.98",
            "scenario.rho0 = 0.0001",
            "fluid.dt = 0.05",
            "fluid.cfl_safety = 1e6",
            "model.gamma = 3.0",
        ]))
    with open(os.devnull, "w") as devnull:
        code = run(cfg_path, stderr=devnull)
    assert code in (3, 4)   # positivity loss, or stability guard upstream


def small_shear_cfg(tmp_path, steps, extra=""):
    """shear_perturbation at n = 16 on an 8 x 8 ball with 10 modes."""
    outdir = str(tmp_path / "small_out")
    path = tmp_path / "small.cfg"
    path.write_text("\n".join([
        "scenario = shear_perturbation", f"max_steps = {steps}",
        "grid.n_points = 16", "ball.n_radial = 8", "ball.n_angular = 8",
        "ball.n_basis = 10", f"output = {outdir}", extra]))
    return str(path), outdir


def test_series_round_trips_through_load_series(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=5)
    assert run(cfg_path) == 0
    header = TimeSeriesRecord.header()
    # 11 scalar columns, then Sobolev blocks of 4, 5, 4, 4, 4 and 4 columns
    assert len(header) == 36
    assert header[10:12] == ["grad_u_sup", "fluid_energy_s0"]
    assert header[15:20] == [f"u_norm_sq_s{s}" for s in range(5)]
    assert header[-1] == "forcing_sq_s3"
    path = os.path.join(outdir, "series.csv")
    lines = open(path).read().splitlines()
    assert lines[0].split(",") == header
    records = load_series(outdir)
    assert [r.row() for r in records] == \
        [[float(v) for v in line.split(",")] for line in lines[1:]]
    again = str(tmp_path / "again.csv")
    runner.write_csv(again, header, [r.row() for r in records])
    assert open(again, "rb").read() == open(path, "rb").read()


def test_nan_in_resumed_state_trips_ceiling_at_start(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=5)
    state = RunContext(parse_config(cfg_path)).initial_state()
    state.psi.coeffs[3, 1, 1] = np.nan
    snap = str(tmp_path / "nan.fkp")
    checkpoint_save(state, snap)
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        code = run(cfg_path, resume_from=snap, stderr=fh)
    assert code == 5
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "BlowupCeiling"
    assert payload["message"] == "non-finite psi coefficients at step 0"
    # the first state is checked before it is recorded
    assert not os.path.exists(os.path.join(outdir, "series.csv"))


@pytest.mark.parametrize("field, code, reason", [
    ("r", 5, "BlowupCeiling"), ("u", 5, "BlowupCeiling"),
    ("negative r", 3, "PositivityLoss")])
def test_a_resumed_state_is_checked_before_its_first_record(
        tmp_path, field, code, reason):
    # a checkpoint holding a NaN r coefficient (or a negative r) loads, and
    # the trajectory refuses it at its step, NaN before positivity
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=5)
    ctx = RunContext(parse_config(cfg_path))
    state = ctx.initial_state()
    coeffs = {"r": state.fluid.r, "u": state.fluid.u,
              "psi": state.psi.coeffs}
    if field == "negative r":
        state.fluid.r[...] *= -1.0
    else:
        coeffs[field][0, 1, 1] = np.nan
    state.time = state.fluid.time = state.psi.time = 2 * ctx.fluid_cfg.dt
    snap = str(tmp_path / "poisoned.fkp")
    checkpoint_save(state, snap)
    stderr_path = tmp_path / "poisoned.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, resume_from=snap, stderr=fh) == code
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == reason
    if field == "negative r":
        assert re.fullmatch(r"min r = -\S+ on the grid at step 2",
                            payload["message"])
    else:
        assert payload["message"] == \
            f"non-finite {field} coefficients at step 2"
    assert json.load(open(os.path.join(outdir, "manifest.json")))[
        "reason"] == reason
    # no record was made, so there is no series.csv; the report still runs
    assert not os.path.exists(os.path.join(outdir, "series.csv"))
    out = io.StringIO()
    assert runner.report(outdir, stream=out) == 0
    assert "status: error" in out.getvalue()


def test_resume_refuses_a_header_time_that_is_not_finite(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=6,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    raw = bytearray(open(os.path.join(outdir, "snapshots", "step000004.fkp"),
                         "rb").read())
    for value in (np.nan, np.inf):
        raw[32:40] = struct.pack("<d", value)   # the f64 time of the header
        snap = tmp_path / "patched.fkp"
        snap.write_bytes(bytes(raw))
        resumed = str(tmp_path / "resumed")
        stderr_path = tmp_path / "patched.json"
        with open(stderr_path, "w") as fh:
            assert run(cfg_path, output=resumed, resume_from=str(snap),
                       stderr=fh) == 6
        assert json.loads(stderr_path.read_text())["reason"] == "VersionError"
        manifest = json.load(open(os.path.join(resumed, "manifest.json")))
        assert manifest["reason"] == "VersionError"
        assert "header time" in manifest["message"]


def test_report_without_a_manifest_is_an_io_error(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["reason"] == "IOError"
    assert "manifest.json" in payload["message"]
    (tmp_path / "manifest.json").write_text("{")   # cut short
    assert cli_main(["report", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["reason"] == "IOError"


def test_report_refuses_a_manifest_that_is_not_an_object(tmp_path, capsys):
    # so is an outcome that is not an object, whose keys report looks up
    for text, ending in (
            ("[]\n", "manifest.json: not a JSON object"),
            ('{"status": "ok", "outcome": 5}\n',
             "outcome is not a JSON object"),
            ('{"status": "ok", "outcome": "c_delta"}\n',
             "outcome is not a JSON object"),
            ('{"status": "ok", "outcome": [1, 2]}\n',
             "outcome is not a JSON object")):
        (tmp_path / "manifest.json").write_text(text)
        assert cli_main(["report", str(tmp_path)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        payload = json.loads(captured.err)
        assert payload["reason"] == "IOError", text
        assert payload["message"].endswith(ending), text


def test_report_refuses_a_series_without_its_config(tmp_path, capsys):
    cfg_path, outdir = write_cfg(tmp_path, steps=3)
    assert run(cfg_path) == 0
    path = os.path.join(outdir, "manifest.json")
    manifest = json.load(open(path))
    del manifest["config"]
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli_main(["report", outdir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["reason"] == "IOError"
    assert "no model config for its series.csv" in payload["message"]


def word_in_row_2(rows):
    """rows with the second cell of data row 2 replaced by a word."""
    cells = rows[2].split(",")
    cells[1] = "abc"
    return rows[:2] + [",".join(cells)] + rows[3:]


@pytest.mark.parametrize("edit, message", [
    (lambda rows: ["time,mass"] + rows[1:], "unexpected column layout"),
    # the last row cut by three cells
    (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 3)[0]],
     r"row 4 has \d+ cells$"),
    # the header alone
    (lambda rows: rows[:1], "no rows$"),
    (word_in_row_2, "could not convert string to float: 'abc'$"),
], ids=["other_header", "short_row", "no_rows", "not_a_number"])
def test_report_refuses_a_bad_series(tmp_path, capsys, edit, message):
    cfg_path, outdir = write_cfg(tmp_path, steps=3)
    assert run(cfg_path) == 0
    path = os.path.join(outdir, "series.csv")
    with open(path) as fh:
        rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(rows)) + "\n")
    capsys.readouterr()
    assert cli_main(["report", outdir]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["reason"] == "VersionError"
    assert re.search(message, payload["message"])


@pytest.mark.parametrize("scenario",
                         ["stress_difference", "contraction_study",
                          "lemma_a1"])
def test_resume_refuses_scenarios_that_do_not_step(tmp_path, scenario):
    cfg_path, _ = small_shear_cfg(tmp_path, steps=1)
    snap = str(tmp_path / "start.fkp")
    checkpoint_save(RunContext(parse_config(cfg_path)).initial_state(), snap)
    other, outdir = write_cfg(tmp_path, name="other.cfg", scenario=scenario)
    stderr_path = tmp_path / "resume.json"
    with open(stderr_path, "w") as fh:
        assert run(other, resume_from=snap, stderr=fh) == 2
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "ConfigError"
    assert payload["message"].startswith("[scenario] ")
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["reason"] == "ConfigError"
    assert "resumed_from" not in json.dumps(manifest)


def test_resume_refuses_a_checkpoint_at_or_past_max_steps(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=4,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    snap = os.path.join(outdir, "snapshots", "step000004.fkp")
    for steps in (2, 4):
        shorter = tmp_path / f"steps{steps}.cfg"
        shorter.write_text(open(cfg_path).read().replace(
            "max_steps = 4\n", f"max_steps = {steps}\n"))
        resumed = str(tmp_path / f"resumed{steps}")
        stderr_path = tmp_path / "resume.json"
        with open(stderr_path, "w") as fh:
            assert run(str(shorter), output=resumed, resume_from=snap,
                       stderr=fh) == 2
        payload = json.loads(stderr_path.read_text())
        assert payload["reason"] == "ConfigError"
        assert payload["message"].startswith("[max_steps] ")
        manifest = json.load(open(os.path.join(resumed, "manifest.json")))
        assert manifest["reason"] == "ConfigError"
        assert "resumed_from" not in json.dumps(manifest)
        assert not os.path.exists(os.path.join(resumed, "series.csv"))


def test_resume_refuses_a_checkpoint_written_under_another_dt(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=6,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    snap = os.path.join(outdir, "snapshots", "step000004.fkp")   # t = 0.004
    other = tmp_path / "dt3.cfg"
    other.write_text(open(cfg_path).read() + "\nfluid.dt = 3e-3\n")
    resumed = str(tmp_path / "resumed")
    stderr_path = tmp_path / "resume.json"
    with open(stderr_path, "w") as fh:
        assert run(str(other), output=resumed, resume_from=snap,
                   stderr=fh) == 6
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "VersionError"
    assert "fluid.dt" in payload["message"]
    manifest = json.load(open(os.path.join(resumed, "manifest.json")))
    assert manifest["reason"] == "VersionError"
    assert not os.path.exists(os.path.join(resumed, "series.csv"))


@pytest.mark.parametrize("line, other, message", [
    ("grid.n_points = 16", "grid.n_points = 32",
     "grid size 16 does not match the configured 32"),
    ("ball.n_basis = 10", "ball.n_basis = 12",
     "configuration-space dimensions do not match the configured basis"),
], ids=["grid", "ball"])
def test_resume_refuses_a_checkpoint_of_another_grid_or_ball(
        tmp_path, line, other, message):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=4,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    snap = os.path.join(outdir, "snapshots", "step000002.fkp")
    text = open(cfg_path).read()
    assert line in text
    changed = tmp_path / "changed.cfg"
    changed.write_text(text.replace(line, other))
    resumed = str(tmp_path / "resumed")
    stderr_path = tmp_path / "resume.json"
    with open(stderr_path, "w") as fh:
        assert run(str(changed), output=resumed, resume_from=snap,
                   stderr=fh) == 6
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "VersionError"
    assert payload["message"] == f"{snap}: {message}"
    manifest = json.load(open(os.path.join(resumed, "manifest.json")))
    assert manifest["reason"] == "VersionError"
    assert manifest["message"] == payload["message"]
    assert "resumed_from" not in json.dumps(manifest)
    assert not os.path.exists(os.path.join(resumed, "series.csv"))


def test_a_stopped_run_leaves_only_its_own_series(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=4,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    assert len(load_series(outdir)) == 5
    # a checkpoint of that run kept outside outdir, which reruns clear
    snap = str(tmp_path / "step000002.fkp")   # t = 0.002
    shutil.copy(os.path.join(outdir, "snapshots", "step000002.fkp"), snap)
    # dt = 0.15 is refused at the first step, after the record at t = 0
    unstable = tmp_path / "unstable.cfg"
    unstable.write_text(open(cfg_path).read() + "\nfluid.dt = 0.15\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(unstable), stderr=devnull) == 4
    assert [rec.time for rec in load_series(outdir)] == [0.0]
    report = io.StringIO()
    runner.report(outdir, stream=report)
    assert "steps recorded: 1\n" in report.getvalue()
    # a resume refused before its first record leaves no series.csv
    other = tmp_path / "dt3.cfg"
    other.write_text(open(cfg_path).read() + "\nfluid.dt = 3e-3\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(other), resume_from=snap, stderr=devnull) == 6
    assert not os.path.exists(os.path.join(outdir, "series.csv"))
    # so does a rerun whose config is refused before its first step
    assert run(cfg_path) == 0
    zero_dt = tmp_path / "dt0.cfg"
    zero_dt.write_text(open(cfg_path).read() + "\nfluid.dt = 0\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(zero_dt), stderr=devnull) == 2
    assert not os.path.exists(os.path.join(outdir, "series.csv"))
    # or one refused while its config is parsed, whose manifest has none
    assert run(cfg_path) == 0
    typo = tmp_path / "typo.cfg"
    typo.write_text(open(cfg_path).read() + "\nfluid.dtt = 1e-3\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(typo), stderr=devnull) == 2
    assert "config" not in json.load(open(os.path.join(outdir,
                                                       "manifest.json")))
    assert not os.path.exists(os.path.join(outdir, "series.csv"))


def snapshot_names(outdir):
    snapdir = os.path.join(outdir, "snapshots")
    return sorted(os.listdir(snapdir)) if os.path.isdir(snapdir) else []


def test_a_rerun_clears_the_snapshots_of_an_earlier_run(tmp_path):
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=4,
                                       extra="snapshots.every = 2")
    assert run(cfg_path) == 0
    assert snapshot_names(outdir) == ["step000002.fkp", "step000004.fkp"]
    unstable = tmp_path / "unstable.cfg"
    unstable.write_text(open(cfg_path).read() + "\nfluid.dt = 0.15\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(unstable), stderr=devnull) == 4
    assert snapshot_names(outdir) == []
    # a rerun refused while its config is parsed clears them too
    assert run(cfg_path) == 0
    typo = tmp_path / "typo.cfg"
    typo.write_text(open(cfg_path).read() + "\nfluid.dtt = 1e-3\n")
    with open(os.devnull, "w") as devnull:
        assert run(str(typo), stderr=devnull) == 2
    assert snapshot_names(outdir) == []
    # a resume into the same directory keeps the checkpoint it starts from,
    # named by any path, and writes the later ones afresh
    assert run(cfg_path) == 0
    snap = os.path.join(outdir, "snapshots", ".", "step000002.fkp")
    longer = tmp_path / "longer.cfg"
    longer.write_text(open(cfg_path).read().replace("max_steps = 4\n",
                                                    "max_steps = 6\n"))
    assert run(str(longer), resume_from=snap) == 0
    assert snapshot_names(outdir) == ["step000002.fkp", "step000004.fkp",
                                      "step000006.fkp"]
    assert [rec.time for rec in load_series(outdir)][0] == 0.002


def test_nan_between_records_trips_at_its_step(tmp_path, monkeypatch):
    real_step = coupling.coupled_step
    taken = []

    def poisoned(state, *args):
        out = real_step(state, *args)
        taken.append(out[0].time)
        if len(taken) == 3:
            out[0].psi.coeffs[3, 1, 1] = np.nan
        return out

    monkeypatch.setattr(coupling, "coupled_step", poisoned)
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=20,
                                       extra="record_every = 10")
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        code = run(cfg_path, stderr=fh)
    assert code == 5
    assert len(taken) == 3
    assert "at step 3" in json.loads(stderr_path.read_text())["message"]
    assert len(load_series(outdir)) == 1   # the initial record, flushed
    # the error manifest carries the config, so the series can be reported
    out = io.StringIO()
    assert runner.report(outdir, stream=out) == 0
    assert "status: error" in out.getvalue()
    assert "drift mass" in out.getvalue()


def poison_r_at_call(monkeypatch, module, call):
    """Make the SSP-RK3 step of module return a NaN r coefficient at its
    call-th call; returns the list of calls made."""
    real = module.ssprk3
    calls = []

    def poisoned(*args):
        out = real(*args)
        calls.append(out)
        if len(calls) == call:
            out[0][0, 1, 1] = np.nan
        return out

    monkeypatch.setattr(module, "ssprk3", poisoned)
    return calls


def test_nan_r_after_a_step_trips_at_its_step(tmp_path, monkeypatch):
    # the non-finite check comes before positivity, which NaN also fails
    calls = poison_r_at_call(monkeypatch, coupling, 3)
    cfg_path, outdir = small_shear_cfg(tmp_path, steps=20,
                                       extra="record_every = 10")
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, stderr=fh) == 5
    assert len(calls) == 3
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "BlowupCeiling"
    assert payload["message"] == "non-finite r coefficients at step 3"
    assert len(load_series(outdir)) == 1


def test_nan_r_in_stress_difference_trips_at_its_step(tmp_path,
                                                      monkeypatch):
    calls = poison_r_at_call(monkeypatch, fluid, 3)
    cfg_path, _ = write_cfg(tmp_path, scenario="stress_difference",
                            extra="experiment.horizon = 0.01")
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, stderr=fh) == 5
    assert len(calls) == 3
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "BlowupCeiling"
    assert payload["message"] == \
        "non-finite r coefficients in the fluid half at step 3"


def test_fp_scheme_rejected_in_coupled_scenarios(tmp_path):
    # psi has one stepper and one step (fluid.dt) in every scenario, the
    # fixed point iterates max_iters times, and the contraction index is
    # bounded by 1 alone: these keys are gone
    removed = ("fp.scheme = ssprk3_explicit", "fp.dt = 1e-3",
               "fixed_point.stop_tol = 0.0", "fixed_point.s = 2")
    for scenario in runner.SCENARIOS:
        for line in removed:
            cfg_path, _ = write_cfg(tmp_path, scenario=scenario, extra=line)
            stderr_path = tmp_path / "removed.json"
            with open(stderr_path, "w") as fh:
                assert run(cfg_path, stderr=fh) == 2
            payload = json.loads(stderr_path.read_text())
            assert payload["reason"] == "ConfigError"
            key = line.split(" = ")[0]
            assert f"[{key}]" in payload["message"]
            with pytest.raises(ConfigError) as err:
                parse_config(cfg_path)
            assert err.value.field == key


def test_default_contraction_study_stops_at_roundoff(tmp_path):
    # the fourth distance, 3.9e-15, is round-off against iterates of X^1
    # norm 2 pi (floor 1e3 eps 2 pi = 1.4e-12), so it ends the ratio list
    # instead of entering it
    outdir = str(tmp_path / "contraction")
    cfg_path = tmp_path / "contraction.cfg"
    cfg_path.write_text(f"scenario = contraction_study\noutput = {outdir}\n")
    assert run(str(cfg_path)) == 0
    outcome = json.load(open(os.path.join(outdir, "manifest.json")))["outcome"]
    assert len(outcome["distances"]) == 5
    assert len(outcome["ratios"]) == 2
    assert outcome["converged"]
    assert outcome["all_ratios_below_one"]
    assert outcome["distance_to_monolithic"] < 1e-4
    lines = open(os.path.join(outdir, "contraction.csv")).read().splitlines()
    assert len(lines) == 6


def test_contraction_study_of_an_exact_fixed_point(tmp_path):
    # at amplitude 0 the seed is the fixed point: the first distance is
    # exactly 0, so the study converges with no ratio to report
    outdir = str(tmp_path / "still")
    cfg_path = tmp_path / "still.cfg"
    cfg_path.write_text("\n".join([
        "scenario = contraction_study", "scenario.amplitude = 0",
        "grid.n_points = 16", "ball.n_radial = 8", "ball.n_angular = 8",
        "ball.n_basis = 10", f"output = {outdir}"]))
    assert run(str(cfg_path)) == 0
    outcome = json.load(open(os.path.join(outdir, "manifest.json")))["outcome"]
    assert outcome["converged"] is True
    assert outcome["ratios"] == []
    assert outcome["distances"] == [0.0] * 5


def test_stress_difference_fp_half_spans_the_horizon(tmp_path, monkeypatch):
    real_step = coupling.fp_step
    ends = []

    def timed(psi, *args):
        out = real_step(psi, *args)
        ends.append(out.time)
        return out

    monkeypatch.setattr(coupling, "fp_step", timed)
    cfg_path, _ = write_cfg(tmp_path, scenario="stress_difference",
                            extra="\n".join(["experiment.horizon = 0.02",
                                             "fluid.dt = 2e-3"]))
    assert run(cfg_path) == 0
    # four FP trajectories (base and three deltas) of ten steps each
    assert len(ends) == 40
    assert max(ends) == pytest.approx(0.02, rel=1e-12)


def test_nan_in_stress_difference_trips_at_its_step(tmp_path, monkeypatch):
    real_step = coupling.fp_step
    taken = []

    def poisoned(psi, *args):
        out = real_step(psi, *args)
        taken.append(out.time)
        if len(taken) == 3:
            out.coeffs[3, 1, 1] = np.nan
        return out

    monkeypatch.setattr(coupling, "fp_step", poisoned)
    cfg_path, outdir = write_cfg(tmp_path, scenario="stress_difference",
                                 extra="experiment.horizon = 0.01")
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        code = run(cfg_path, stderr=fh)
    assert code == 5
    assert len(taken) == 3
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "BlowupCeiling"
    assert "psi" in payload["message"] and "fp half" in payload["message"]
    assert "at step 3" in payload["message"]


def small_contraction_cfg(tmp_path):
    """contraction_study at n = 16 on an 8 x 8 ball with 10 modes: five
    fixed-point iterates of ten steps each, and a ten-step monolithic
    reference."""
    outdir = str(tmp_path / "contraction_out")
    path = tmp_path / "contraction.cfg"
    path.write_text("\n".join([
        "scenario = contraction_study", "grid.n_points = 16",
        "ball.n_radial = 8", "ball.n_angular = 8", "ball.n_basis = 10",
        "experiment.horizon = 0.01", f"output = {outdir}"]))
    return str(path), outdir


@pytest.mark.parametrize("target, calls, psi_of, where", [
    # step 3 of the last iterate's FP half: call 43 of 5 x 10
    ("fp_step", 43, lambda out: out, "in the fp half at step 3"),
    # the last of the ten monolithic steps
    ("coupled_step", 10, lambda out: out[0].psi,
     "in the monolithic reference at step 10"),
], ids=["fixed_point", "monolithic"])
def test_nan_in_contraction_study_trips_at_its_step(tmp_path, monkeypatch,
                                                    target, calls, psi_of,
                                                    where):
    real_step = getattr(coupling, target)
    taken = []

    def poisoned(*args):
        out = real_step(*args)
        taken.append(psi_of(out).time)
        if len(taken) == calls:
            psi_of(out).coeffs[3, 1, 1] = np.nan
        return out

    monkeypatch.setattr(coupling, target, poisoned)
    cfg_path, outdir = small_contraction_cfg(tmp_path)
    stderr_path = tmp_path / "nan.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, stderr=fh) == 5
    assert len(taken) == calls
    payload = json.loads(stderr_path.read_text())
    assert payload["reason"] == "BlowupCeiling"
    assert f"non-finite psi coefficients {where}" == payload["message"]
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["status"] == "error"
    assert manifest["reason"] == "BlowupCeiling"


@pytest.mark.parametrize("key", ["fluid.dt"])
def test_stress_difference_refuses_dt_beyond_half_horizon(tmp_path, key):
    # round(0.05 / 5.0) = 0 steps: the half would otherwise be stepped past
    # the horizon
    cfg_path, _ = write_cfg(tmp_path, scenario="stress_difference",
                            extra=f"{key} = 5.0")
    stderr_path = tmp_path / "dt.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, stderr=fh) == 2
    assert json.loads(stderr_path.read_text())["reason"] == "ConfigError"
    with pytest.raises(ConfigError) as err:
        RunContext(parse_config(cfg_path))
    assert err.value.field == key


@pytest.mark.parametrize("scenario, line, field", [
    ("shear_perturbation", "fluid.dt = 0", "fluid"),
    # the Galerkin space is the stored block, so its size is no setting
    ("stress_difference", "fluid.n_modes = 0", "fluid.n_modes"),
    ("contraction_study", "fixed_point.max_iters = 1",
     "fixed_point.max_iters"),
    ("contraction_study", "fixed_point.s_prime = 2", "fixed_point.s_prime"),
    ("contraction_study", "experiment.horizon = -1", "experiment.horizon"),
    ("stress_difference", "experiment.horizon = -1", "experiment.horizon"),
    ("stress_difference", "experiment.deltas = 0.01", "experiment.deltas"),
    ("stress_difference", "experiment.deltas = 0.01, 0.01",
     "experiment.deltas"),
    ("stress_difference", "experiment.deltas = -0.001, 0.01",
     "experiment.deltas"),
    ("stress_difference", "experiment.deltas =", "experiment.deltas"),
    # n = 16 retains max(|k1|, |k2|) <= 5
    ("shear_perturbation", "forcing.kind = steady_field\n"
     "forcing.amplitude = 0.5\nforcing.mode = 7, 0", "forcing.mode"),
    ("density_bump", "scenario.mode = 6", "scenario.mode"),
    ("equilibrium", "ball.n_basis = 0", "grid/ball"),
    ("equilibrium", "ball.n_basis = -3", "grid/ball"),
    # on the 16 x 16 ball 11 keeps (4, cos, 0) and 13 keeps (2, cos, 1)
    # without the sin partner
    ("equilibrium", "ball.n_basis = 11", "grid/ball"),
    ("shear_perturbation", "ball.n_basis = 13", "grid/ball"),
    # b = 4: chi refuses an index n <= 2 / sqrt(b) = 1
    ("equilibrium", "ball.chi_index = -2", "ball.chi_index"),
    ("equilibrium", "ball.chi_index = 0", "ball.chi_index"),
    ("equilibrium", "ball.chi_index = 1", "ball.chi_index"),
    ("shear_perturbation", "ball.chi_index = -2", "ball.chi_index"),
    ("shear_perturbation", "ball.chi_index = 0", "ball.chi_index"),
    ("shear_perturbation", "ball.chi_index = 1", "ball.chi_index"),
    # a step count, a record interval of 0 (division by zero) or below,
    # and a negative snapshot interval (a snapshot at every step)
    ("shear_perturbation", "max_steps = -1", "max_steps"),
    ("shear_perturbation", "record_every = 0", "record_every"),
    ("shear_perturbation", "snapshots.every = -1", "snapshots.every"),
    # a ceiling that no indicator can stay under, or none at all
    ("shear_perturbation", "blowup_ceiling = -1", "blowup_ceiling"),
    ("shear_perturbation", "blowup_ceiling = 0", "blowup_ceiling"),
    ("shear_perturbation", "blowup_ceiling = nan", "blowup_ceiling"),
    ("lemma_a1", "blowup_ceiling = -1", "blowup_ceiling"),
    # phi_R needs a finite positive threshold: inf ran as no cut-off
    ("shear_perturbation", "fluid.cutoff_r = 0", "fluid"),
    ("shear_perturbation", "fluid.cutoff_r = -1", "fluid"),
    ("shear_perturbation", "fluid.cutoff_r = inf", "fluid"),
    # a CFL safety factor that is not a finite number > 0
    ("density_bump", "fluid.cfl_safety = nan", "fluid"),
    ("density_bump", "fluid.cfl_safety = inf", "fluid"),
    ("density_bump", "fluid.cfl_safety = 0", "fluid"),
    ("density_bump", "fluid.cfl_safety = -1", "fluid"),
    # the CFL check has no off switch
    ("density_bump", "fluid.cfl_safety = none", "fluid.cfl_safety"),
    # the density transform needs rho > 0 on the grid
    ("equilibrium", "scenario.rho0 = 0", "scenario.rho0"),
    ("density_bump", "scenario.amplitude = 1.5", "scenario.amplitude"),
    ("shear_perturbation", "scenario.amplitude = 2.5", "scenario.amplitude"),
    # X^{s'} with 0 <= s' <= s - 1 in both experiments
    ("stress_difference", "fixed_point.s_prime = -1",
     "fixed_point.s_prime"),
    ("contraction_study", "fixed_point.s_prime = -1",
     "fixed_point.s_prime"),
    # round(0.0004 / 1e-3) = 0 steps: every distance would be 0
    ("contraction_study", "experiment.horizon = 0.0004", "fluid.dt"),
    # round(12.5) = 12 steps would stop short of the horizon
    ("contraction_study", "experiment.horizon = 0.0125",
     "experiment.horizon"),
    ("stress_difference", "experiment.horizon = 0.0125",
     "experiment.horizon"),
    # 1e303 steps against max_steps = 20: it ran until it was killed
    ("contraction_study", "experiment.horizon = 1e300", "experiment.horizon"),
    ("lemma_a1", "experiment.lemma_deltas =", "experiment.lemma_deltas"),
    ("lemma_a1", "experiment.lemma_deltas = 1.0, -1.0",
     "experiment.lemma_deltas"),
    # a step or horizon that is not a finite number > 0
    ("shear_perturbation", "fluid.dt = nan", "fluid"),
    ("shear_perturbation", "fluid.dt = inf", "fluid"),
    ("contraction_study", "fluid.dt = nan", "fluid"),
    ("contraction_study", "experiment.horizon = inf", "experiment.horizon"),
    ("contraction_study", "experiment.horizon = nan", "experiment.horizon"),
    # a NaN setting is refused, not met later as a physics error
    ("shear_perturbation", "forcing.kind = steady_field\n"
     "forcing.amplitude = nan", "forcing"),
    # a finite amplitude whose coefficients overflow in the transform: a
    # steady 1e308 exited 5 at step 1, after a RuntimeWarning
    ("shear_perturbation", "forcing.kind = steady_field\n"
     "forcing.amplitude = 1e308", "forcing"),
    ("shear_perturbation", "forcing.kind = time_periodic\n"
     "forcing.amplitude = 1e308", "forcing"),
    ("stress_difference", "experiment.deltas = 1e-3, nan",
     "experiment.deltas"),
    ("lemma_a1", "experiment.lemma_deltas = 1.0, nan",
     "experiment.lemma_deltas"),
    # an infinite setting is refused, not run as physics: before, these
    # exited 5 (BlowupCeiling at step 0), 4, or 0 with no relaxation
    ("shear_perturbation", "model.gamma = inf", "model"),
    ("shear_perturbation", "model.a = inf", "model"),
    ("shear_perturbation", "model.epsilon = inf", "model"),
    ("shear_perturbation", "model.a11 = inf", "model"),
    ("shear_perturbation", "model.mu_s = inf", "model"),
    ("shear_perturbation", "model.mu_b = inf", "model"),
    ("shear_perturbation", "model.lambda = inf", "model"),
    ("shear_perturbation", "model.b = inf", "model"),
    ("shear_perturbation", "scenario.rho0 = inf", "scenario.rho0"),
    ("shear_perturbation", "scenario.mean_velocity = inf",
     "scenario.mean_velocity"),
    # psi_mode names a basis function above the ground mode: 1 .. n_basis - 1
    ("shear_perturbation", "scenario.psi_mode = 0", "scenario.psi_mode"),
    ("shear_perturbation", "scenario.psi_mode = 12", "scenario.psi_mode"),
    # a line that sets nothing; its error manifest still goes to output
    ("equilibrium", "fluid.dt 0.002", None),
    # a negative seed is refused, where numpy's generator raised a
    # ValueError (exit 1, no manifest) in lemma_a1
    ("lemma_a1", "seed = -1", "seed"),
    ("shear_perturbation", "seed = -1", "seed"),
    ("equilibrium", "seed = -1", "seed"),
    # a range is checked in every scenario, also where the key is not read
    ("equilibrium", "experiment.ensemble = 10", "experiment.ensemble"),
    ("shear_perturbation", "forcing.mode = 1", "forcing.mode"),
    ("shear_perturbation", "forcing.kind = sideways", "forcing.kind"),
], ids=["dt=0", "n_modes=0", "max_iters=1", "s_prime=2", "horizon=-1",
        "stress_difference_horizon=-1", "one_delta", "repeated_delta",
        "negative_delta", "no_delta", "forcing_mode=7,0", "scenario_mode=6",
        "n_basis=0", "n_basis=-3", "n_basis=11", "n_basis=13",
        "equilibrium_chi=-2", "equilibrium_chi=0",
        "equilibrium_chi=1", "shear_chi=-2", "shear_chi=0", "shear_chi=1",
        "max_steps=-1", "record_every=0", "snapshots_every=-1",
        "ceiling=-1", "ceiling=0", "ceiling=nan", "lemma_ceiling=-1",
        "cutoff_r=0", "cutoff_r=-1", "cutoff_r=inf", "cfl_safety=nan",
        "cfl_safety=inf",
        "cfl_safety=0", "cfl_safety=-1", "cfl_safety=none", "rho0=0",
        "bump_amplitude=1.5",
        "shear_amplitude=2.5", "stress_difference_s_prime=-1",
        "contraction_s_prime=-1", "contraction_zero_steps",
        "contraction_partial_step", "stress_difference_partial_step",
        "horizon_beyond_max_steps",
        "no_lemma_delta",
        "negative_lemma_delta", "dt=nan", "dt=inf", "contraction_dt=nan",
        "horizon=inf", "horizon=nan", "forcing_amplitude=nan",
        "steady_forcing=1e308", "periodic_forcing=1e308", "nan_delta",
        "nan_lemma_delta", "gamma=inf", "a=inf", "epsilon=inf", "a11=inf",
        "mu_s=inf", "mu_b=inf", "lambda=inf", "b=inf", "rho0=inf",
        "mean_velocity=inf", "psi_mode=0", "psi_mode=12", "no_equals",
        "lemma_seed=-1", "seed=-1",
        "equilibrium_seed=-1", "equilibrium_ensemble=10", "forcing_mode=1",
        "forcing_kind=sideways"])
def test_bad_settings_are_config_errors(tmp_path, scenario, line, field):
    cfg_path, outdir = write_cfg(tmp_path, scenario=scenario, extra=line)
    stderr_path = tmp_path / "bad.json"
    with open(stderr_path, "w") as fh:
        assert run(cfg_path, stderr=fh) == 2
    assert json.loads(stderr_path.read_text())["reason"] == "ConfigError"
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["reason"] == "ConfigError"
    with pytest.raises(ConfigError) as err:
        RunContext(parse_config(cfg_path)).initial_state()
    assert err.value.field == field


@pytest.mark.parametrize("scenario", ["shear_perturbation", "density_bump"])
def test_infinite_amplitude_is_refused_before_any_arithmetic(tmp_path,
                                                             scenario):
    # inf * cos(x) at a node where cos vanishes is NaN: the density check
    # refused it, but only after numpy's "invalid value" RuntimeWarning
    cfg_path, _ = write_cfg(tmp_path, scenario=scenario,
                            extra="scenario.amplitude = inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="must be finite") as err:
            RunContext(parse_config(cfg_path)).initial_state()
    assert err.value.field == "scenario.amplitude"


def test_initial_data_that_overflow_are_refused_before_any_step(tmp_path):
    # 1e308 is finite, but the transform of u overflows: it was met as a
    # blow-up at step 0 (exit 5), after three "invalid value" RuntimeWarnings;
    # the sum of a density of 1e308 overflows: it was met as a CFL bound of
    # 6.7e-63 at step 1 (exit 4), after an "overflow" RuntimeWarning
    for (cfg_path, outdir), prefix in (
            (write_cfg(tmp_path, scenario="shear_perturbation",
                       extra="scenario.mean_velocity = 1e308"), "[scenario] "),
            (small_shear_cfg(tmp_path, 4, "scenario.rho0 = 1e308"),
             "[scenario.rho0] ")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(os.devnull, "w") as fh:
                assert run(cfg_path, stderr=fh) == 2
        manifest = json.load(open(os.path.join(outdir, "manifest.json")))
        assert manifest["reason"] == "ConfigError"
        assert manifest["message"].startswith(prefix)


def test_a_stage_that_meets_a_non_finite_r_reports_a_blowup(tmp_path,
                                                            monkeypatch):
    # NaN in the r slice of the batch that stage 2 of step 1 reads (the
    # run's second batch): it was reported as a positivity loss
    # ("min r = nan", exit 3); no setting is known to reach it since the
    # forcing is checked when it is built
    real = coupling._grid_values
    calls = []

    def poisoned(*args):
        out = real(*args)
        calls.append(out)
        if len(calls) == 2:
            out[fluid.R, 1, 1] = np.nan
        return out

    monkeypatch.setattr(coupling, "_grid_values", poisoned)
    cfg_path, outdir = small_shear_cfg(tmp_path, 4)
    with open(os.devnull, "w") as fh:
        assert run(cfg_path, stderr=fh) == 5
    assert len(calls) == 2
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["reason"] == "BlowupCeiling"
    assert manifest["message"].endswith("at step 1")


@pytest.mark.parametrize("line", ["fluid.dt = nan", "model.gamma = inf"])
def test_error_manifests_are_strict_json(tmp_path, line):
    # the config echo writes a non-finite setting as a string, where
    # json.dump wrote a bare NaN or Infinity that RFC 8259 parsers reject
    cfg_path, outdir = write_cfg(tmp_path, scenario="contraction_study",
                                 extra=line)
    with open(os.devnull, "w") as fh:
        assert run(cfg_path, stderr=fh) == 2

    def refuse(constant):
        raise ValueError(f"bare {constant} in manifest.json")

    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh, parse_constant=refuse)
    key, _, value = line.partition(" = ")
    assert manifest["reason"] == "ConfigError"
    assert manifest["config"][key] == value


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap thresholds are set through glibc mallopt")
def test_coupled_steps_reuse_the_heap():
    # with glibc's default thresholds each n = 32 step returns its few MB
    # of temporaries to the OS and faults them back in (about 1,200 faults)
    import resource
    runner._retain_heap()
    ctx = RunContext(parse_config_text("scenario = shear_perturbation\n"))
    op = FokkerPlanckSolver(ctx.basis, ctx.params, ctx.grid,
                            ctx.chi_index)
    state = ctx.initial_state()
    state = state, coupling.grid_values(state, ctx.params)
    faults = []
    for _ in range(12):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        state = coupling.coupled_step(*state, op, ctx.force, ctx.fluid_cfg)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert np.median(faults[4:]) < 50
