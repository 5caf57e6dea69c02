"""Retired designs stay retired: no line of a guard's scope matches its
pattern.  A change that retires a name adds a row here."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
THIS = pathlib.Path(__file__).resolve()


def guard(name, pattern, scope, reason, skip=(), allow=None):
    """A row: pattern (a regex matched line by line) must match no line of
    the *.py files under scope but those in skip, and lines that match
    allow; reason says why the name is gone."""
    return pytest.param(pattern, scope, skip, allow, reason, id=name)


GUARDS = [
    guard("fft", r"(np|numpy|scipy)\.fft|from scipy import fft", ["src/fene"],
          "FFT calls belong in src/fene/torus.py (to_modes / to_values)",
          skip=["src/fene/torus.py"]),
    guard("symmetrize", r"_hermitianize|_reflect|enforce_symmetry", ["src"],
          "the half-spectrum layout needs no symmetrization"),
    guard("mask", r"dealias_mask|project_pn|n_modes", ["src"],
          "fields hold only the retained modes: no mask or projection"),
    guard("eval_jacobi", r"import.*eval_jacobi|eval_jacobi *\(", ["src/fene"],
          "Jacobi tables come from configspace.jacobi_table (one recurrence "
          "pass)"),
    guard("explicit_tendency", r"explicit_tendency\(", ["src/fene"],
          "the FP tendency is formed only in FokkerPlanckSolver.tendency",
          skip=["src/fene/fokker_planck.py"]),
    guard("node_values", r"_as_node_values|chi_radial_values|"
          r"assemble_operator", ["src/fene"],
          "configspace functions take node values, chi_of_radius is the one "
          "chi_n, mode_blocks yields one block per angular mode"),
    guard("operator_blocks", r"operator_blocks", ["src", "tests"],
          "mode_blocks yields the blocks; eigen_basis evaluates by angular "
          "mode"),
    guard("conf_distribution", r"ConfDistribution|OperatorBlocks|"
          r"radial_tables|radial_profiles", ["src/fene"],
          "phi at a point is a coefficient vector (ConfigBasis.node_values / "
          "node_grads); eigen_basis evaluates the kept profiles"),
    guard("forward", r"^def forward\(|torus\.forward|"
          r"import.*[^_a-z]forward([^_a-z]|$)", ["src/fene"],
          "torus.to_modes is the one forward transform of a field"),
    guard("spectral_field", r"SpectralField|coefficient_values|"
          r"state_from_coeffs", ["src/fene"],
          "a Fourier field is its coefficient array (torus.to_modes / "
          "to_values): FluidState holds the arrays r and u"),
    guard("cached_batch", r'(\.|")_values\b|def grid_values\(self',
          ["src/fene"],
          "a step takes and returns its grid batch: no object caches one"),
    guard("check_positivity", r"check_positivity", ["src/fene"],
          "the trajectories check every state: no constructor checks "
          "positivity"),
    guard("fluid_private", r"fluid_mod\._", ["src/fene/runner.py"],
          "runner calls only the public functions of fluid"),
    guard("values_none", r"values=None|if values is None",
          ["src/fene/fluid.py", "src/fene/fokker_planck.py"],
          "each stage kernel reads the grid batch its step makes: no second "
          "input mode"),
    guard("cfl_switch", r"cfl_safety is not None", ["src/fene"],
          "the CFL check has no off switch"),
    guard("cfl_safety", r"cfl_safety", ["src/fene"],
          "the CFL safety factor is the constant fluid.CFL_SAFETY, not a "
          "setting"),
    guard("grid_values_private", r"\b_grid_values\b", ["src", "tests"],
          "fluid.rhs_batch makes every stage batch, psi's coefficients "
          "appended"),
    guard("field_copy", r"def copy\(", ["src/fene"],
          "nothing writes into a field's coefficients: the fixed-point seed "
          "shares psi0's array"),
    guard("spacing", r"\.spacing\b", ["src/fene", "tests"],
          "the grid step is SIDE / n_points where it is read"),
    guard("package_exports", r"import|__all__|__version__",
          ["src/fene/__init__.py"],
          "callers import a module (from fene import runner): the package "
          "root re-exports nothing"),
    guard("sup_norm_w2inf", r"sup_norm_w2inf\(", ["src/fene/fluid.py"],
          "phi_R reads u, d1 u, d2 u from the stage batch"),
    guard("kernel_state", r"def (rhs_factors|fluid_rhs|cfl_bound|check_cfl)"
          r"\((state|st)\b", ["src/fene/fluid.py"],
          "the stage kernels take coefficient and grid-value arrays, not a "
          "state"),
    guard("callable", r"callable\(",
          ["src/fene/fluid.py", "src/fene/fokker_planck.py"],
          "the split halves take their prescribed input as a callable of "
          "time only"),
    guard("forcing_of_time", r"forcing_of_time\(", ["src/fene"],
          "RunContext builds the forcing once per run: steps and records "
          "take its callable",
          allow=r"def forcing_of_time\(|self\.force = forcing_of_time\("),
    guard("setting_holders", r"FixedPointConfig|ForcingSpec", ["src/fene"],
          "run settings are read in RunContext; the forcing is "
          "fluid.forcing_of_time"),
    guard("oracle", r"def (potential_u|spring_force|maxwellian|pressure|"
          r"d_coefficient|viscous_stress|kramers_stress|project_pi_qn|"
          r"integrate)\(", ["src/fene"],
          "the pointwise model and stress references that only tests call "
          "live in tests/oracle.py"),
    guard("cli_overrides", r"--seed|--max-steps|--ceiling",
          ["src/fene/cli.py"],
          "a run is its config file: only --output overrides it"),
    guard("resume", r"def resume\(", ["src/fene"],
          "a run is its config file: only --output overrides it"),
    guard("exit_names", r"CFLViolation|_EXITS\b|"
          r"EXIT_(OK|CONFIG|POSITIVITY|STABILITY|BLOWUP|CHECKPOINT)",
          ["src", "tests"],
          "one error class per exit status: StabilityViolation covers the "
          "CFL bound"),
    guard("setting_range", r"cfg\[[^]]+\] *(<|>)|isfinite\(cfg\[",
          ["src/fene"],
          "a setting's range is checked by its CONFIG_SCHEMA parser"),
    guard("axis_names", r"\.(ik1|ik2|k1|k2|q1|q2)\b", ["src/fene", "tests"],
          "per-axis arrays are grid.k, grid.ik and quad.q: a formula over "
          "the axes is written once"),
    guard("stress_difference", r"stress_difference|_loglog_slope|"
          r"difference\.csv|experiment\.deltas\b", ["src", "runset", "tests"],
          "contraction_study splits each ratio into the factors of its "
          "three halves (coupling.half_ratios): the scenario of fixed-"
          "perturbation slopes and its deltas are gone",
          allow=r'^    \("\w+", "(scenario = stress_difference|'
          r'experiment\.deltas = 1e-3, 1e-2)", "(scenario|'
          r'experiment\.deltas)"\),$'),
]


def scanned(scope, skip):
    """The *.py files under each path of scope (each must exist), less
    those in skip and this file."""
    paths = [ROOT / rel for rel in scope]
    missing = [p for p in paths + [ROOT / rel for rel in skip]
               if not p.exists()]
    assert not missing, f"no such path: {missing}"
    skipped = {ROOT / rel for rel in skip} | {THIS}
    files = [f for p in paths for f in ([p] if p.is_file()
                                        else sorted(p.rglob("*.py")))]
    return [f for f in files if f not in skipped]


@pytest.mark.parametrize("pattern, scope, skip, allow, reason", GUARDS)
def test_retired_name_stays_gone(pattern, scope, skip, allow, reason):
    files = scanned(scope, skip)
    assert files, f"{scope} holds no file to scan"
    hits = [f"{f.relative_to(ROOT)}:{i}: {line.strip()}"
            for f in files
            for i, line in enumerate(f.read_text("utf-8").splitlines(), 1)
            if re.search(pattern, line)
            and not (allow and re.search(allow, line))]
    assert not hits, "\n".join([reason] + hits)
