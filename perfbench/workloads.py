"""The benchmark's workloads: inputs, one timed pass, and the gates.

Each workload is three functions:

* ``build(seed)`` makes the inputs (models, grids, potentials, configs);
* ``run(inputs, pass_dir)`` is one timed pass: every library or CLI call in
  turn, each waiting for the one before it.  A ``ValueError`` or
  ``RuntimeError`` from an item is kept as a ``Raised`` in place of its
  result and the pass goes on;
* ``check(inputs, outputs, pass_dir)`` runs after the clock stops.  It
  returns the gates (copied from ``tests/test_acceptance.py`` with the same
  tolerances), the check margins ``|error| / tolerance`` and a few counters
  read off the results.

Only ``small_corpus`` uses the seed; the other two are deterministic.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

# library functions are called through their modules, so that a tracer
# patching the module attributes sees the calls made from here
from bscount import cli, efimov, linop, radial
from bscount.efimov import SeparableModel
from bscount.radial import PotentialSpec, RadialGrid

JOBS = 2  # worker pool size handed to every CLI call

# tolerances of tests/test_acceptance.py
CRIT_COUPLING_RTOL = 1e-3
MU_EXPONENT_TOL = 0.05
ACCUMULATION_RTOL = 0.10
CONSISTENCY_TOL = 1e-8
CLOSED_FORM_RTOL = 1e-6

E_FLOOR = -1.0
KERNEL_N_ANGLE = 48  # three_boson_kernel's default angular quadrature
# chunk-sized float64 arrays alive at once in three_boson_kernel:
# cross, f1, f2, f3 and their product
KERNEL_LIVE_CHUNKS = 5

TWENTY_CASES = [
    ("square_well", 2.0, 0, 0.05), ("square_well", 2.0, 0, 0.5),
    ("square_well", 10.0, 0, 0.05), ("square_well", 10.0, 0, 0.5),
    ("square_well", 10.0, 0, 2.0), ("square_well", 26.0, 0, 0.05),
    ("square_well", 26.0, 0, 0.5), ("square_well", 26.0, 0, 2.0),
    ("gaussian", 5.0, 0, 0.2), ("gaussian", 18.0, 0, 0.2),
    ("gaussian", 18.0, 0, 1.0), ("exponential", 5.0, 0, 0.1),
    ("exponential", 18.0, 0, 0.1), ("exponential", 30.0, 0, 0.5),
    ("yukawa", 8.0, 0, 0.3), ("yukawa", 15.0, 0, 1.0),
    ("square_well", 40.0, 1, 0.25), ("square_well", 40.0, 1, 1.0),
    ("gaussian", 40.0, 2, 0.15), ("gaussian", 60.0, 1, 0.3),
]

ROLLNIK_FAMILY = [
    ("square_well", 2.0), ("square_well", 8.0), ("square_well", 60.0),
    ("gaussian", 30.0), ("exponential", 18.0), ("yukawa", 8.0),
]


class Raised:
    """Stands in for the result of an item that raised."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.error!r})"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return Raised(exc)


def raised(*results) -> bool:
    return any(isinstance(r, Raised) for r in results)


@dataclass
class Gate:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Checked:
    gates: list[Gate] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


def _read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cli_gate(name, status, pass_dir, command) -> Gate:
    """The CLI run exited 0 and its summary marks every check passed."""
    if raised(status):
        return Gate(name, False, status.error)
    path = os.path.join(pass_dir, f"{command}.summary.json")
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return Gate(name, False, f"unreadable summary: {exc}")
    failed = [k for k, v in summary["checks"].items() if not v.get("pass")]
    ok = status == cli.EXIT_OK and summary["status"] == cli.EXIT_OK and not failed
    return Gate(name, ok, f"exit {status}, failed checks {failed}")


def report_bytes(pass_dir) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(pass_dir))


# ---------------------------------------------------------------------------
# trimer_ladder: the Efimov ladder at unitarity and a detuned model


def build_trimer_ladder(seed):
    lam_u = efimov.lambda_unitary(1.0)
    unitary = SeparableModel(beta=1.0, lam=lam_u, p_max=40.0, n_p=256,
                             grid_c=300.0)
    return {"unitary": unitary, "detuned": unitary.with_lam(0.9 * lam_u)}


def run_trimer_ladder(inputs, pass_dir):
    return {"ladder": attempt(efimov.efimov_spectrum, inputs["unitary"], E_FLOOR),
            "detuned": attempt(efimov.trimer_spectrum, inputs["detuned"], E_FLOOR)}


def kernel_temp_bytes(model: SeparableModel, n_angle: int = KERNEL_N_ANGLE) -> int:
    """Bytes of the chunk temporaries one three_boson_kernel call holds."""
    rows = min(model.n_p, max(1, int(2e6 / (model.n_p * n_angle))))
    return KERNEL_LIVE_CHUNKS * rows * model.n_p * n_angle * 8


def check_trimer_ladder(inputs, outputs, pass_dir) -> Checked:
    out = Checked()
    ladder, detuned = outputs["ladder"], outputs["detuned"]
    if raised(ladder):
        out.gates += [Gate(g, False, ladder.error) for g in
                      ("levels_resolved", "cutoff_stable", "accumulation_ratio")]
        ladder = []
    else:
        out.gates.append(Gate("levels_resolved", len(ladder) >= 3,
                              f"{len(ladder)} levels"))
        out.gates.append(Gate("cutoff_stable",
                              all(level.cutoff_stable for level in ladder)))
        if len(ladder) >= 2:
            _, ratio_star = efimov.s0_oracle()
            ratio = ladder[-2].energy / ladder[-1].energy
            err = abs(ratio / ratio_star - 1.0)
            out.gates.append(Gate("accumulation_ratio", err <= ACCUMULATION_RTOL,
                                  f"last ratio {ratio:.6g}, oracle {ratio_star:.6g}"))
            out.margins["accumulation_ratio"] = err / ACCUMULATION_RTOL
        else:
            out.gates.append(Gate("accumulation_ratio", False, "fewer than 2 levels"))
    if raised(detuned):
        out.gates.append(Gate("detuned_levels", False, detuned.error))
        detuned = []
    else:
        out.gates.append(Gate("detuned_levels", 1 <= len(detuned) <= 2,
                              f"{len(detuned)} levels"))
    out.counters["efimov.levels"] = len(ladder) + len(detuned)
    out.counters["efimov.kernel_temp_mb"] = max(
        kernel_temp_bytes(inputs["unitary"]),
        kernel_temp_bytes(inputs["detuned"])) / 2**20
    return out


# ---------------------------------------------------------------------------
# radial_suite: acceptance criteria 5, 6 and 8 plus a default twobody run


def build_radial_suite(seed):
    well = PotentialSpec(kind="square_well", strength=1.0, range=1.0)
    twenty = [(PotentialSpec(kind=kind, strength=lam, range=1.0),
               RadialGrid(ell=ell, r_max=25.0, n=700), eps)
              for kind, lam, ell, eps in TWENTY_CASES]
    mu_cases = ([(RadialGrid(ell=0, r_max=1.0, n=n, scheme="gauss_legendre"), 0.5)
                 for n in (200, 400)]
                + [(RadialGrid(ell=1, r_max=40.0, n=n), 1.0) for n in (2000, 4000)])
    return {
        "well": well,
        "crit_grid": RadialGrid(ell=0, r_max=100.0, n=2000),
        "twenty": twenty,
        "mu_cases": mu_cases,
        "eps_list": np.geomspace(1e-6, 1e-4, 9),
        "family": [PotentialSpec(kind=kind, strength=lam, range=1.0)
                   for kind, lam in ROLLNIK_FAMILY],
        "twobody": cli.validate_config({}, {}, "twobody"),
    }


def _count_two_ways(pot, grid, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k = radial.bs_kernel_radial(pot, grid, eps)
        h = radial.reduced_hamiltonian(pot, grid)
    return linop.count_evs(k, ">", 1.0), linop.count_evs(h, "<", -eps)


def _mu_exponent(well, grid, eps_list):
    pot = well.with_strength(radial.kernel_critical_strength(well, grid))
    return radial.mu_scan(pot, grid, eps_list).fitted_exponent


def run_radial_suite(inputs, pass_dir):
    well = inputs["well"]
    return {
        "crit": attempt(radial.find_critical_coupling_radial, well, inputs["crit_grid"],
                        tol=0.05),
        "counts": [attempt(_count_two_ways, pot, grid, eps)
                   for pot, grid, eps in inputs["twenty"]],
        "exponents": [attempt(_mu_exponent, well, grid, inputs["eps_list"])
                      for grid, _ in inputs["mu_cases"]],
        "rollnik": [attempt(radial.schwinger_bound_check, pot) for pot in inputs["family"]],
        "twobody": attempt(cli.run, inputs["twobody"], jobs=JOBS, out_dir=pass_dir),
    }


def check_radial_suite(inputs, outputs, pass_dir) -> Checked:
    out = Checked()
    crit = outputs["crit"]
    if raised(crit):
        out.gates.append(Gate("crit_coupling", False, crit.error))
    else:
        err = abs(crit.lambda_star / (np.pi**2 / 4.0) - 1.0)
        out.gates.append(Gate("crit_coupling", err <= CRIT_COUPLING_RTOL,
                              f"lambda* {crit.lambda_star:.10g}"))
        out.margins["crit_coupling"] = err / CRIT_COUPLING_RTOL
        out.counters["radial.find_critical_coupling_radial.iterations"] = crit.iterations

    counts = outputs["counts"]
    bad = [case[:2] for case, c in zip(TWENTY_CASES, counts)
           if raised(c) or c[0] != c[1]]
    out.gates.append(Gate("counts_equal", not bad, f"mismatched {bad}"))

    exponents = outputs["exponents"]
    if raised(*exponents):
        out.gates.append(Gate("mu_exponent", False,
                              next(e.error for e in exponents if raised(e))))
    else:
        worst = max(abs(e - target)
                    for e, (_, target) in zip(exponents, inputs["mu_cases"]))
        out.gates.append(Gate("mu_exponent", worst <= MU_EXPONENT_TOL,
                              f"exponents {[round(e, 4) for e in exponents]}"))
        out.margins["mu_exponent"] = worst / MU_EXPONENT_TOL

    rollnik = outputs["rollnik"]
    if raised(*rollnik):
        out.gates.append(Gate("rollnik_bound", False,
                              next(r.error for r in rollnik if raised(r))))
    else:
        worst = max(count / bound for count, bound in rollnik)
        out.gates.append(Gate("rollnik_bound", worst <= 1.0,
                              f"(count, bound) {[(c, round(b, 3)) for c, b in rollnik]}"))
        out.margins["rollnik_bound"] = worst

    out.gates.append(_cli_gate("twobody", outputs["twobody"], pass_dir, "twobody"))
    out.counters["cli.report_bytes"] = report_bytes(pass_dir)
    return out


# ---------------------------------------------------------------------------
# small_corpus: verify at the workload seed, iterbs-demo and kernelcheck


def build_small_corpus(seed):
    return {
        "verify": cli.validate_config({"seed": seed % 2**64}, {}, "verify"),
        "iterbs-demo": cli.validate_config({}, {}, "iterbs-demo"),
        "kernelcheck": cli.validate_config({}, {}, "kernelcheck"),
    }


def run_small_corpus(inputs, pass_dir):
    return {name: attempt(cli.run, config, jobs=JOBS, out_dir=pass_dir)
            for name, config in inputs.items()}


def check_small_corpus(inputs, outputs, pass_dir) -> Checked:
    out = Checked()
    for name in inputs:
        out.gates.append(_cli_gate(name, outputs[name], pass_dir, name))
    residuals = []
    try:
        with open(os.path.join(pass_dir, "verify.summary.json")) as fh:
            verify = json.load(fh)
        residuals.append(verify["checks"]["iterbs_invariance"]["max_residual"])
        residuals += [float(row["consistency_residual"]) for row in
                      _read_csv(os.path.join(pass_dir, "iterbs-demo.csv"))]
        out.margins["consistency_residual"] = max(residuals) / CONSISTENCY_TOL
        rows = _read_csv(os.path.join(pass_dir, "kernelcheck.csv"))
        out.margins["kernel_bound"] = max(float(r["value"]) / float(r["bound"])
                                          for r in rows)
        out.margins["kernel_closed_form"] = max(
            abs(float(r["value"]) / float(r["closed_form"]) - 1.0)
            for r in rows if float(r["gamma"]) == 0.0) / CLOSED_FORM_RTOL
    except (OSError, KeyError, ValueError):
        pass  # the CLI gates above already failed for a missing report
    out.counters["cli.report_bytes"] = report_bytes(pass_dir)
    return out


WORKLOADS = {
    "trimer_ladder": (build_trimer_ladder, run_trimer_ladder, check_trimer_ladder),
    "radial_suite": (build_radial_suite, run_radial_suite, check_radial_suite),
    "small_corpus": (build_small_corpus, run_small_corpus, check_small_corpus),
}

MARGINS = ("crit_coupling", "mu_exponent", "rollnik_bound", "accumulation_ratio",
           "consistency_residual", "kernel_bound", "kernel_closed_form")
