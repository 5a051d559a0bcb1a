"""Configuration-driven command-line front end.

Runs the property suites (``verify``), the two-body experiments
(``twobody``), the resolvent-power kernel checks (``kernelcheck``), the
projection-subtraction demo (``iterbs-demo``) and the trimer scan
(``efimov``), writing a deterministic CSV data table plus a JSON summary
per run.

Configs are TOML, read by the standard library's ``tomllib``, with
dotted keys, one ``key = value`` per line::

    command = "twobody"
    seed = 0xB5C0
    potential.kind = "square_well"
    potential.strength = 2.0
    grid.n = 1500
    scan.epsilons = [0.1, 0.5]

Table headers, inline tables and quoted keys are rejected at their line,
as TOML syntax errors and unknown keys are at their line and column.
Identical configs (including the seed) produce byte-identical CSV bodies;
all floats are serialized with 17 significant digits and timings are
isolated in the JSON summary's ``timing`` key.

CSV columns per command (every file starts with a ``# schema=1`` line):

* verify:      check, cases, failures
* twobody:     epsilon, count_direct, count_bs, mu_max
* kernelcheck: gamma, epsilon, r, value, bound, closed_form, within_bound
               (closed_form is nan except at gamma = 0; value is nan where
               the kernel failed its bound; booleans are 0/1)
* iterbs-demo: k, count, hs_norm_Mk, consistency_residual
* efimov:      n, E_n, ratio_to_next, cutoff_stable
               (ratio_to_next is nan on the last row)
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .bsengine import (
    _grouped,
    _hs_count_bound,
    _rank_one_domination,
    _require_draws,
    corpus_counts,
    mu_max,
    random_corpus,
    random_problem,
)
from .efimov import (
    SeparableModel,
    _require_floor,
    lambda_unitary,
    s0_oracle,
    trimer_spectrum,
)
from .iterbs import _draw_split, _iterate, _random_steps, _require_dim, _spectral_stack
from .linop import DEFAULT_SEED, _count_evs, _fro, _symmetrized
# unused here; perfbench/tests/test_tracing.py patches and restores cli.count_evs
from .linop import count_evs
from .radial import (
    PotentialSpec,
    RadialGrid,
    _negative_count_off_threshold,
    _require_shift,
    _resolvent_power,
    _resolvent_power_bound,
    bs_count_and_top,
    resolvent_power_kernel,
)

logger = logging.getLogger("bscount")

COMMANDS = ("verify", "twobody", "kernelcheck", "iterbs-demo", "efimov")

CSV_SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3


class ConfigError(Exception):
    """Config rejection with a 1-based line/column location."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _TableError(Exception):
    """A potential table file whose content a ``twobody`` run rejects."""


# ---------------------------------------------------------------------------
# config parsing

# allowed keys per command: name -> default, whose type is the key's type
# (``_KEY_TYPES`` holds the exceptions); a key whose default is None is absent
# unless set: ``command``, which the command line may give instead, and
# ``potential.table``
_COMMON_KEYS = {
    "command": None,
    "seed": DEFAULT_SEED,
    "output_path": ".",
}

_COMMAND_KEYS = {
    "verify": {
        "verify.bs_instances": 500,
        "verify.iterbs_instances": 200,
        "verify.bound_instances": 200,
    },
    "twobody": {
        "potential.kind": "square_well",
        "potential.strength": 2.0,
        "potential.range": 1.0,
        "potential.table": None,
        "grid.ell": 0,
        "grid.r_max": 60.0,
        "grid.n": 1500,
        "scan.epsilons": [0.5],
    },
    "kernelcheck": {
        "kernel.gammas": [0.0, 0.1, 0.2],
        "kernel.epsilons": [0.01, 0.1, 1.0, 10.0],
        "kernel.r_values": [0.2, 1.0, 5.0],
    },
    "iterbs-demo": {
        "iterbs.dim": 12,
        "iterbs.steps": 3,
    },
    "efimov": {
        "model.beta": 1.0,
        "model.coupling": "unitary",
        "model.p_max": 40.0,
        "model.n_p": 512,
        "model.grid_c": 300.0,
        "efimov.e_floor": -1.0,
    },
}


# keys whose default does not give their type; model.coupling may also be "unitary"
_KEY_TYPES = {"command": str, "potential.table": str, "model.coupling": float}

_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list of numbers", str: "a string"}


def _has_type(value, kind) -> bool:
    """Whether a config value has its key's type ``kind``: ``int`` takes an
    int, ``float`` an int or a float, ``list`` a list of numbers and ``str``
    a string; none of them takes a bool."""
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, float) for v in value)
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and not isinstance(value, bool)


def parse_config_text(text: str) -> tuple[dict, dict]:
    """Parse TOML config text into {dotted.key: value}, {key: (line, col)}.

    ``tomllib`` reads the text, and the tables its dotted keys make are
    flattened back to dotted keys, in the order of their lines.  Each key
    is located by a scan for its ``key =`` line, which passes over the
    lines of a list or a string that goes on over several.  A table header,
    an inline table or a quoted key is rejected at its line, and a TOML
    error at the line and column ``tomllib`` names.
    """
    import tomllib  # here, so that importing the package does not load it

    try:
        tree = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        message, line, column = re.fullmatch(
            r"(.*) \(at (?:line (\d+), column (\d+)|end of document)\)", str(exc)).groups()
        if line is None:  # the column after the last character
            line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
        raise ConfigError(message, int(line), int(column)) from None
    positions = {}
    lines = text.split("\n")
    lineno = 0  # of the line read last, counted from 1
    while lineno < len(lines):
        raw = lines[lineno]
        lineno += 1
        if raw.lstrip().startswith("["):
            raise ConfigError("table headers are not supported", lineno, raw.index("[") + 1)
        key = re.match(r"\s*([\w.\s\"'-]+?)\s*=\s*", raw, re.ASCII)
        if not key:
            continue
        if re.search("[\"']", key[1]):
            raise ConfigError("quoted keys are not supported", lineno, key.start(1) + 1)
        if raw[key.end():].startswith("{"):
            raise ConfigError("inline tables are not supported", lineno, key.end() + 1)
        positions[re.sub(r"\s", "", key[1])] = (lineno, key.start(1) + 1)
        # a list or a multi-line string goes on over the next lines, up to
        # the first line at which its key-value pair parses on its own
        start = lineno - 1
        while lineno < len(lines) and not _is_toml("\n".join(lines[start:lineno])):
            lineno += 1
    return dict(sorted(_flattened(tree), key=lambda item: positions[item[0]])), positions


def _is_toml(text: str) -> bool:
    """Whether ``tomllib`` reads ``text`` without error."""
    import tomllib

    try:
        tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return False
    return True


def _flattened(table: dict, prefix: str = ""):
    """The ``(dotted.key, value)`` pairs of a table that ``tomllib`` read."""
    for name, value in table.items():
        if isinstance(value, dict):
            yield from _flattened(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def _radial_grid(cfg) -> RadialGrid:
    """The radial grid of a ``twobody`` config."""
    return RadialGrid(ell=int(cfg["grid.ell"]), r_max=float(cfg["grid.r_max"]),
                      n=int(cfg["grid.n"]))


def _potential(cfg, table=None) -> PotentialSpec:
    """The pair potential of a ``twobody`` config: of ``potential.kind``, or
    of the columns ``(r, v)`` of a potential table read into ``table``."""
    strength, width = float(cfg["potential.strength"]), float(cfg["potential.range"])
    if table is None:
        return PotentialSpec(kind=cfg["potential.kind"], strength=strength, range=width)
    return PotentialSpec(kind="table", strength=strength, range=width,
                         table_r=table[:, 0], table_v=table[:, 1])


def _model(cfg) -> SeparableModel:
    """The three-boson model of an ``efimov`` config."""
    beta, coupling = float(cfg["model.beta"]), cfg["model.coupling"]
    return SeparableModel(beta=beta,
                          lam=lambda_unitary(beta) if coupling == "unitary" else float(coupling),
                          p_max=float(cfg["model.p_max"]), n_p=int(cfg["model.n_p"]),
                          grid_c=float(cfg["model.grid_c"]))


def _scan_epsilons(cfg) -> list[float]:
    """The shifts of a ``twobody`` config's scan, each checked by radial's
    rule for the kernel's shift; an empty scan raises ValueError."""
    epsilons = [float(e) for e in cfg["scan.epsilons"]]
    if not epsilons:
        raise ValueError("the scan needs at least one shift")
    for eps in epsilons:
        _require_shift(eps)
    return epsilons


def _kernel_points(cfg) -> list[tuple]:
    """The points ``(gamma, eps, r)`` of a ``kernelcheck`` config, each
    checked by ``resolvent_power_kernel``'s argument rules; an empty list of
    any of the three raises ValueError."""
    points = [(float(g), float(e), float(r)) for g in cfg["kernel.gammas"]
              for e in cfg["kernel.epsilons"] for r in cfg["kernel.r_values"]]
    if not points:
        raise ValueError("the check needs at least one gamma, one eps and one R")
    for point in points:
        _resolvent_power(*point)
    return points


def _demo_steps(cfg) -> int:
    """The number of stages of an ``iterbs-demo`` config, checked by
    bsengine's rule for a number of draws; no stage raises ValueError."""
    steps = int(cfg["iterbs.steps"])
    _require_draws(steps)
    if not steps:
        raise ValueError("the demo needs at least one step")
    return steps


_VERIFY_SIZES = ("verify.bs_instances", "verify.iterbs_instances", "verify.bound_instances")

# the config keys whose range rule the library owns: key -> a function of a
# merged config that builds, or checks, what owns the rule
_RANGE_OWNERS = {
    **dict.fromkeys(_VERIFY_SIZES, lambda cfg: [_require_draws(int(cfg[key]))
                                                for key in _VERIFY_SIZES]),
    **dict.fromkeys(("grid.ell", "grid.r_max", "grid.n"), _radial_grid),
    **dict.fromkeys(("potential.kind", "potential.strength", "potential.range"), _potential),
    "scan.epsilons": _scan_epsilons,
    **dict.fromkeys(("kernel.gammas", "kernel.epsilons", "kernel.r_values"), _kernel_points),
    "iterbs.dim": lambda cfg: _require_dim(int(cfg["iterbs.dim"])),
    "iterbs.steps": _demo_steps,
    **dict.fromkeys(("model.beta", "model.coupling", "model.p_max", "model.n_p",
                     "model.grid_c"), _model),
    "efimov.e_floor": lambda cfg: _require_floor(float(cfg["efimov.e_floor"])),
}


def validate_config(values: dict, positions: dict, command: str | None) -> dict:
    """Merge defaults and reject unknown keys, values of the wrong type
    (strict parsing) and values out of their key's range, at the key's line
    and column.

    A range rule is the library's own: a key of ``_RANGE_OWNERS`` is checked
    by building what owns its rule, with that value and every other key at
    its default, so that an error names the key.  (``potential.kind`` is not
    read, nor checked, where a potential table is given.)  None of them
    loads scipy.
    """
    cfg_command = values.get("command", command)
    if cfg_command is None:
        raise ConfigError("no command given (config key 'command' or CLI)", 1, 1)
    if cfg_command not in COMMANDS:
        line, col = positions.get("command", (1, 1))
        raise ConfigError(f"unknown command {cfg_command!r}", line, col)
    if command is not None and cfg_command != command:
        line, col = positions.get("command", (1, 1))
        raise ConfigError(
            f"config command {cfg_command!r} does not match CLI command "
            f"{command!r}", line, col)
    allowed = dict(_COMMON_KEYS)
    allowed.update(_COMMAND_KEYS[cfg_command])
    for key, value in values.items():
        line, col = positions.get(key, (1, 1))
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", line, col)
        kind = _KEY_TYPES.get(key, type(allowed[key]))
        if not (_has_type(value, kind) or (key, value) == ("model.coupling", "unitary")):
            unitary = '"unitary" or ' if key == "model.coupling" else ""
            raise ConfigError(f"{key} must be {unitary}{_TYPE_NAMES[kind]}, got {value!r}",
                              line, col)
    merged = {k: v for k, v in allowed.items() if v is not None}
    for key, value in values.items():  # each value in range, the others at their defaults
        if key in _RANGE_OWNERS and not (key == "potential.kind" and "potential.table" in values):
            try:
                _RANGE_OWNERS[key]({**merged, key: value})
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", *positions.get(key, (1, 1))) from None
    merged.update(values)
    merged["command"] = cfg_command
    if not _is_seed(merged["seed"]):
        line, col = positions.get("seed", (1, 1))
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {merged['seed']!r}",
                          line, col)
    return merged


def _is_seed(value) -> bool:
    """Whether ``value`` is a seed: an unsigned 64-bit integer."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**64


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_reports(out_dir: str, name: str, columns, rows, summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    body = [f"# schema={CSV_SCHEMA}", ",".join(columns)]
    body += [",".join(_fmt(cell) for cell in row) for row in rows]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(body) + "\n")
    json_path = os.path.join(out_dir, f"{name}.summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    logger.info("wrote %s and %s", csv_path, json_path)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars become Python ones
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# pipelines: each returns (columns, rows, checks); every check counts its
# cases and failures, and ``run`` marks it passed when there are none


def _run_verify(cfg, jobs):
    rng = np.random.default_rng(cfg["seed"])
    checks = {}

    n_bs = int(cfg["verify.bs_instances"])
    for name, singular_a, fails in (("bs_equality", False, np.not_equal),
                                    ("bs_inequality", True, np.less)):
        direct, via_kernel = corpus_counts(random_corpus(n_bs, rng, singular_a=singular_a))
        checks[name] = {"cases": n_bs, "failures": int(np.sum(fails(via_kernel, direct)))}

    n_mu = 20
    failures = 0
    for _ in range(n_mu):
        p = random_problem(int(rng.integers(2, 12)), rng=rng)
        mus = mu_max(p, np.linspace(0.05, 2.0, 10))
        failures += not np.all(np.diff(mus) <= 1e-12)
    checks["mu_monotone"] = {"cases": n_mu, "failures": failures}

    checks["iterbs_invariance"] = _verify_iterbs(rng, int(cfg["verify.iterbs_instances"]))
    n_bound = int(cfg["verify.bound_instances"])
    checks["hs_bound_extremal"] = _verify_hs_bound(rng, n_bound)
    checks["rank_one_domination"] = _verify_rank_one(rng, n_bound)

    columns = ("check", "cases", "failures")
    rows = [(name, data["cases"], data["failures"])
            for name, data in checks.items()]
    return columns, rows, checks


# The three sections below draw every problem first, in the RNG order of
# drawing them one at a time, then solve one stack per group of problems of
# one shape, freeing each group's draws once it is solved.


def _verify_iterbs(rng, size):
    """Projection subtraction keeps the count above 1 at every stage."""
    def draw():
        dim = int(rng.integers(6, 16))
        x = rng.standard_normal((dim, dim))
        lam = rng.uniform(-0.8, 1.6, size=dim)
        splits = [_draw_split(rng, dim) for _ in range(int(rng.integers(1, 4)))]
        return (dim, len(splits)), (x, lam, splits)

    failures, max_residual = 0, 0.0
    for (_, n_steps), members in _grouped(size, draw):
        x, lam, splits = zip(*members)
        k_total = _spectral_stack(np.array(x), np.array(lam))[0]
        base = _count_evs(k_total, ">", 1.0)
        stages = _iterate(k_total, [_random_steps(k_total, [s[j] for s in splits])
                                    for j in range(n_steps)])
        broken = np.zeros(len(x), dtype=bool)
        for t, _, residual in stages:
            broken |= _count_evs(t, ">", 1.0) != base
            max_residual = max(max_residual, float(np.max(residual)))
        failures += int(np.count_nonzero(broken))
    return {"cases": size, "failures": failures, "max_residual": max_residual}


def _verify_hs_bound(rng, size):
    """The Hilbert-Schmidt count bound is an equality on ``delta`` times a
    rank-``r`` projection, tested on its ``r`` range vectors."""
    def draw():
        dim = int(rng.integers(3, 12))
        r = int(rng.integers(1, dim))
        return (dim, r), (rng.standard_normal((dim, dim)), float(rng.uniform(0.5, 3.0)))

    failures = 0
    for (_, r), members in _grouped(size, draw):
        x, delta = map(np.array, zip(*members))
        q = np.linalg.qr(x)[0][:, :, :r]
        holds, bound = _hs_count_bound(_symmetrized(delta[:, None, None] * q @ q.mT), delta, q)
        failures += int(np.count_nonzero(~holds | (np.abs(bound - r) > 1e-9 * r)))
    return {"cases": size, "failures": failures}


def _verify_rank_one(rng, size):
    """The rank-one domination constant verifies its own bound."""
    def draw():
        dim = int(rng.integers(2, 12))
        g = rng.standard_normal((dim, dim))
        f = rng.standard_normal(dim)
        f /= np.linalg.norm(f)
        return dim, (g, f, float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.1, 2.0)))

    failures = 0
    for _, members in _grouped(size, draw):
        g, f, c, eps0 = map(np.array, zip(*members))
        above = _rank_one_domination(f, _symmetrized(g @ g.mT), eps0, c)[1]
        failures += int(np.count_nonzero(above))
    return {"cases": size, "failures": failures}


def _load_potential(cfg) -> PotentialSpec:
    """The pair potential of a ``twobody`` run, read from its potential
    table file where one is given.  Every rejection of the file's content,
    a cell that is no number, a count of columns other than two, or columns
    ``PotentialSpec`` refuses, raises ``_TableError`` naming the file and
    the fault: a table that cannot be read, not a failed check.  The
    config's own values are checked before the run, so nothing else is
    rejected here."""
    if not cfg.get("potential.table"):
        return _potential(cfg)
    try:
        table = np.loadtxt(cfg["potential.table"], ndmin=2)
        if table.shape[1] != 2:
            raise ValueError(f"need two columns (r, v), got a table of shape {table.shape}")
        return _potential(cfg, table)
    except ValueError as exc:
        raise _TableError(f"{cfg['potential.table']}: {exc}") from exc


def _run_twobody(cfg, jobs):
    pot, grid, epsilons = _load_potential(cfg), _radial_grid(cfg), _scan_epsilons(cfg)

    def one(eps):  # a level on the threshold raises on either side
        return (_negative_count_off_threshold(pot, grid, eps), *bs_count_and_top(pot, grid, eps))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(one, epsilons))
    rows = [(eps, direct, via_kernel, mu)
            for eps, (direct, via_kernel, mu) in zip(epsilons, results)]
    mismatches = sum(direct != via_kernel for _, direct, via_kernel, _ in rows)
    checks = {"counts_agree": {"cases": len(rows), "failures": mismatches}}
    return ("epsilon", "count_direct", "count_bs", "mu_max"), rows, checks


def _run_kernelcheck(cfg, jobs):
    rows = []
    for gamma, eps, r_dist in _kernel_points(cfg):
        try:  # raises on a value that is not finite or exceeds the bound
            value, within = resolvent_power_kernel(gamma, eps, r_dist), True
        except RuntimeError:
            value, within = float("nan"), False
        closed = np.exp(-np.sqrt(eps) * r_dist) / (4 * np.pi * r_dist) if gamma == 0.0 else np.nan
        rows.append((gamma, eps, r_dist, value, _resolvent_power_bound(1.0 + 2.0 * gamma, r_dist),
                     closed, within))
    mismatches = [not abs(row[3] / row[5] - 1.0) <= 1e-6 for row in rows if row[0] == 0.0]
    checks = {
        "bound_holds": {"cases": len(rows), "failures": sum(not row[-1] for row in rows)},
        "free_resolvent_match": {"cases": len(mismatches), "failures": sum(mismatches)},
    }
    return ("gamma", "epsilon", "r", "value", "bound", "closed_form",
            "within_bound"), rows, checks


def _run_iterbs_demo(cfg, jobs):
    """``verify``'s iterbs section on one problem, a stack of one, drawn in
    its RNG order: ``K``, then each stage's split."""
    rng = np.random.default_rng(cfg["seed"])
    dim = int(cfg["iterbs.dim"])
    n_steps = _demo_steps(cfg)
    x = rng.standard_normal((dim, dim))
    k_total = _spectral_stack(x[None], rng.uniform(-0.8, 1.6, size=(1, dim)))[0]
    base = int(_count_evs(k_total, ">", 1.0)[0])
    stages = _iterate(k_total, [_random_steps(k_total, [_draw_split(rng, dim)])
                                for _ in range(n_steps)])
    rows = [(0, base, 0.0, 0.0)]
    for k, (t, m, residual) in enumerate(stages, start=1):
        rows.append((k, int(_count_evs(t, ">", 1.0)[0]), _fro(m[0]), residual[0]))
    failures = sum(row[1] != base for row in rows[1:])
    checks = {"count_invariant": {"cases": n_steps, "failures": failures}}
    return ("k", "count", "hs_norm_Mk", "consistency_residual"), rows, checks


def _run_efimov(cfg, jobs):
    at_unitarity = cfg["model.coupling"] == "unitary"
    levels = trimer_spectrum(_model(cfg), float(cfg["efimov.e_floor"]))
    rows = []
    for n, level in enumerate(levels):
        ratio = (levels[n].energy / levels[n + 1].energy
                 if n + 1 < len(levels) else float("nan"))
        rows.append((n, level.energy, ratio, level.cutoff_stable))
    checks = {}
    if at_unitarity:
        enough = len(levels) >= 3
        checks["levels_resolved"] = {"cases": 1, "failures": int(not enough)}
        if enough:
            _, ratio_star = s0_oracle()
            last_ratio = levels[-2].energy / levels[-1].energy
            ok = abs(last_ratio / ratio_star - 1.0) < 0.1
            checks["accumulation_ratio"] = {
                "cases": 1, "failures": int(not ok),
                "ratio": last_ratio, "oracle": ratio_star}
    else:
        checks["scan_complete"] = {"cases": 1, "failures": 0,
                                   "levels": len(levels)}
    return ("n", "E_n", "ratio_to_next", "cutoff_stable"), rows, checks


_PIPELINES = {
    "verify": _run_verify,
    "twobody": _run_twobody,
    "kernelcheck": _run_kernelcheck,
    "iterbs-demo": _run_iterbs_demo,
    "efimov": _run_efimov,
}


# ---------------------------------------------------------------------------
# entry point


def _configure_logging():
    level_name = os.environ.get("BSCOUNT_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"bscount: ignoring unknown BSCOUNT_LOG={level_name!r} "
              f"(expected error, info or debug)", file=sys.stderr)
        level_name = "error"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def run(config: dict, jobs: int | None = None, out_dir: str | None = None) -> int:
    """Execute a validated config; returns the process exit status."""
    command = config["command"]
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif not (isinstance(jobs, int) and jobs >= 1):
        print(f"bscount {command}: --jobs must be a positive integer, got {jobs!r}",
              file=sys.stderr)
        return EXIT_PARSE_ERROR
    out_dir = out_dir or config.get("output_path", ".")
    t0 = time.perf_counter()
    try:
        columns, rows, checks = _PIPELINES[command](config, jobs)
    except (OSError, _TableError) as exc:  # the potential table is the one file a pipeline reads
        print(f"bscount {command}: cannot read potential table: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"bscount {command}: numerical check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    elapsed = time.perf_counter() - t0
    for data in checks.values():
        data["pass"] = data["failures"] == 0
    failed = [name for name, data in checks.items() if not data["pass"]]
    summary = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "seed": config["seed"],
        "version": __version__,
        "checks": checks,
        "status": EXIT_CHECK_FAILED if failed else EXIT_OK,
        "timing": {"seconds": elapsed},
    }
    try:
        write_reports(out_dir, command, columns, rows, summary)
    except OSError as exc:
        print(f"bscount {command}: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    if failed:
        print(f"bscount {command}: check failed: {failed[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of ``--jobs``: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer literal, ``0x`` hex too, that
    is a seed."""
    value = int(text, 0)
    if not _is_seed(value):
        raise argparse.ArgumentTypeError(f"must be an unsigned 64-bit integer, got {text}")
    return value


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="bscount",
        description="Birman-Schwinger counting experiments and property suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="TOML config file of dotted keys")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker pool size for scan points (default: cores)")
        p.add_argument("--seed", type=_seed, default=None,
                       help="64-bit seed overriding the config")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"bscount: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO_ERROR
            values, positions = parse_config_text(text)
        else:
            values, positions = {}, {}
        config = validate_config(values, positions, args.command)
    except ConfigError as exc:
        print(f"bscount: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.seed is not None:
        config["seed"] = args.seed

    return run(config, jobs=args.jobs, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
