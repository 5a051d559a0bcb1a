"""Tests for the command-line front end and its config format."""

import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bscount import bsengine, cli, radial
from bscount.cli import (
    ConfigError,
    EXIT_CHECK_FAILED,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    main,
    parse_config_text,
    validate_config,
)
from bscount.linop import DEFAULT_SEED
from oracles import verify_sections_oracle

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parser


def test_parse_scalar_types():
    values, _ = parse_config_text(
        'command = "verify"\n'
        "seed = 0xB5C0\n"
        "verify.bs_instances = 12\n")
    assert values["command"] == "verify"
    assert values["seed"] == 0xB5C0
    assert values["verify.bs_instances"] == 12


def test_parse_lists_and_comments():
    values, _ = parse_config_text(
        "# a comment line\n"
        "scan.epsilons = [0.1, 0.5, 1.0]  # trailing comment\n")
    assert values["scan.epsilons"] == [0.1, 0.5, 1.0]


def test_parse_reports_line_and_column():
    with pytest.raises(ConfigError) as info:
        parse_config_text("command = \"verify\"\nnot a key value line\n")
    assert info.value.line == 2


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="Cannot overwrite a value") as info:
        parse_config_text("seed = 1\nseed = 2\n")
    assert (info.value.line, info.value.column) == (2, 9)


def test_parse_reads_the_readme_config():
    readme = (ROOT / "README.md").read_text()
    block = readme.partition("```toml\n")[2].partition("```")[0]
    values, positions = parse_config_text(block)
    assert values == {
        "command": "twobody", "seed": 0xB5C0, "potential.kind": "square_well",
        "potential.strength": 10.0, "potential.range": 1.0, "grid.ell": 0,
        "grid.r_max": 60.0, "grid.n": 1500, "scan.epsilons": [0.05, 0.5, 2.0]}
    assert list(positions) == list(values)
    assert validate_config(values, positions, None).items() >= values.items()


def test_parse_flattens_dotted_keys_in_line_order():
    values, positions = parse_config_text(
        'potential.kind = "yukawa"\n'
        "grid . n = 600\n"
        "\tpotential.strength = 2\n"
        "scan.epsilons = [\n  0.1,\n  0.5,\n]\n")
    assert values == {"potential.kind": "yukawa", "grid.n": 600, "potential.strength": 2,
                      "scan.epsilons": [0.1, 0.5]}
    assert list(positions.items()) == [("potential.kind", (1, 1)), ("grid.n", (2, 1)),
                                       ("potential.strength", (3, 2)),
                                       ("scan.epsilons", (4, 1))]


def test_parse_skips_the_lines_inside_a_multi_line_string():
    # "[x]" and "seed = 5" are the string's, not a table header or a key
    values, positions = parse_config_text(
        'potential.table = """\n[x]\nseed = 5\n"""\nseed = 1\n')
    assert values == {"potential.table": "[x]\nseed = 5\n", "seed": 1}
    assert positions == {"potential.table": (1, 1), "seed": (5, 1)}
    assert validate_config(values, positions, "twobody")["potential.table"] == "[x]\nseed = 5\n"


def test_nested_list_exits_2_with_its_type_error(tmp_path, capsys):
    cfg = write(tmp_path, "c.conf", 'command = "twobody"\n  scan.epsilons = [\n  [1, 2],\n]\n')
    out = tmp_path / "out"
    assert main(["twobody", "--config", cfg, "--out", str(out)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "line 2, column 3: scan.epsilons must be a list of numbers, got [[1, 2]]" in err
    assert not out.exists()


def test_validate_rejects_unknown_key_with_position():
    values, positions = parse_config_text(
        'command = "twobody"\npotential.kidn = "yukawa"\n')
    with pytest.raises(ConfigError) as info:
        validate_config(values, positions, None)
    assert "potential.kidn" in str(info.value)
    assert info.value.line == 2


def test_validate_rejects_bad_seed():
    values, positions = parse_config_text('command = "verify"\nseed = -3\n')
    with pytest.raises(ConfigError, match="seed"):
        validate_config(values, positions, None)


def test_validate_defaults_seed():
    cfg = validate_config({"command": "verify"}, {}, None)
    assert cfg["seed"] == 0xB5C0


@pytest.mark.parametrize("command,line", [
    ("twobody", "potential.strength = 2"),  # an int is a number
    ("twobody", "scan.epsilons = [1, 0.5]"),
    ("twobody", 'potential.table = "v.tsv"'),
    ("efimov", "model.coupling = 0.05"),
    ("efimov", 'model.coupling = "unitary"'),
    ("kernelcheck", "kernel.gammas = [0, 0.2]"),  # an int in a list of numbers
])
def test_validate_accepts_each_value_of_its_keys_type(command, line):
    values, positions = parse_config_text(f'command = "{command}"\n{line}\n')
    assert validate_config(values, positions, None).items() >= values.items()


@pytest.mark.parametrize("command,line,expected", [
    ("twobody", "scan.epsilons = 0.5", "a list of numbers"),
    ("twobody", 'scan.epsilons = [0.5, "x"]', "a list of numbers"),
    ("twobody", "scan.epsilons = [true]", "a list of numbers"),
    ("twobody", "potential.kind = 3", "a string"),
    ("twobody", "potential.table = 1.0", "a string"),
    ("twobody", "grid.ell = 1.0", "an integer"),
    ("efimov", 'model.coupling = "half"', '"unitary" or a number'),
    ("efimov", "model.beta = false", "a number"),
    ("verify", "output_path = 1", "a string"),
])
def test_validate_rejects_a_value_of_the_wrong_type_at_its_key(command, line, expected):
    values, positions = parse_config_text(f'command = "{command}"\n  {line}\n')
    with pytest.raises(ConfigError, match=f"must be {expected}, got") as info:
        validate_config(values, positions, None)
    assert (info.value.line, info.value.column) == (2, 3)


def test_validate_command_mismatch():
    values, positions = parse_config_text('command = "verify"\n')
    with pytest.raises(ConfigError, match="does not match"):
        validate_config(values, positions, "efimov")


# ---------------------------------------------------------------------------
# end-to-end runs


def test_unknown_key_exits_2_without_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "bad.conf", 'command = "twobody"\nbad.key = 1\n')
    out = tmp_path / "out"
    status = main(["twobody", "--config", cfg, "--out", str(out)])
    assert status == EXIT_PARSE_ERROR
    assert "line 2" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command,line", [
    ("twobody", "grid.n = 700.9"),  # ran n = 700 and recorded 700.9
    ("verify", "verify.bs_instances = 2.5"),  # ran 2 cases
    ("iterbs-demo", "iterbs.dim = true"),  # ran dim 1
    ("twobody", 'potential.strength = "strong"'),  # failed as a numerical check
])
def test_value_of_the_wrong_type_exits_2_at_its_key_without_outputs(command, line, tmp_path,
                                                                    capsys):
    cfg = write(tmp_path, "c.conf", f'command = "{command}"\n  {line}\n')
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert f"{line.partition(' ')[0]} must be" in err and "line 2, column 3" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("text,message,line,column", [
    ('seed = 1\ngrid.n = 600 600\n', "Expected newline or end of document", 2, 14),
    ("grid.n = 600\nseed = 1.\n", "Expected newline or end of document", 2, 9),
    ("grid.n = 600\nscan.epsilons = [0.5,\n", "Invalid value", 3, 1),
    ('seed = 1\ngrid.n = 600\n  grid.n = 700\n', "Cannot overwrite a value", 3, 15),
    ('seed = 1\n  [grid]\nn = 600\n', "table headers are not supported", 2, 3),
    ("seed = 1\ngrid = { n = 600 }\n", "inline tables are not supported", 2, 8),
    ('seed = 1\n"grid.n" = 600\n', "quoted keys are not supported", 2, 1),
])
def test_config_syntax_error_exits_2_at_its_line_and_column(text, message, line, column,
                                                            tmp_path, capsys):
    cfg = write(tmp_path, "c.conf", 'command = "twobody"\n' + text)
    out = tmp_path / "out"
    assert main(["twobody", "--config", cfg, "--out", str(out)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert f"line {line + 1}, column {column}: {message}" in err
    assert not out.exists()


def test_twobody_grid_scheme_is_an_unknown_key(tmp_path, capsys):
    # twobody counts on the finite-difference grid only, so it takes no scheme
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "grid.n = 600\n"
                '  grid.scheme = "gauss_legendre"\n')
    out = tmp_path / "out"
    status = main(["twobody", "--config", cfg, "--out", str(out)])
    assert status == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "unknown key 'grid.scheme'" in err
    assert "line 3, column 3" in err
    assert not out.exists() or not list(out.iterdir())


def test_verify_small_run_writes_reports(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 40\n"
                "verify.iterbs_instances = 10\n"
                "verify.bound_instances = 10\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    csv_text = (tmp_path / "verify.csv").read_text()
    assert csv_text.startswith("# schema=1\n")
    summary = json.loads((tmp_path / "verify.summary.json").read_text())
    assert summary["status"] == 0
    assert summary["seed"] == 0xB5C0
    assert summary["checks"]["bs_equality"]["failures"] == 0
    assert "seconds" in summary["timing"]
    assert summary["version"]


def test_verify_counts_a_failed_rank_one_bound(tmp_path, monkeypatch, capsys):
    def fail(f, *args):
        big_l, above = bsengine._rank_one_domination(f, *args)
        return big_l, above + 1  # one eigenvalue above c in every member

    monkeypatch.setattr(cli, "_rank_one_domination", fail)
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 10\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 3\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_CHECK_FAILED
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    rows = {row[0]: row[1:] for row in (line.split(",") for line in lines[2:])}
    assert rows["rank_one_domination"] == ["3", "3"]
    assert rows["bs_equality"] == ["10", "0"]
    assert "check failed: rank_one_domination" in capsys.readouterr().err


def test_verify_counts_a_failed_stack_member_as_one_failure(tmp_path, monkeypatch, capsys):
    stacks = []

    def fail_first_member(*args):
        big_l, above = bsengine._rank_one_domination(*args)
        stacks.append(len(above))
        if len(stacks) == 1:
            above = above + (np.arange(len(above)) == 0)
        return big_l, above

    monkeypatch.setattr(cli, "_rank_one_domination", fail_first_member)
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 10\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 40\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_CHECK_FAILED
    assert stacks[0] > 1 and sum(stacks) == 40  # a stack of several members, then the rest
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    rows = {row[0]: row[1:] for row in (line.split(",") for line in lines[2:])}
    assert rows["rank_one_domination"] == ["40", "1"]
    assert rows["hs_bound_extremal"] == ["40", "0"]
    assert "check failed: rank_one_domination" in capsys.readouterr().err


def test_verify_deterministic_csv_bytes(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 30\n"
                "verify.iterbs_instances = 5\n"
                "verify.bound_instances = 5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\nseed = 7\n'
                "verify.bs_instances = 10\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 2\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path),
                   "--seed", "0x123"])
    assert status == EXIT_OK
    summary = json.loads((tmp_path / "verify.summary.json").read_text())
    assert summary["seed"] == 0x123


@pytest.mark.parametrize("seed", ["-1", "0x10000000000000000"])
def test_seed_flag_out_of_range_exits_2_naming_the_flag(seed, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["iterbs-demo", "--out", str(tmp_path), "--seed", seed])
    assert exit_info.value.code == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert f"argument --seed: must be an unsigned 64-bit integer, got {seed}" in err
    assert "line" not in err and "column" not in err
    assert not any(tmp_path.iterdir())


def test_twobody_subcritical_counts_all_zero(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                'potential.kind = "square_well"\n'
                "potential.strength = 2.0\n"
                "grid.n = 600\n"
                "scan.epsilons = [0.05, 0.2, 0.5]\n")
    status = main(["twobody", "--config", cfg, "--out", str(tmp_path),
                   "--jobs", "2"])
    assert status == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "epsilon,count_direct,count_bs,mu_max"
    for line in lines[2:]:
        cells = line.split(",")
        assert cells[1] == "0" and cells[2] == "0"


def test_twobody_table_potential(tmp_path):
    table = tmp_path / "pot.txt"
    r = np.linspace(0.01, 3.0, 80)
    np.savetxt(table, np.column_stack([r, np.exp(-r)]))
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                f'potential.table = "{table}"\n'
                "potential.strength = 18.0\n"
                "grid.n = 600\n"
                "scan.epsilons = [0.1]\n")
    status = main(["twobody", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    cells = lines[2].split(",")
    assert cells[1] == cells[2]  # counts agree
    assert int(cells[1]) >= 1    # the deep table well binds


def test_missing_potential_table_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope" / "v.txt"
    cfg = write(tmp_path, "tb.conf", f'command = "twobody"\npotential.table = "{missing}"\n')
    out = tmp_path / "out"
    assert main(["twobody", "--config", cfg, "--out", str(out)]) == EXIT_IO_ERROR
    assert capsys.readouterr().err.startswith("bscount twobody: cannot read potential table: ")
    assert not out.exists()


@pytest.mark.parametrize("text,fault", [
    ("0.5 1.0\n", "need at least two points, got 1"),
    ("0 1\n1 abc\n", "could not convert string 'abc'"),
    ("0 1 2\n1 1 2\n", "need two columns (r, v), got a table of shape (2, 3)"),
    ("1 1\n0 1\n", "abscissas must be strictly increasing"),
], ids=["one-row", "non-numeric", "three-columns", "decreasing-r"])
def test_malformed_potential_table_exits_3(tmp_path, capsys, text, fault):
    table = tmp_path / "v.txt"
    table.write_text(text)
    cfg = write(tmp_path, "tb.conf", f'command = "twobody"\npotential.table = "{table}"\n')
    out = tmp_path / "out"
    assert main(["twobody", "--config", cfg, "--out", str(out)]) == EXIT_IO_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"bscount twobody: cannot read potential table: {table}: ")
    assert fault in err
    assert not out.exists()


def test_twobody_jobs_invariant_and_box_warning(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "potential.strength = 10.0\n"
                "grid.r_max = 10.0\n"   # at 10x the range: box effects warned
                "grid.n = 300\n"
                "scan.epsilons = [0.05, 0.2, 0.5, 1.0, 2.0]\n")
    csv = []
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        with pytest.warns(UserWarning, match="box effects"):
            status = main(["twobody", "--config", cfg, "--out", str(out),
                           "--jobs", jobs])
        assert status == EXIT_OK
        csv.append((out / "twobody.csv").read_bytes())
    assert csv[0] == csv[1]


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_twobody_threshold_collision_exits_1_naming_eps(jobs, tmp_path, capsys):
    # -eps at the lowest eigenvalue of the reduced Hamiltonian: both counts
    # would leave the level out and agree at 0
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "potential.strength = 10.0\n"
                "scan.epsilons = [4.6299783264587742, 0.5]\n")
    out = tmp_path / "out"
    assert main(["twobody", "--config", cfg, "--out", str(out), "--jobs", jobs]) == \
        EXIT_CHECK_FAILED
    assert capsys.readouterr().err.startswith(
        "bscount twobody: numerical check failed: an eigenvalue of the reduced Hamiltonian "
        "at ell = 0 lies within the guard band of -eps at eps = 4.6299783264587742: ")
    assert not out.exists()


def test_iterbs_demo_columns_and_invariance(tmp_path):
    status = main(["iterbs-demo", "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "iterbs-demo.csv").read_text().strip().splitlines()
    assert lines[1] == "k,count,hs_norm_Mk,consistency_residual"
    counts = [row.split(",")[1] for row in lines[2:]]
    assert len(set(counts)) == 1  # invariant across stages
    residuals = [float(row.split(",")[3]) for row in lines[2:]]
    assert max(residuals) <= 1e-8


def test_kernelcheck_reports_bound_and_match(tmp_path):
    cfg = write(tmp_path, "k.conf",
                'command = "kernelcheck"\n'
                "kernel.gammas = [0.0, 0.2]\n"
                "kernel.epsilons = [0.5, 2.0]\n"
                "kernel.r_values = [0.5, 2.0]\n")
    status = main(["kernelcheck", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    summary = json.loads((tmp_path / "kernelcheck.summary.json").read_text())
    assert summary["checks"]["bound_holds"]["pass"]
    assert summary["checks"]["free_resolvent_match"]["pass"]


def test_kernelcheck_counts_a_failed_bound_and_writes_reports(tmp_path, monkeypatch, capsys):
    bound = radial._resolvent_power_bound
    monkeypatch.setattr(radial, "_resolvent_power_bound", lambda p, r: 0.5 * bound(p, r))
    status = main(["kernelcheck", "--out", str(tmp_path)])
    assert status == EXIT_CHECK_FAILED
    lines = (tmp_path / "kernelcheck.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    failed = [row for row in rows if row["within_bound"] == "0"]
    assert 0 < len(failed) < len(rows) == 36
    assert all(row["value"] == "nan" for row in failed)
    summary = json.loads((tmp_path / "kernelcheck.summary.json").read_text())
    assert summary["checks"]["bound_holds"]["failures"] == len(failed)
    # a point with no value fails the closed-form match too
    closed_failed = [row for row in failed if row["gamma"] == "0"]
    assert closed_failed
    assert summary["checks"]["free_resolvent_match"]["failures"] == len(closed_failed)
    assert summary["status"] == EXIT_CHECK_FAILED
    assert "check failed: bound_holds" in capsys.readouterr().err


def test_verify_bs_sections_solve_one_stack_per_dimension(tmp_path, monkeypatch):
    # building a stack decomposes each A and solves each A + B, counting it
    # solves each K(eps): a fallback to solves per problem would multiply these
    calls, stacks, counting = {"eigh": 0, "eigvalsh": 0}, [], [False]
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += counting[0]
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def corpus(*args, **kwargs):
        for s, shifts in bsengine.random_corpus(*args, **kwargs):
            stacks.append(shifts)
            yield s, shifts

    def corpus_counts(corpus):
        counting[0] = True
        try:
            return bsengine.corpus_counts(corpus)
        finally:
            counting[0] = False

    monkeypatch.setattr(cli, "random_corpus", corpus)
    monkeypatch.setattr(cli, "corpus_counts", corpus_counts)
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 40\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 2\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert sum(len(shifts) for shifts in stacks) == 80 > len(stacks)
    assert calls == {"eigh": len(stacks), "eigvalsh": 2 * len(stacks)}


def test_verify_at_seed_901_makes_its_pinned_eigensolves(tmp_path, monkeypatch):
    # every section of the default config: a section that solves a spectrum
    # twice, or falls back to solves per problem, raises these counts
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["verify", "--seed", "901", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == {"eigh": 68, "eigvalsh": 216}


def test_verify_iterbs_and_bound_sections_solve_one_stack_per_group(tmp_path, monkeypatch):
    # iterbs_invariance: one eigvalsh per group for its base count and one per
    # stage; hs_bound_extremal: none; rank_one_domination: one eigh and one
    # eigvalsh per dimension.  A fallback to solves per problem would multiply these
    calls, section = [], [None]
    for name in ("eigh", "eigvalsh", "qr"):
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            if section[0]:
                calls.append((section[0], _name))
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for name in ("_verify_iterbs", "_verify_hs_bound", "_verify_rank_one"):
        def in_section(*args, _name=name, _run=getattr(cli, name)):
            section[0] = _name
            try:
                return _run(*args)
            finally:
                section[0] = None

        monkeypatch.setattr(cli, name, in_section)
    groups = {"iterate": [], "hs": [], "rank_one": []}

    def recorded(key, core):
        def run(*args):
            groups[key].append(args)
            return core(*args)
        return run

    monkeypatch.setattr(cli, "_iterate", recorded("iterate", cli._iterate))
    monkeypatch.setattr(cli, "_hs_count_bound", recorded("hs", cli._hs_count_bound))
    monkeypatch.setattr(cli, "_rank_one_domination",
                        recorded("rank_one", cli._rank_one_domination))
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 2\n"
                "verify.iterbs_instances = 60\n"
                "verify.bound_instances = 60\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    iterbs_groups = [(len(k_total), len(steps)) for k_total, steps in groups["iterate"]]
    assert sum(k for k, _ in iterbs_groups) == 60 > len(iterbs_groups)
    assert sum(len(args[0]) for args in groups["hs"]) == 60 > len(groups["hs"])
    assert sum(len(args[0]) for args in groups["rank_one"]) == 60 > len(groups["rank_one"])
    expected = (
        [("_verify_iterbs", "qr")] * sum(1 + n for _, n in iterbs_groups)
        + [("_verify_iterbs", "eigvalsh")] * sum(1 + n for _, n in iterbs_groups)
        + [("_verify_hs_bound", "qr")] * len(groups["hs"])
        + [("_verify_rank_one", "eigh"), ("_verify_rank_one", "eigvalsh")]
        * len(groups["rank_one"]))
    assert sorted(calls) == sorted(expected)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 901])
def test_verify_stacked_sections_match_the_per_instance_oracle_bit_for_bit(seed, monkeypatch):
    start, stages, big_l = [], [], []
    verify_iterbs, iterate, rank_one = cli._verify_iterbs, cli._iterate, cli._rank_one_domination

    def snapshot(rng, size):
        start.append(copy.deepcopy(rng.bit_generator.state))
        return verify_iterbs(rng, size)

    def recorded_iterate(k_total, steps):
        out = iterate(k_total, steps)
        stages.extend(zip(*(t for t, _, _ in out)))  # each member's T_k, stage by stage
        return out

    def recorded_rank_one(*args):
        out = rank_one(*args)
        big_l.extend(out[0].tolist())
        return out

    monkeypatch.setattr(cli, "_verify_iterbs", snapshot)
    monkeypatch.setattr(cli, "_iterate", recorded_iterate)
    monkeypatch.setattr(cli, "_rank_one_domination", recorded_rank_one)
    _, _, checks = cli._run_verify(validate_config({"seed": seed}, {}, "verify"), 1)
    rng = np.random.default_rng()
    rng.bit_generator.state = start[0]
    oracle = verify_sections_oracle(rng, 200, 200)
    assert checks["iterbs_invariance"] == {"cases": 200, "failures": oracle["iterbs_failures"],
                                           "max_residual": oracle["max_residual"]}
    assert checks["hs_bound_extremal"]["failures"] == oracle["hs_failures"]
    assert checks["rank_one_domination"]["failures"] == oracle["rank_one_failures"]
    # the stacks' order: by key (dimension, and stage count), then draw order
    expected = sorted(oracle["stages"], key=lambda problem: problem[0])
    assert len(stages) == len(expected) == 200
    for got, (_, want) in zip(stages, expected):
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
    assert big_l == [value for _, value in sorted(oracle["big_l"], key=lambda p: p[0])]


def test_efimov_detuned_run(tmp_path):
    cfg = write(tmp_path, "e.conf",
                'command = "efimov"\n'
                "model.coupling = 0.08\n"   # below unitarity ~ 0.1013
                "model.n_p = 128\n"
                "model.grid_c = 100.0\n"
                "efimov.e_floor = -1.0\n")
    status = main(["efimov", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "efimov.csv").read_text().strip().splitlines()
    assert lines[1] == "n,E_n,ratio_to_next,cutoff_stable"
    summary = json.loads((tmp_path / "efimov.summary.json").read_text())
    assert summary["checks"]["scan_complete"]["pass"]



def test_efimov_rejects_an_infinite_floor(tmp_path, capsys):
    # trimer_spectrum's own rule, checked when the config is read
    cfg = write(tmp_path, "e.conf", 'command = "efimov"\n  efimov.e_floor = -inf\n')
    out = tmp_path / "out"
    assert main(["efimov", "--config", cfg, "--out", str(out)]) == EXIT_PARSE_ERROR
    assert "line 2, column 3: efimov.e_floor: e_floor must be negative and finite, got -inf" \
        in capsys.readouterr().err
    assert not out.exists()


DRAWS = "need a nonnegative number of draws, got "
NO_SHIFT = "eps must be positive and finite, got "
NO_POINT = "eps and R must be positive and finite, got "
NO_POINTS = "the check needs at least one gamma, one eps and one R"


@pytest.mark.parametrize("command,line,message", [
    ("efimov", "model.n_p = 32", "need an integer n_p >= 64 quadrature points, got 32"),
    ("twobody", "grid.n = 8", "need an integer n >= 16 interior points, got 8"),
    ("twobody", "potential.range = -1.0", "range must be positive and finite, got -1.0"),
    ("verify", "verify.bs_instances = -3", DRAWS + "-3"),
    ("verify", "verify.iterbs_instances = -3", DRAWS + "-3"),
    ("verify", "verify.bound_instances = -3", DRAWS + "-3"),
    ("iterbs-demo", "iterbs.dim = 0", "need a dimension >= 1, got 0"),
    ("iterbs-demo", "iterbs.steps = -1", DRAWS + "-1"),
    ("twobody", "scan.epsilons = [-0.5]", NO_SHIFT + "-0.5"),
    ("twobody", "scan.epsilons = [0.0]", NO_SHIFT + "0.0"),
    ("twobody", "scan.epsilons = []", "the scan needs at least one shift"),
    ("twobody", "scan.epsilons = [0.5, nan]", NO_SHIFT + "nan"),
    ("kernelcheck", "kernel.gammas = [0.9]", "power p = 1 + 2*gamma = 2.8 outside [1, 3/2)"),
    ("kernelcheck", "kernel.epsilons = [-1.0]", NO_POINT + "-1.0, 0.2"),
    ("kernelcheck", "kernel.r_values = [0.0]", NO_POINT + "0.01, 0.0"),
    ("iterbs-demo", "iterbs.steps = 0", "the demo needs at least one step"),
    ("kernelcheck", "kernel.gammas = []", NO_POINTS),
    ("kernelcheck", "kernel.epsilons = []", NO_POINTS),
    ("kernelcheck", "kernel.r_values = []", NO_POINTS),
], ids=["model.n_p", "grid.n", "potential.range", "verify.bs_instances",
        "verify.iterbs_instances", "verify.bound_instances", "iterbs.dim", "iterbs.steps",
        "scan.epsilons-negative", "scan.epsilons-zero", "scan.epsilons-empty",
        "scan.epsilons-nan", "kernel.gammas", "kernel.epsilons", "kernel.r_values",
        "iterbs.steps-zero", "kernel.gammas-empty", "kernel.epsilons-empty",
        "kernel.r_values-empty"])
def test_value_out_of_its_range_exits_2_at_its_key_without_outputs(command, line, message,
                                                                   tmp_path, capsys):
    # each rule is its owner's (SeparableModel, RadialGrid, PotentialSpec,
    # bsengine's draws, iterbs' split, radial's shift and resolvent power),
    # checked when the config is read, not as a failed numerical check
    cfg = write(tmp_path, "c.conf", f'command = "{command}"\nseed = 1\n  {line}\n')
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PARSE_ERROR
    key = line.partition(" ")[0]
    assert f"config error: line 3, column 3: {key}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_range_check_leaves_the_kind_of_a_table_potential_unread():
    # with a table, the run reads no potential.kind, so kind "table" passes
    values, positions = parse_config_text(
        'command = "twobody"\npotential.kind = "table"\npotential.table = "v.tsv"\n')
    assert validate_config(values, positions, None)["potential.kind"] == "table"
    del values["potential.table"]
    with pytest.raises(ConfigError, match="potential.kind: table potentials need") as info:
        validate_config(values, positions, None)
    assert (info.value.line, info.value.column) == (2, 1)

SMALL_CONFIGS = {
    "verify": "verify.bs_instances = 10\nverify.iterbs_instances = 2\n"
              "verify.bound_instances = 2\n",
    "twobody": "grid.n = 600\nscan.epsilons = [0.05, 0.5]\n",
    "kernelcheck": "",
    "iterbs-demo": "",
    "efimov": "model.n_p = 128\n",
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_run_alone_marks_checks_passed(command, tmp_path):
    text = f'command = "{command}"\n' + SMALL_CONFIGS[command]
    cfg = write(tmp_path, "c.conf", text)
    values, positions = parse_config_text(text)
    _, _, checks = cli._PIPELINES[command](validate_config(values, positions, command), 1)
    assert checks and all("pass" not in data for data in checks.values())
    status = main([command, "--config", cfg, "--out", str(tmp_path), "--jobs", "1"])
    summary = json.loads((tmp_path / f"{command}.summary.json").read_text())
    assert summary["checks"].keys() == checks.keys()
    for data in summary["checks"].values():
        assert data["pass"] is (data["failures"] == 0)
    all_pass = all(data["pass"] for data in summary["checks"].values())
    assert status == summary["status"] == (EXIT_OK if all_pass else EXIT_CHECK_FAILED)


def test_run_names_the_first_failed_check(tmp_path, monkeypatch, capsys):
    checks = {"fine": {"cases": 2, "failures": 0}, "broken": {"cases": 2, "failures": 1},
              "also_broken": {"cases": 1, "failures": 1}}
    monkeypatch.setitem(cli._PIPELINES, "iterbs-demo",
                        lambda cfg, jobs: (("k",), [(0,)], checks))
    assert main(["iterbs-demo", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    summary = json.loads((tmp_path / "iterbs-demo.summary.json").read_text())
    assert summary["status"] == EXIT_CHECK_FAILED
    assert {name: data["pass"] for name, data in summary["checks"].items()} == {
        "fine": True, "broken": False, "also_broken": False}
    assert "check failed: broken" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1", "-3", "two"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_jobs_must_be_a_positive_integer(command, jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--jobs", jobs, "--out", str(tmp_path)])
    assert exit_info.value.code == EXIT_PARSE_ERROR
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_rejects_a_pool_size_below_one(jobs, tmp_path, capsys):
    config = validate_config({"grid.n": 600}, {}, "twobody")
    assert cli.run(config, jobs=jobs, out_dir=str(tmp_path)) == EXIT_PARSE_ERROR
    assert f"--jobs must be a positive integer, got {jobs}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_io_error_exits_3(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    status = main(["iterbs-demo", "--out", str(target)])
    assert status == EXIT_IO_ERROR


def test_missing_config_file_exits_3(tmp_path):
    status = main(["verify", "--config", str(tmp_path / "nope.conf")])
    assert status == EXIT_IO_ERROR


def test_numbers_have_17_significant_digits(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "grid.n = 600\n"
                "scan.epsilons = [0.2]\n")
    assert main(["twobody", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    eps_cell = lines[2].split(",")[0]
    assert eps_cell == format(0.2, ".17g")


def test_bad_log_env_falls_back(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BSCOUNT_LOG", "chatty")
    status = main(["iterbs-demo", "--out", str(tmp_path)])
    assert status == EXIT_OK
    assert "BSCOUNT_LOG" in capsys.readouterr().err
