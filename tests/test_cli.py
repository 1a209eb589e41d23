import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import supvar.cli
import supvar.modules
from supvar.cli import main
from supvar.config import DEFAULT_SEED, RunConfig, load_config
from supvar.errors import (
    FormInconsistent,
    InvariantBroken,
    SignConventionBroken,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_atyp_command(capsys):
    code, payload = run_json(capsys, "atyp", "2", "2", "0,0|0,0")
    assert code == 0
    assert payload["defect"] == 2 and payload["atyp"] == 2
    assert payload["witness"] == [[1, 4], [2, 3]]
    code, payload = run_json(capsys, "atyp", "1", "1", "1|0")
    assert code == 0 and payload["defect"] == 1 and payload["atyp"] == 0
    code, payload = run_json(capsys, "atyp", "2", "1", "0,0|0")
    assert code == 0 and payload["defect"] == 1 and payload["atyp"] == 1


def test_support_theoretical(capsys):
    code, payload = run_json(capsys, "support", "1", "1", "1|0", "--theoretical")
    assert code == 0
    assert payload["subsets"] == [] and payload["dim"] == 0


def test_support_empirical(capsys):
    code, payload = run_json(capsys, "support", "2", "2", "0,0|0,0", "--empirical")
    assert code == 0
    assert payload["dim"] == 2
    assert payload["subsets"] == [[1], [2], [1, 2]]
    assert payload["note"] == "coordinate-subspace resolution only"
    code, payload = run_json(
        capsys, "support", "1", "1", "0|0", "--empirical", "--module", "kac"
    )
    assert code == 0 and payload["subsets"] == [] and payload["dim"] == 0


def test_support_compare(capsys):
    code, payload = run_json(capsys, "support", "1", "1", "0|0", "--compare")
    assert code == 0 and payload["match"] is True


def test_cohom_command(capsys):
    code, payload = run_json(capsys, "cohom", "1", "1", "--pmax", "4")
    assert code == 0 and payload["dims"] == [1, 0, 1, 0, 1]


def test_cohom_gl33_degree_six_under_default_budget(capsys):
    code, payload = run_json(capsys, "cohom", "3", "3", "--pmax", "6")
    assert code == 0 and payload["dims"] == [1, 0, 1, 0, 2, 0, 3]


def test_cohom_slice_over_budget_exit_3(capsys):
    assert main(["cohom", "3", "3", "--pmax", "6", "--budget", "300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cochain slice of size 339 exceeds budget" in captured.err


def test_ext_command(capsys):
    code, payload = run_json(
        capsys, "ext", "1", "1", "--M", "kac:0|0", "--N", "trivial", "--pmax", "4"
    )
    assert code == 0 and payload["dims"] == [1, 0, 0, 0, 0]


def test_kacext_command(capsys):
    code, payload = run_json(
        capsys, "kacext", "1", "1", "0|0", "--coeff", "trivial", "--pmax", "4"
    )
    assert code == 0 and payload["dims"] == [1, 0, 0, 0, 0]


def test_leading_minus_weight_is_a_positional(capsys):
    # a weight such as -1,-1|1,1 is not a plain negative number; it still
    # reads as the weight, and the same as after "--"
    for argv in (["atyp", "2", "2"], ["support", "2", "2", "--theoretical"],
                 ["kacext", "2", "2", "--coeff", "simple:1,0|0,-1", "--pmax", "2"]):
        code, out = run_cli(capsys, *argv, "-1,-1|1,1")
        assert code == 0 and json.loads(out)["weight"] == "-1,-1|1,1"
        assert run_cli(capsys, *argv, "--", "-1,-1|1,1") == (code, out)
    code, payload = run_json(capsys, "kacext", "2", "2", "-1,-1|1,1",
                             "--coeff=simple:1,0|0,-1", "--pmax", "2")
    assert code == 0 and payload["dims"] == [0, 1, 0]
    code, payload = run_json(capsys, "atyp", "2", "2", "-1,-2|2,1")
    assert code == 0 and payload["atyp"] == 2
    # a malformed leading-minus weight is a parse error, not an unknown option
    assert main(["atyp", "2", "2", "-1,0|0"]) == 2
    assert capsys.readouterr().out == ""


def test_divcheck_command(capsys):
    code, payload = run_json(capsys, "divcheck", "1", "1", "1|0")
    assert code == 0 and payload["pass"] is True


def test_clifford_command(capsys):
    code, payload = run_json(capsys, "clifford", "1", "1", "1|0")
    assert code == 0
    assert payload["z"] == 0 and payload["n"] == 1 and payload["n_tilde"] == 1
    assert payload["simple_dim"] == 2 and payload["type"] == "Q"
    assert payload["projective_dim"] == 2
    assert payload["verdicts"]["projective_divides_induced"] is True
    code, payload = run_json(capsys, "clifford", "2", "2", "0,0|0,0", "--gens", "1,2")
    assert code == 0 and payload["type"] == "M" and payload["simple_dim"] == 1
    assert payload["z"] == 2 and payload["input"]["generators"] == [1, 2]


def test_dump_command_deterministic(capsys):
    code1, out1 = run_cli(capsys, "dump", "1", "1", "1|0", "--module", "simple")
    code2, out2 = run_cli(capsys, "dump", "1", "1", "1|0", "--module", "simple")
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["dim"] == 2 and record["kind"] == "simple"


# (byte length, sha256) of `supvar dump M N WEIGHT --module simple` on stdout.  The
# simple-module basis keeps, per weight block of the contravariant form, the
# positions whose form column is independent of the columns after it, so these
# pin that choice as well as the printed matrices.  gl(3|1) 0,-2,-2|2 has den 2,
# so its form layers carry different powers of it; gl(3|3) 1,0,0|0,0,-1 is the
# head of a Kac module of dim 4608.
GOLDEN_SIMPLE_DUMPS = {
    (2, 2, "0,0|0,0"): (433, "a77b8a0ea3cb9c0f41f85b0e3f42af3739f1413a60dfe69e878f28e3d25ecbea"),
    (2, 2, "1,0|0,-1"): (14006, "5fe66252ff52b9b6838ff7801d1f98871a947aebdc67ad524aefb8357b9619de"),
    (2, 2, "2,-1|1,-2"): (251666, "3ce5a2afce1446b0056ee7ca14669079bf961886cf3dfbc759723df416cc9da9"),
    (2, 1, "1,0|-1"): (3052, "52e902f5cdef5a692ddf9faec5622fa69626bae0ef13c985016c2797f989356e"),
    (3, 2, "1,0,0|0,-1"): (60509, "bd816b17a02647ef4b2d729748ed78b573dc677bd26de049531fd5b7c730d0c4"),
    (3, 1, "0,-2,-2|2"): (6256, "1c7b4b1fafee18755560cbeae8237c73c611d02c87a2383b7cf1bba73542c53a"),
    (3, 3, "1,0,0|0,0,-1"): (171393, "cd6cb73dc6eafb012be030a4e031aaea395e4a5e884f653f81bd0c15174851b5"),
}


@pytest.mark.parametrize("m, n, weight", sorted(GOLDEN_SIMPLE_DUMPS))
def test_dump_simple_golden_bytes(capsys, m, n, weight):
    code, out = run_cli(capsys, "dump", str(m), str(n), weight, "--module", "simple")
    data = out.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_SIMPLE_DUMPS[(m, n, weight)]


def test_parse_errors_exit_2(capsys):
    assert main(["atyp", "1", "1", "bogus"]) == 2
    assert main(["atyp", "1", "1", "1,0|0"]) == 2
    assert main(["atyp", "0", "1", "|0"]) == 2
    assert main(["ext", "1", "1", "--M", "nope:1|0", "--N", "trivial"]) == 2
    capsys.readouterr()


def test_support_of_a_kac_module_needs_empirical(capsys):
    # the closed form describes simple modules, and K(0,0|0,0) has empty support
    for mode in ([], ["--compare"], ["--theoretical"]):
        assert main(["support", "2", "2", "0,0|0,0", "--module", "kac", *mode]) == 2, mode
        out, err = capsys.readouterr()
        assert out == "" and "--module kac needs --empirical" in err


def test_kacext_of_a_weight_that_is_not_dominant_exits_2(capsys):
    # no K(0,1|0,0) exists, as for kac_module, dump and support --theoretical
    assert main(["kacext", "2", "2", "0,1|0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is not dominant integral" in err


def test_kacext_with_coefficients_over_the_even_part_exits_2(capsys):
    assert main(["kacext", "2", "1", "1,0|0", "--coeff", "l0:1,0|0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not a representation of the given algebra" in err


def test_negative_pmax_exits_2(capsys):
    # --pmax goes through RunConfig validation like a config-file p_max
    for argv in (["cohom", "2", "2"], ["ext", "2", "2", "--M", "trivial", "--N", "trivial"],
                 ["kacext", "2", "2", "0,0|0,0"]):
        assert main(argv + ["--pmax", "-1"]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "p_max must be >= 0" in err


def test_budget_exceeded_exit_3(capsys):
    assert main(["dump", "2", "2", "0,0|0,0", "--module", "kac", "--budget", "10"]) == 3
    capsys.readouterr()


# the run options each command reads; --output and --config go on every command
TAKES = {
    "atyp": set(), "clifford": set(),
    "support": {"--seed", "--samples", "--budget"},
    "cohom": {"--pmax", "--budget"}, "ext": {"--pmax", "--budget"},
    "kacext": {"--pmax", "--budget"}, "divcheck": {"--budget"}, "dump": {"--budget"},
}


def test_each_command_takes_only_the_options_it_reads():
    parser = supvar.cli.build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    assert commands.keys() == TAKES.keys()
    for name, command in commands.items():
        flags = {f for action in command._actions for f in action.option_strings}
        assert flags & {"--seed", "--samples", "--pmax", "--budget"} == TAKES[name], name
        assert {"--output", "--config"} <= flags, name
    # 27 settable flags, where every command once took all six (48)
    assert sum(len(flags) + 2 for flags in TAKES.values()) == 27


@pytest.mark.parametrize("argv", [
    ["atyp", "2", "2", "0,0|0,0", "--pmax", "3"],
    ["atyp", "2", "2", "0,0|0,0", "--budget", "1"],
    ["clifford", "2", "2", "0,0|0,0", "--seed", "1"],
    ["cohom", "1", "1", "--samples", "2"],
    ["divcheck", "1", "1", "1|0", "--pmax", "2"],
    ["dump", "1", "1", "1|0", "--seed", "1"],
    ["kacext", "1", "1", "0|0", "--samples", "2"],
])
def test_an_option_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    # the command's own usage, which lists the flags it does take
    assert err.startswith(f"usage: supvar {argv[0]} ")


def test_invariant_broken_exit_4(capsys, monkeypatch):
    # an internal invariant failure is a bug, not malformed input
    for exc in (FormInconsistent, SignConventionBroken):
        assert issubclass(exc, InvariantBroken)

    def broken(*args):
        raise FormInconsistent("adjointness fails")

    monkeypatch.setattr(supvar.cli, "simple_module", broken)
    assert main(["dump", "1", "1", "1|0", "--module", "simple"]) == 4
    assert "adjointness fails" in capsys.readouterr().err


def test_construction_invariant_failure_exit_4(capsys, monkeypatch):
    # the weight is checked dominant integral and within budget before L0 is
    # built, so an L0 of the wrong dimension is a bug, not malformed input
    real = supvar.modules.dim_L0
    monkeypatch.setattr(supvar.modules, "dim_L0", lambda lam: real(lam) + 1)
    assert main(["dump", "2", "1", "1,0|0", "--module", "l0"]) == 4
    assert "Weyl formula" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dump", "2", "2", "1,0|0,-1", "--module", "simple"],
    ["support", "2", "2", "0,0|0,0", "--empirical", "--module", "simple"],
    ["cohom", "2", "2", "--coeff", "simple:1,0|0,-1", "--pmax", "3"],
    ["ext", "2", "2", "--M", "kac:1,0|0,-1", "--N", "simple:1,0|0,-1", "--pmax", "2"],
])
def test_stdout_identical_across_hash_seeds(argv):
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-m", "supvar.cli", *argv], env=env,
                             capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_output_identical_across_runs(capsys):
    args = ["support", "1", "1", "0|0", "--compare"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_table_output(capsys):
    code, out = run_cli(capsys, "atyp", "1", "1", "0|0", "--output", "table")
    assert code == 0
    assert "atyp = 1" in out and "defect = 1" in out


def test_config_precedence(tmp_path):
    path = tmp_path / "supvar.conf"
    path.write_text("seed = 0x123\nsamples_per_subset = 5\n# comment\noutput = table\n")
    cfg = load_config(str(path), env={})
    assert cfg.seed == 0x123 and cfg.samples_per_subset == 5 and cfg.output == "table"
    cfg = load_config(str(path), env={"SUPVAR_SEED": "7"})
    assert cfg.seed == 7
    cfg = load_config(str(path), env={"SUPVAR_SEED": "7"}, seed=99)
    assert cfg.seed == 99
    assert RunConfig().seed == DEFAULT_SEED


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(output="xml")


@pytest.mark.parametrize("line, message", [
    ("pmax = 2", "unknown key 'pmax'"),
    ("samples = 5", "unknown key 'samples'"),
    ("budget = 10", "unknown key 'budget'"),
    ("p_max 2", "'p_max 2' is not 'key = value'"),
], ids=["pmax", "samples", "budget", "no-equals"])
def test_config_file_rejects_unknown_keys_and_lines_without_equals(tmp_path, capsys, line, message):
    # the CLI's flag names are not config keys; a line that would leave the
    # default in place silently is an error naming the line and the key
    path = tmp_path / "supvar.conf"
    path.write_text(f"# bounds\n\np_max = 3\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
        load_config(str(path), env={})
    assert main(["cohom", "1", "1", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("key, value", [
    ("p_max", "two"), ("seed", "0x"), ("samples_per_subset", "2.5"), ("dimension_budget", "")])
def test_config_file_names_the_line_and_key_of_a_value_that_is_not_an_int(
        tmp_path, capsys, key, value):
    path = tmp_path / "supvar.conf"
    path.write_text(f"p_max = 3\n# bounds\n{key} = {value}\n")
    message = f"{path}:3: {key} must be an int, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(str(path), env={})
    assert main(["cohom", "1", "1", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("field", ["seed", "samples_per_subset", "p_max", "dimension_budget"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "7", None])
def test_config_rejects_a_value_that_is_not_an_int(field, value):
    # a bool is an int subclass, but never a count or a seed
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an int, not {value!r}')}$"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("bound, least", [
    ("samples_per_subset", 1), ("p_max", 0), ("dimension_budget", 1)])
def test_config_names_the_bound_it_rejects(bound, least):
    # p_max = 0 is valid, so the message states each bound's own least value
    assert getattr(RunConfig(**{bound: least}), bound) == least
    with pytest.raises(ValueError, match=f"^{bound} must be >= {least}$"):
        RunConfig(**{bound: least - 1})


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SUPVAR_SEED", "42")
    code, payload = run_json(capsys, "support", "1", "1", "0|0", "--empirical")
    assert code == 0 and payload["subsets"] == [[1]]


@pytest.mark.parametrize("value", ["abc", "0x", "2.5", ""])
def test_seed_env_var_that_is_not_an_int_is_named(capsys, monkeypatch, value):
    message = f"SUPVAR_SEED must be an int, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(env={"SUPVAR_SEED": value})
    monkeypatch.setenv("SUPVAR_SEED", value)
    assert main(["support", "1", "1", "0|0", "--empirical"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
