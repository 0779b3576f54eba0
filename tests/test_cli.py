"""Command-line behavior: outputs, config precedence, exit codes."""

import csv
import json
import random
import time
from decimal import Decimal

import pytest
from click.testing import CliRunner

from relbc import (
    CausalModel,
    FieldSpec,
    GameDist,
    McEstimate,
    Variant,
    brute_force_value,
    cli,
    predicted_attack_probability,
    tower_gamma,
)
from relbc.analysis import SWEEP_COLUMNS
from relbc.cli import load_config, main, parse_m_list

from oracles import reference_transcripts


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_parse_m_list():
    assert parse_m_list("4..7") == [4, 5, 6, 7]
    assert parse_m_list("4,7,10") == [4, 7, 10]
    assert parse_m_list("5") == [5]
    assert parse_m_list("") == []
    assert parse_m_list(" 4 .. 4 ") == [4]
    for raw in ("4..", "..7", "4,x", "4,,5", "9..4", "4..7..9", "a"):
        with pytest.raises(ValueError, match="--m-list"):
            parse_m_list(raw)


@pytest.mark.parametrize("raw", ["4..", "4,x", "9..4"])
def test_sweep_rejects_malformed_m_list(tmp_path, raw):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--p", "2", "--m-list", raw, "--out", str(out))
    assert result.exit_code == 2
    assert "--m-list" in result.stderr and "lo..hi" in result.stderr
    assert not out.exists()


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\np = 3\nm-list = 4..6  # inline\n\nseed=9\n")
    assert load_config(str(path)) == {"p": "3", "m_list": "4..6", "seed": "9"}


def test_load_config_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    try:
        load_config(str(path))
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_field_check_ok():
    result = invoke("field-check", "--p", "2", "--n", "2", "--triples", "500")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["schema"] == 1 and data["ok"] is True
    assert data["config"]["field"] == {"p": 2, "n": 2, "modulus": [1, 1, 1]}


def test_field_check_large_field_within_budget():
    # The Frobenius check raises every element to the power Q; at Q = 2^16
    # that took ~30 s by repeated squaring and is a log-table read now.
    start = time.perf_counter()
    result = invoke("field-check", "--p", "2", "--n", "16", "--triples", "1000")
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True
    assert elapsed < 5.0


def test_field_check_negative_triples_exits_config():
    result = invoke("field-check", "--p", "3", "--triples", "-5")
    _assert_config_error(result)
    assert "--triples" in result.stderr


def test_field_check_bad_field_exits_config():
    result = invoke("field-check", "--p", "6")
    assert result.exit_code == 2
    assert "not prime" in result.stderr


def test_field_check_reducible_modulus_exits_config():
    result = invoke("field-check", "--p", "2", "--n", "2",
                    "--modulus", "1,0,1")
    assert result.exit_code == 2


def test_field_check_zero_degree_exits_config():
    result = invoke("field-check", "--n", "0")
    _assert_config_error(result)
    assert "extension degree must be >= 1, got 0" in result.stderr


def test_field_check_prints_violations_and_exits_property(monkeypatch):
    # neg(a) = a breaks a + (-a) = 0 at every a != 0 of GF(3) and no other
    # axiom; the report lists the first ten failing triples
    monkeypatch.setattr(FieldSpec, "neg", lambda self, a: a)
    result = invoke("field-check", "--p", "3", "--triples", "40")
    assert result.exit_code == cli.EXIT_PROPERTY
    data = json.loads(result.output)
    # the triples are the first 120 tries below 3 of the seed's byte
    # stream: each byte's top two bits, kept when below 3, the bytes being
    # those of the rng's 32-bit outputs, little-endian
    rng = random.Random("0:field-check")
    stream = b"".join(rng.getrandbits(32).to_bytes(4, "little")
                      for _ in range(60))
    tries = [t >> 6 for t in stream if t >> 6 < 3][:120]
    triples = [tries[i:i + 3] for i in range(0, 120, 3)]
    assert data["ok"] is False
    assert data["violations"] == [["add_inverse", *abc] for abc in triples
                                  if abc[0]][:10]


_ADD, _MUL = FieldSpec.add, FieldSpec.mul
# (label, the FieldSpec method patched, its replacement, --triples): each
# replacement breaks the axiom its label names
_VIOLATIONS = [
    # a - b: unequal operands do not commute
    ("add_commutes", "add", lambda self, a, b: _ADD(self, a, self.neg(b)),
     "40"),
    # -(a + b) commutes, but (a + b) - c differs from b + c - a
    ("add_assoc", "add", lambda self, a, b: self.neg(_ADD(self, a, b)), "40"),
    # the left operand
    ("mul_commutes", "mul", lambda self, a, b: a, "40"),
    # ab + 1 commutes, but (ab + 1)c + 1 differs from a(bc + 1) + 1
    ("mul_assoc", "mul", lambda self, a, b: _ADD(self, _MUL(self, a, b), 1),
     "40"),
    # (ab)^2 commutes and, as x^4 = x^2 over GF(3), associates; it
    # distributes only when 2abc = 0
    ("distributes", "mul",
     lambda self, a, b: _MUL(self, _MUL(self, a, b), _MUL(self, a, b)), "40"),
    # a*1 = a is not 1 at a = 2
    ("mul_inverse", "inv", lambda self, a: 1, "40"),
    # pow(a, Q) = 0 is not a at a != 0; the check reads every element
    # once and needs no triples
    ("frobenius_fixed_point", "pow", lambda self, a, k: 0, "0"),
]


@pytest.mark.parametrize("label, method, patch, triples", _VIOLATIONS,
                         ids=[v[0] for v in _VIOLATIONS])
def test_field_check_reports_each_violation_label(monkeypatch, label, method,
                                                  patch, triples):
    monkeypatch.setattr(FieldSpec, method, patch)
    result = invoke("field-check", "--p", "3", "--triples", triples)
    assert result.exit_code == cli.EXIT_PROPERTY
    data = json.loads(result.output)
    assert data["ok"] is False
    assert label in {v[0] for v in data["violations"]}


def test_game_value_brute():
    result = invoke("game-value", "--p", "2", "--method", "brute")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"]["value"] == "3/4"


def test_game_value_biased_gamma():
    result = invoke("game-value", "--p", "2", "--gamma", "3/4")
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["value"] == "15/16"


def test_game_value_zero_denominator_gamma_exits_config():
    result = invoke("game-value", "--p", "2", "--n", "2", "--gamma", "1/0")
    assert result.exit_code == cli.EXIT_CONFIG
    assert result.stderr.startswith("error:")
    assert isinstance(result.exception, SystemExit)


def test_game_value_capability_exit():
    result = invoke("game-value", "--p", "11", "--method", "brute")
    assert result.exit_code == 3
    assert "best_response_search" in result.stderr


def test_game_value_brute_at_gf9_exits_capability():
    # uniform GF(9) is solved; biased inputs stay capped at 7
    result = invoke("game-value", "--p", "3", "--n", "2", "--gamma", "1/2",
                    "--method", "brute")
    assert result.exit_code == 3
    assert "capped at Q <= 7" in result.stderr


def test_game_value_search_past_cap_exits_capability():
    result = invoke("game-value", "--p", "2", "--n", "13", "--method", "search")
    assert result.exit_code == 3
    assert "capped at Q <= 4096" in result.stderr


def test_game_value_search_with_strategy_out(tmp_path):
    spath = tmp_path / "strategy.json"
    result = invoke("game-value", "--p", "3", "--method", "search",
                    "--restarts", "16", "--strategy-out", str(spath))
    assert result.exit_code == 0
    saved = json.loads(spath.read_text())
    assert saved["field"]["p"] == 3 and len(saved["s1"]) == 3


def test_attack_exact():
    result = invoke("attack", "--p", "2", "--m", "6",
                    "--variant", "symmetrized", "--method", "exact")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["report"]["exact"] == "127/128"
    assert data["config"]["lineage"] == "general"


@pytest.mark.parametrize("args, lineage, exact", [
    (("standard", "--m", "2"), "zeros", "2/3"),
    (("standard", "--m", "3"), "desymmetrize(zeros)", "7/9"),
    (("standard", "--m", "5"), "desymmetrize(pad+1(general))", "25/27"),
    (("symmetrized", "--m", "2"), "zeros", "7/9"),
    (("symmetrized", "--m", "4"), "pad+1(general)", "25/27"),
    (("standard", "--m", "6", "--rho", "4", "--k0", "1"),
     "desymmetrize(zeros)", "227/243"),
])
def test_attack_lineage_at_the_zero_step_edges(args, lineage, exact):
    # the rows below one tower step, and one step padded by a round
    result = invoke("attack", "--p", "3", "--method", "exact", "--variant",
                    *args)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert (data["config"]["lineage"], data["report"]["exact"]) == (
        lineage, exact)


def test_attack_from_strategy_file(tmp_path):
    spath = tmp_path / "strategy.json"
    invoke("game-value", "--p", "2", "--strategy-out", str(spath))
    result = invoke("attack", "--p", "2", "--m", "3",
                    "--variant", "symmetrized", "--strategy", "file",
                    "--strategy-file", str(spath))
    assert result.exit_code == 0
    assert json.loads(result.output)["report"]["exact"] == "15/16"


def test_attack_strategy_file_missing_path():
    result = invoke("attack", "--p", "2", "--strategy", "file")
    assert result.exit_code == 2


@pytest.mark.parametrize("m", ["2", "4"])
def test_attack_strategy_file_over_another_field_exits_config(tmp_path, m):
    spath = tmp_path / "gf3.json"
    invoke("game-value", "--p", "3", "--strategy-out", str(spath))
    result = invoke("attack", "--p", "2", "--m", m, "--strategy", "file",
                    "--strategy-file", str(spath))
    _assert_config_error(result)
    assert "different field" in result.stderr


def test_attack_negative_transcript_count_exits_config(tmp_path):
    tpath = tmp_path / "transcripts.json"
    result = invoke("attack", "--p", "2", "--m", "3",
                    "--transcript-out", str(tpath), "--transcript-count", "-3")
    _assert_config_error(result)
    assert "--transcript-count" in result.stderr
    assert not tpath.exists()


@pytest.mark.parametrize("exact_cap", ["200000", "0"])
def test_sweep_too_few_samples_exits_config(tmp_path, exact_cap):
    # rejected up front, whether or not any row would be Monte Carlo
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--p", "2", "--m-list", "4", "--samples", "50",
                    "--exact-cap", exact_cap, "--out", str(out))
    _assert_config_error(result)
    assert "--samples" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_attack_too_few_samples_exits_config(method):
    result = invoke("attack", "--p", "2", "--m", "4", "--method", method,
                    "--samples", "50")
    _assert_config_error(result)
    assert "--samples" in result.stderr


def test_attack_transcripts(tmp_path):
    tpath = tmp_path / "transcripts.json"
    result = invoke("attack", "--p", "2", "--m", "3",
                    "--variant", "symmetrized",
                    "--transcript-out", str(tpath), "--transcript-count", "4")
    assert result.exit_code == 0
    transcripts = json.loads(tpath.read_text())
    assert len(transcripts) == 4
    assert all(t["schema"] == 1 for t in transcripts)


@pytest.mark.parametrize("q, args", [
    (2, ("--p", "2", "--m", "6", "--variant", "standard")),
    (256, ("--p", "2", "--n", "8", "--m", "31", "--method", "mc",
           "--samples", "100", "--strategy", "search", "--restarts", "1")),
], ids=["gf2", "gf256"])
def test_attack_transcripts_follow_per_call_randrange(tmp_path, q, args):
    # the written (d, challenges) rows are the per-word reference's rows
    # on the command's seeded transcript rng: twelve bits, then the
    # challenges row by row
    # (the name dates from when the rows were randrange draws)
    tpath = tmp_path / "transcripts.json"
    result = invoke("attack", *args, "--seed", "5",
                    "--transcript-out", str(tpath), "--transcript-count", "12")
    assert result.exit_code == 0
    transcripts = json.loads(tpath.read_text())
    n_ch = len(transcripts[0]["challenges"])
    want = reference_transcripts(random.Random("5:attack-transcripts"), q,
                                 n_ch, 12)
    assert [(t["d"], tuple(t["challenges"])) for t in transcripts] == want


def test_attack_mc_reproducible():
    args = ("attack", "--p", "2", "--m", "6", "--variant", "symmetrized",
            "--method", "mc", "--samples", "2000", "--seed", "11")
    a = json.loads(invoke(*args).output)
    b = json.loads(invoke(*args).output)
    assert a["report"]["estimate"] == b["report"]["estimate"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nm = 3\nvariant = symmetrized\n")
    # config value used when the flag is absent
    result = invoke("attack", "--config", str(cfg))
    assert json.loads(result.output)["report"]["m"] == 3
    # explicit flag wins over the config file
    result = invoke("attack", "--config", str(cfg), "--m", "6")
    assert json.loads(result.output)["report"]["m"] == 6


def _assert_config_error(result):
    """Exit 2 with an error line (ours or click's), not a traceback."""
    assert result.exit_code == cli.EXIT_CONFIG, result.output
    assert isinstance(result.exception, SystemExit)
    assert any(line.startswith(("error:", "Error:"))
               for line in result.stderr.splitlines())
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command, args", [
    ("field-check", ()), ("game-value", ()), ("attack", ()),
    ("sweep", ("--out", "sweep.csv")), ("hiding", ())])
def test_malformed_config_line_exits_config(tmp_path, command, args):
    # a line that is not key = value, a key that names no option, and a key
    # given twice (also as its dashed spelling)
    for body, message in (("p = 2\njust words\n", "not key = value"),
                          ("p = 2\nsample = 1000\n", "'sample'"),
                          ("p = 2\np = 3\n", "given twice: 'p'"),
                          ("p = 2\nm-list = 4\nm_list = 5\n",
                           "given twice: 'm_list'")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        result = invoke(command, "--config", str(cfg), *args)
        _assert_config_error(result)
        assert message in result.stderr


def test_field_check_config_value_of_wrong_type_exits_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("triples = x\n")
    _assert_config_error(invoke("field-check", "--config", str(cfg)))


def test_attack_config_value_of_wrong_type_exits_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2\nm = six\n")
    result = invoke("attack", "--config", str(cfg))
    _assert_config_error(result)
    assert "Invalid value for '--m'" in result.stderr


_GF2 = {"p": 2, "n": 1, "modulus": [0, 1]}


@pytest.mark.parametrize("body", [
    {"field": _GF2, "s1": 5, "s2": [0, 0]},
    {"field": _GF2, "s1": ["a", 1], "s2": [0, 0]},
    {"field": 2, "s1": [0, 1], "s2": [0, 0]},
    [0, 1],
    {"field": _GF2, "s1": [0.5, 1], "s2": [0, 0]},
])
def test_attack_malformed_strategy_file_exits_config(tmp_path, body):
    spath = tmp_path / "strategy.json"
    spath.write_text(json.dumps(body))
    result = invoke("attack", "--p", "2", "--m", "4", "--strategy", "file",
                    "--strategy-file", str(spath))
    _assert_config_error(result)
    assert "malformed strategy file" in result.stderr


def _replay_config(tmp_path, name, config):
    """Config file holding an emitted JSON config, field flattened.

    A config file has no null; an input recorded as null is left out, which
    leaves it at its default.
    """
    lines = [f"{key} = {value}" for key, value in config["field"].items()
             if key != "modulus"]
    lines.append("modulus = " + ",".join(map(str, config["field"]["modulus"])))
    lines += [f"{key} = {value}" for key, value in config.items()
              if key not in ("field", "lineage", "meta") and value is not None]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_attack_records_resolved_config_and_replays(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nm = 6\nvariant = symmetrized\n"
                   "method = mc\nseed = 9\nsamples = 1000\n")
    tpath = tmp_path / "transcripts.json"
    result = invoke("attack", "--config", str(cfg),
                    "--transcript-out", str(tpath))
    assert result.exit_code == 0
    data = json.loads(result.output)
    config = data["config"]
    assert (config["method"], config["seed"], config["samples"]) == ("mc", 9, 1000)
    assert config["strategy"] == "brute"
    estimate = data["report"]["estimate"]
    assert (estimate["seed"], estimate["samples"]) == (9, 1000)
    replay = invoke("attack", "--config",
                    _replay_config(tmp_path, "replay.cfg", config))
    assert json.loads(replay.output)["report"] == data["report"]
    # the transcript stream follows the resolved seed, as if given by flag
    tflag = tmp_path / "flag.json"
    invoke("attack", "--p", "2", "--m", "6", "--variant", "symmetrized",
           "--method", "mc", "--seed", "9", "--samples", "1000",
           "--transcript-out", str(tflag))
    assert tpath.read_text() == tflag.read_text()


def test_attack_config_records_strategy_inputs_and_upper_c(tmp_path):
    result = invoke("attack", "--p", "2", "--m", "4", "--upper-c", "2.5")
    assert result.exit_code == 0
    data = json.loads(result.output)
    config = data["config"]
    assert {k: config[k] for k in ("strategy", "strategy_file", "restarts",
                                   "upper_c")} == {
        "strategy": "brute", "strategy_file": None, "restarts": 64,
        "upper_c": 2.5}
    replay = invoke("attack", "--config",
                    _replay_config(tmp_path, "replay.cfg", config))
    assert replay.exit_code == 0
    replayed = json.loads(replay.output)
    assert replayed["report"]["upper_c"] == 2.5
    assert replayed == data


def test_sweep_json_records_resolved_config_and_replays(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("p = 2\nm_list = 4..6\nexact_cap = 16\nseed = 9\n"
                   "samples = 500\nvariant = symmetrized\nrho = 2\nk0 = 1\n")
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--config", str(cfg), "--format", "json",
                    "--out", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    config = data["config"]
    assert {k: config[k] for k in ("seed", "samples", "variant", "rho", "k0")} \
        == {"seed": 9, "samples": 500, "variant": "symmetrized", "rho": 2, "k0": 1}
    assert {k: config[k] for k in ("m_list", "exact_cap", "strategy",
                                   "strategy_file", "restarts", "upper_c")} \
        == {"m_list": "4,5,6", "exact_cap": 16, "strategy": "brute",
            "strategy_file": None, "restarts": 64, "upper_c": 1.0}
    assert parse_m_list(config["m_list"]) == [4, 5, 6]
    assert any(row["mc"] is not None for row in data["rows"])
    replay_out = tmp_path / "replay.json"
    replay = invoke("sweep", "--config",
                    _replay_config(tmp_path, "replay.cfg", config),
                    "--format", "json", "--out", str(replay_out))
    assert replay.exit_code == 0
    assert json.loads(replay_out.read_text()) == data


def _assert_replays(tmp_path, command, data):
    """Feeding the emitted config back reproduces the whole output."""
    replay = invoke(command, "--config",
                    _replay_config(tmp_path, "replay.cfg", data["config"]))
    assert replay.exit_code == 0, replay.stderr
    assert json.loads(replay.output) == data


def test_game_value_brute_records_method_and_replays(tmp_path):
    result = invoke("game-value", "--p", "3", "--gamma", "1/2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    config = data["config"]
    assert {k: config[k] for k in ("gamma", "method", "restarts", "max_iters",
                                   "seed")} == {
        "gamma": "1/2", "method": "brute", "restarts": 64, "max_iters": 200,
        "seed": 0}
    assert data["result"]["method"] == "brute_force"
    _assert_replays(tmp_path, "game-value", data)


def test_game_value_search_records_inputs_and_replays(tmp_path):
    result = invoke("game-value", "--p", "2", "--n", "3", "--method", "search",
                    "--restarts", "2", "--seed", "5")
    assert result.exit_code == 0
    data = json.loads(result.output)
    config = data["config"]
    assert {k: config[k] for k in ("method", "restarts", "max_iters", "seed")} \
        == {"method": "search", "restarts": 2, "max_iters": 200, "seed": 5}
    assert config["meta"]["restarts"] == 2
    assert data["result"]["method"] == "best_response_search"
    _assert_replays(tmp_path, "game-value", data)


def test_field_check_replays(tmp_path):
    result = invoke("field-check", "--p", "3", "--n", "2", "--triples", "300",
                    "--seed", "4")
    assert result.exit_code == 0
    _assert_replays(tmp_path, "field-check", json.loads(result.output))


def test_hiding_replays(tmp_path):
    result = invoke("hiding", "--p", "3", "--m", "2", "--variant", "symmetrized")
    assert result.exit_code == 0
    _assert_replays(tmp_path, "hiding", json.loads(result.output))


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--p", "2", "--m-list", "4..6",
                    "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("q,m,rho,k0")
    assert len(lines) == 4
    assert "empirical upper constant" in result.output


def test_sweep_without_lengths_prints_zero_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--p", "2", "--m-list", "", "--out", str(out))
    assert result.exit_code == 0
    assert result.stdout == "rows: 0\n"
    assert out.read_text().splitlines() == [",".join(SWEEP_COLUMNS)]


def test_sweep_csv_fills_the_monte_carlo_columns(tmp_path):
    # 2*2^3 inputs fit --exact-cap 20 and 2*2^4 do not: m = 4 is exact and
    # m = 5 a Monte Carlo row, whose mean and half width the CSV holds
    args = ("sweep", "--p", "2", "--m-list", "4,5", "--exact-cap", "20",
            "--samples", "300", "--seed", "3")
    csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert invoke(*args, "--out", str(csv_out)).exit_code == 0
    assert invoke(*args, "--format", "json",
                  "--out", str(json_out)).exit_code == 0
    exact, mc = json.loads(json_out.read_text())["rows"]
    with open(csv_out, newline="") as fh:
        exact_row, mc_row = csv.DictReader(fh)
    assert exact["mc"] is None and exact["exact"] is not None
    assert (exact_row["mc_mean"], exact_row["mc_ci"]) == ("", "")
    estimate = McEstimate(**mc["mc"])
    assert mc["exact"] is None and estimate.samples == 300
    assert (mc_row["g_num"], mc_row["g_den"]) == ("", "")
    assert (mc_row["mc_mean"], mc_row["mc_ci"]) == (
        str(estimate.mean), str(estimate.half_width))
    assert float(mc_row["mc_ci"]) > 0


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--p", "2", "--m-list", "4,5",
                    "--format", "json", "--out", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and len(data["rows"]) == 2


@pytest.mark.parametrize("p, n, m, variant", [
    ("2", "2", "7", "symmetrized"),  # a padded tower
    ("2", "1", "3", "standard"),     # no tower step fits: nothing plugged
])
def test_attack_and_sweep_agree(tmp_path, p, n, m, variant):
    common = ("--p", p, "--n", n, "--variant", variant, "--rho", "2",
              "--k0", "0")
    attack = invoke("attack", *common, "--m", m, "--method", "exact")
    assert attack.exit_code == 0, attack.stderr
    report = json.loads(attack.output)["report"]
    out = tmp_path / "sweep.json"
    sweep = invoke("sweep", *common, "--m-list", m, "--format", "json",
                   "--out", str(out))
    assert sweep.exit_code == 0, sweep.stderr
    [row] = json.loads(out.read_text())["rows"]
    assert row["exact"] is not None and row["exact"] == report["exact"]
    assert row["w"] == report["w"]
    assert row["lower_bound"] == report["theory_lower"]
    assert row["closed_form"] == row["exact"]


@pytest.mark.parametrize("seed", ["0", "3"])
def test_sweep_monte_carlo_rows_replay_as_attacks(tmp_path, seed):
    # a sweep's estimated row m reports the wins of `attack --m m` at the
    # sweep's own seed and sample count, searched plug included
    common = ("--p", "2", "--n", "2", "--variant", "symmetrized",
              "--strategy", "search", "--restarts", "2", "--samples", "500",
              "--seed", seed)
    out = tmp_path / "sweep.json"
    sweep = invoke("sweep", *common, "--m-list", "6,9,10", "--exact-cap",
                   "100", "--format", "json", "--out", str(out))
    assert sweep.exit_code == 0, sweep.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [row["m"] for row in rows if row["mc"]] == [6, 9, 10]
    for row in rows:
        attack = invoke("attack", *common, "--m", str(row["m"]),
                        "--method", "mc")
        assert attack.exit_code == 0, attack.stderr
        assert row["mc"] == json.loads(attack.output)["report"]["estimate"]


def _predicted(p, m, variant, rho, k0):
    spec, model = FieldSpec(p), CausalModel(rho, k0)
    game = brute_force_value(GameDist(spec, tower_gamma(spec, model)))
    value = predicted_attack_probability(spec, Variant(variant), m, model,
                                         game.strategy)
    return f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize("m, k0", [(2, 0), (3, 2)])
def test_attack_below_the_bound_domain(m, k0):
    # theory_lower_bound rejects these lengths; the row reports its
    # exponent-0 value 1/2
    result = invoke("attack", "--p", "2", "--m", str(m), "--k0", str(k0))
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.output)["report"]
    assert report["exact"] == _predicted(2, m, "symmetrized", 2, k0)
    assert report["theory_lower"] == "1/2"


def test_sweep_from_below_the_bound_domain(tmp_path):
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--p", "2", "--m-list", "2..5", "--format",
                    "json", "--out", str(out))
    assert result.exit_code == 0, result.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [row["m"] for row in rows] == [2, 3, 4, 5]
    for row in rows:
        assert row["exact"] == _predicted(2, row["m"], "standard", 2, 0)
    assert rows[0]["lower_bound"] == "1/2"


def test_sweep_writes_ratios_past_the_int_digit_limit(tmp_path):
    # at m = 15000 the closed form has ~4500-digit terms, past the 4300
    # digits that str() writes; every digit is written, and exit 0
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--p", "2", "--m-list", "15000", "--samples",
                    "100", "--format", "json", "--out", str(out))
    assert result.exit_code == 0, result.stderr
    [row] = json.loads(out.read_text())["rows"]
    spec, model = FieldSpec(2), CausalModel()
    game = brute_force_value(GameDist(spec, tower_gamma(spec, model)))
    want = predicted_attack_probability(spec, Variant.STANDARD, 15000, model,
                                        game.strategy)
    assert want.denominator.bit_length() > 4300 * 3.33
    num, den = map(Decimal, row["closed_form"].split("/"))
    assert (num, den) == (want.numerator, want.denominator)


def test_hiding_ok():
    result = invoke("hiding", "--p", "2", "--m", "3")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert all(p["equal"] for p in data["prefixes"])
    assert data["reveal_discloses_bit"] is True


def test_hiding_property_failure_exit(monkeypatch):
    # a leaky protocol must yield the property-failure exit code
    def leaky(params, rounds):
        return [{0: {"x": 1}, 1: {"y": 1}} for _ in rounds]

    monkeypatch.setattr(cli, "hiding_distributions", leaky)
    result = invoke("hiding", "--p", "2", "--m", "3")
    assert result.exit_code == 4


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    result = invoke("field-check", "--p", "3", "--triples", "200",
                    "--out", str(out))
    assert result.exit_code == 0
    assert json.loads(out.read_text()) == json.loads(result.output)


def test_attack_records_the_same_config_in_any_flag_order():
    flags = [("--p", "2"), ("--m", "6"), ("--method", "mc"),
             ("--samples", "1000"), ("--seed", "9")]
    forward = invoke("attack", *[arg for flag in flags for arg in flag])
    backward = invoke("attack", *[arg for flag in reversed(flags)
                                  for arg in flag])
    assert forward.exit_code == backward.exit_code == 0
    assert forward.output == backward.output


_OUTPUT_OPTIONS = {"out", "format", "strategy_out", "transcript_out",
                   "transcript_count"}


@pytest.mark.parametrize("command, args, keys, extras", [
    ("field-check", ("--triples", "10"), ["triples", "seed"], []),
    ("game-value", (), ["gamma", "method", "restarts", "max_iters", "seed"],
     ["meta"]),
    ("attack", ("--m", "3"),
     ["m", "variant", "rho", "k0", "method", "samples", "seed", "strategy",
      "strategy_file", "restarts", "upper_c"], ["lineage"]),
    ("sweep", ("--m-list", "4", "--format", "json"),
     ["m_list", "variant", "rho", "k0", "samples", "seed", "exact_cap",
      "strategy", "strategy_file", "restarts", "upper_c"], []),
    ("hiding", ("--m", "2"), ["m", "variant"], []),
])
def test_config_lists_field_then_input_options_then_extras(
        tmp_path, command, args, keys, extras):
    # every input option is recorded in declaration order; output paths not
    declared = [param.name for param in main.commands[command].params
                if param.expose_value
                and param.name not in _OUTPUT_OPTIONS | {"p", "n", "modulus"}]
    assert declared == keys
    out = tmp_path / "out.json"
    result = invoke(command, "--p", "2", *args, "--out", str(out))
    assert result.exit_code == 0, result.stderr
    assert list(json.loads(out.read_text())["config"]) == ["field", *keys, *extras]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, args", [
    ("attack", ("--m", "4")),
    ("sweep", ("--m-list", "4", "--format", "json")),
])
def test_non_finite_upper_c_exits_config(tmp_path, command, args, value):
    out = tmp_path / "out.json"
    result = invoke(command, "--p", "2", *args, "--upper-c", value,
                    "--out", str(out))
    _assert_config_error(result)
    assert "positive and finite" in result.stderr
    assert not out.exists()


def test_json_writer_rejects_nan_with_no_row_to_check_it(tmp_path):
    # no row calls the upper bound; the check before the game solve
    # refuses NaN before the writer could
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--p", "2", "--m-list", "", "--upper-c", "nan",
                    "--format", "json", "--out", str(out))
    _assert_config_error(result)
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_without_rows_checks_upper_c(tmp_path, fmt):
    out = tmp_path / f"sweep.{fmt}"
    result = invoke("sweep", "--p", "2", "--n", "2", "--m-list", "",
                    "--upper-c", "nan", "--format", fmt, "--out", str(out))
    _assert_config_error(result)
    assert "upper constant c must be positive and finite" in result.stderr
    assert "rows:" not in result.stdout
    assert not out.exists()


def test_attack_checks_upper_c_before_the_game_solve(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("solved despite a bad upper_c")

    monkeypatch.setattr(cli, "_plugged_strategy", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    result = invoke("attack", "--p", "2", "--n", "4", "--m", "20",
                    "--strategy", "search", "--restarts", "4",
                    "--method", "mc", "--samples", "300000",
                    "--upper-c", "nan")
    _assert_config_error(result)
    assert "upper constant c must be positive and finite" in result.stderr


@pytest.mark.parametrize("args", [("--p", "1000000000000000003"),
                                  ("--p", "3", "--n", "30000000")])
def test_field_check_huge_field_exits_config_at_once(args):
    start = time.perf_counter()
    result = invoke("field-check", *args)
    elapsed = time.perf_counter() - start
    _assert_config_error(result)
    assert "exceeds cap" in result.stderr
    assert elapsed < 1.0


def test_every_json_output_file_ends_in_a_newline(tmp_path):
    paths = [tmp_path / name for name in ("strategy.json", "report.json",
                                          "transcripts.json", "sweep.json")]
    invoke("game-value", "--p", "2", "--strategy-out", str(paths[0]))
    invoke("attack", "--p", "2", "--m", "3", "--out", str(paths[1]),
           "--transcript-out", str(paths[2]))
    invoke("sweep", "--p", "2", "--m-list", "4", "--format", "json",
           "--out", str(paths[3]))
    for path in paths:
        text = path.read_text()
        assert text.endswith("}\n") or text.endswith("]\n"), path
        json.loads(text)
