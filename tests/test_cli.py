"""Command-line behavior: outputs, config precedence, exit codes."""

import json

from click.testing import CliRunner

from relbc import cli
from relbc.cli import load_config, main, parse_m_list


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_parse_m_list():
    assert parse_m_list("4..7") == [4, 5, 6, 7]
    assert parse_m_list("4,7,10") == [4, 7, 10]
    assert parse_m_list("5") == [5]
    assert parse_m_list("") == []


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


def test_field_check_bad_field_exits_config():
    result = invoke("field-check", "--p", "6")
    assert result.exit_code == 2
    assert "not prime" in result.stderr


def test_field_check_reducible_modulus_exits_config():
    result = invoke("field-check", "--p", "2", "--n", "2",
                    "--modulus", "1,0,1")
    assert result.exit_code == 2


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


def test_attack_transcripts(tmp_path):
    tpath = tmp_path / "transcripts.json"
    result = invoke("attack", "--p", "2", "--m", "3",
                    "--variant", "symmetrized",
                    "--transcript-out", str(tpath), "--transcript-count", "4")
    assert result.exit_code == 0
    transcripts = json.loads(tpath.read_text())
    assert len(transcripts) == 4
    assert all(t["schema"] == 1 for t in transcripts)


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


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke("sweep", "--p", "2", "--m-list", "4..6",
                    "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("q,m,rho,k0")
    assert len(lines) == 4
    assert "empirical upper constant" in result.output


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    result = invoke("sweep", "--p", "2", "--m-list", "4,5",
                    "--format", "json", "--out", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and len(data["rows"]) == 2


def test_hiding_ok():
    result = invoke("hiding", "--p", "2", "--m", "3")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert all(p["equal"] for p in data["prefixes"])
    assert data["reveal_discloses_bit"] is True


def test_hiding_property_failure_exit(monkeypatch):
    # a leaky protocol must yield the property-failure exit code
    def leaky(params, upto):
        return {0: {"x": 1}, 1: {"y": 1}}

    monkeypatch.setattr(cli, "hiding_distribution", leaky)
    result = invoke("hiding", "--p", "2", "--m", "3")
    assert result.exit_code == 4


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    result = invoke("field-check", "--p", "3", "--triples", "200",
                    "--out", str(out))
    assert result.exit_code == 0
    assert json.loads(out.read_text()) == json.loads(result.output)
