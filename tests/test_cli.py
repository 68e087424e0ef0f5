"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_policy, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apps_lists_all_sixteen(capsys):
    code, out, _ = run_cli(capsys, "apps")
    assert code == 0
    assert "LinkedList" in out
    assert "adaptorChain" in out
    assert len(out.strip().splitlines()) == 16


def test_detect_reports_classification(capsys):
    code, out, _ = run_cli(capsys, "detect", "LLMap", "--stride", "2")
    assert code == 0
    assert "LLMap:" in out
    assert "pure" in out
    assert "masking phase would wrap" in out


def test_detect_unknown_app(capsys):
    code, _, err = run_cli(capsys, "detect", "NoSuchApp")
    assert code == 2
    assert "unknown application" in err


def test_detect_timeout_without_workers_is_refused(capsys):
    code, out, err = run_cli(capsys, "detect", "LLMap", "--timeout", "5")
    assert code == 2
    assert "timeout needs the shard engine (pass workers)" in err
    assert out == ""


def test_detect_saves_log(capsys, tmp_path):
    log_path = tmp_path / "runlog.json"
    code, out, _ = run_cli(
        capsys, "detect", "LLMap", "--stride", "4", "--save-log", str(log_path)
    )
    assert code == 0
    payload = json.loads(log_path.read_text())
    assert payload["runs"]


def test_detect_with_policy_file(capsys, tmp_path):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"never_wrap": ["LLMap.put"]}))
    code, out, _ = run_cli(
        capsys, "detect", "LLMap", "--stride", "2",
        "--policy", str(policy_path),
    )
    assert code == 0
    # the policy's never_wrap keeps put out of the wrap list
    wrap_line = next(l for l in out.splitlines() if "would wrap" in l)
    assert "LLMap.put" not in wrap_line


def test_policy_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"typo_key": []}))
    with pytest.raises(ValueError, match="unknown policy keys"):
        load_policy(str(path))


def test_policy_none_passthrough():
    assert load_policy(None) is None


def test_validate_exits_zero_when_effective(capsys):
    code, out, _ = run_cli(capsys, "validate", "LLMap", "--stride", "2")
    assert code == 0
    assert "EFFECTIVE" in out


def test_validate_undolog_strategy(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "LLMap", "--stride", "2",
        "--strategy", "undolog",
    )
    assert code == 0
    assert "undolog" in out


def test_fuzz_subcommand_smoke(capsys, tmp_path):
    report_path = tmp_path / "fuzz-report.json"
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "7", "--programs", "3",
        "--engine", "sequential", "--report-out", str(report_path),
    )
    assert code == 0
    assert "zero oracle mismatches" in out
    payload = json.loads(report_path.read_text())
    assert payload["seed"] == 7
    assert payload["mismatches"] == []


def test_fuzz_replay_clean_spec(capsys, tmp_path):
    from repro.fuzz import generate_program

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(generate_program(7, 0).to_json())
    code, out, _ = run_cli(
        capsys, "fuzz", "--engine", "sequential",
        "--replay", str(spec_path),
    )
    assert code == 0
    assert "all checks pass" in out


def test_figure_subcommand(capsys):
    code, out, _ = run_cli(capsys, "figure", "3", "--stride", "6")
    assert code == 0
    assert "Figure 3(a)" in out
    assert "Figure 3(b)" in out


def test_fig5_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fig5", "--calls", "50", "--repeats", "1")
    assert code == 0
    assert "size" in out
    assert "100%" in out


def test_fixes_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fixes", "--stride", "2")
    assert code == 0
    assert "pure methods" in out
    assert "pure before" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_bad_policy_file_reports_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(
        capsys, "detect", "LLMap", "--stride", "4", "--policy", str(path)
    )
    assert code == 2
    assert "error:" in err


def test_reproduce_subcommand(capsys, tmp_path):
    out_path = tmp_path / "report.md"
    code, out, err = run_cli(
        capsys, "reproduce", "--stride", "6", "--calls", "60",
        "--out", str(out_path),
    )
    assert code == 0
    report = out_path.read_text()
    assert "# Reproduction report" in report
    assert "Table 1" in report
    assert "Figure 5" in report
    assert "EXACT MATCH" in report
    assert "EFFECTIVE" in report
