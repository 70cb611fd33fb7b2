"""Tests for the two overhead guards' command line (small n so the suite
stays fast; the serve-path arm is skipped)."""

import json

import pytest

from emissary.bench import main

GUARDS = ["--telemetry-overhead", "--sanitizer-overhead"]
SMALL = ["--n", "4000", "--repeats", "1", "--skip-serve"]


def _run(tmp_path, guard, max_overhead):
    out = tmp_path / "report.json"
    rc = main([guard, *SMALL, "--max-overhead", max_overhead,
               "--out", str(out)])
    return rc, json.loads(out.read_text())


@pytest.mark.parametrize("guard", GUARDS, ids=["telemetry", "sanitizer"])
def test_guard_passes_under_a_loose_bound(tmp_path, capsys, guard):
    rc, report = _run(tmp_path, guard, "100")
    assert rc == 0
    assert report["trace"]["n"] == 4000
    assert report["repeats"] == 1
    assert [row["policy"] for row in report["policies"]] \
        == ["lru", "random", "srrip", "emissary"]
    assert report["max_off_overhead"] \
        == max(row["off_overhead"] for row in report["policies"])
    assert "off overhead" in capsys.readouterr().out


@pytest.mark.parametrize("guard", GUARDS, ids=["telemetry", "sanitizer"])
def test_guard_fails_when_overhead_exceeds_the_bound(tmp_path, capsys, guard):
    # off / control - 1 is always above -1, so this bound always fails.
    rc, _ = _run(tmp_path, guard, "-1")
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err


def test_telemetry_report_without_serve_arm(tmp_path):
    _, report = _run(tmp_path, "--telemetry-overhead", "100")
    assert report["benchmark"] == "telemetry_overhead"
    assert "serve" not in report


def test_sanitizer_report_checks_outcomes(tmp_path):
    _, report = _run(tmp_path, "--sanitizer-overhead", "100")
    assert report["benchmark"] == "sanitizer_overhead"
    assert report["all_outcomes_identical"] is True
    for row in report["policies"]:
        assert row["outcomes_identical"] is True
        assert row["checks"] > 0


def test_cli_needs_exactly_one_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--n", "4000"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(GUARDS)
    assert exc.value.code == 2
