"""tests/stdlib_battery.py passes under ``python -I -S``, as CI runs it,
and reports a check that fails."""

import subprocess
import sys
from pathlib import Path

import stdlib_battery


def _failures(out):
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_battery_passes_with_no_site_packages():
    done = subprocess.run(
        [sys.executable, "-I", "-S", stdlib_battery.__file__],
        capture_output=True, text=True, timeout=600)
    rows = len(stdlib_battery.ROWS)
    assert done.returncode == 0, done.stdout
    assert _failures(done.stdout) == []
    assert done.stdout.endswith(f"{rows} of {rows} checks passed\n")


def test_battery_reports_a_changed_exit(capsys):
    # The row that writes cl2.json, then the mutant's row, expected to pass.
    emit, mutant = stdlib_battery.ROWS[0], "verify cl2-mutant.json"
    assert (1, mutant) in stdlib_battery.ROWS
    assert stdlib_battery.run([emit, (1, mutant)]) == 0
    assert stdlib_battery.run([emit, (0, mutant)]) == 1
    out = capsys.readouterr().out
    assert _failures(out) == [f"FAIL: zlca {mutant} (exit 1, not 0)"]
    assert out.endswith("1 of 2 checks passed\n")


def test_battery_reports_a_changed_golden_byte(tmp_path, capsys):
    want, command, golden = next(row for row in stdlib_battery.ROWS
                                 if row[2:] and "full12_family" in row[2])
    text = Path(golden).read_bytes()
    changed = tmp_path / "golden.out"
    changed.write_bytes(text.replace(b"1", b"2", 1))
    assert changed.read_bytes() != text
    assert stdlib_battery.run([(want, command, golden)]) == 0
    assert stdlib_battery.run([(want, command, str(changed))]) == 1
    out = capsys.readouterr().out
    assert _failures(out) == [f"FAIL: zlca {command} (other bytes)"]
