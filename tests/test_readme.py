import doctest
import shlex
from pathlib import Path

from chromasym.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the quick start's >>> examples are run against the installed API
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_command_lines_run(monkeypatch, tmp_path, capsys):
    # every `chromasym ...` line of the command-line block exits 0; the verify
    # line's --out report is written to a temporary directory
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("chromasym ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    outputs = []
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        outputs.append(capsys.readouterr().out)
        assert code == 0, line
    assert outputs[0] == "3*e[3] + e[2,1]\n"
    assert (tmp_path / "report.json").exists()
