"""The timing tools in tools/ run what they name, so that a renamed function or flag fails here."""

from pathlib import Path

from instanton_gas import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_timed_row_and_command_runs_once(monkeypatch, capsys):
    # each layer_time row's set-up and call, and each cold_start command through cli.main
    monkeypatch.syspath_prepend(str(TOOLS))
    import cold_start
    import layer_time

    for _, setup, call in layer_time.ROWS:
        names = {}
        exec(layer_time.NAMES, names)
        exec(setup, names)
        exec(call, names)
    for label, argv, code in cold_start.COMMANDS:
        assert cli.main([*argv, "--format", "json"]) == code, label
    capsys.readouterr()
