"""The README's Python and console examples run as written."""

import re
from pathlib import Path

from trapspec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    # One shared namespace: later blocks use names the earlier ones define,
    # so an advertised name that disappears from the package fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_console_examples_print_as_shown(tmp_path, capsys, monkeypatch):
    # Every "$ trapspec ..." line runs against the README's configuration,
    # saved as the ip.json the examples name; its stdout must be the lines
    # printed below it, up to the next blank line or the end of the block.
    text = README.read_text()
    (tmp_path / "ip.json").write_text(re.search(r"^```json\n(.*?)^```", text, re.M | re.S)[1])
    examples = re.findall(r"^\$ trapspec (.*)\n((?:(?!```).+\n)*)", text, re.M)
    assert len(examples) >= 5
    monkeypatch.chdir(tmp_path)
    for argv, shown in examples:
        assert cli.main(argv.split()) == 0, argv
        assert capsys.readouterr().out == shown, argv
