"""The README's examples run as written and print what the README shows."""
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from holozeta.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str, marker: str) -> str:
    """The first ```lang block of the README that contains `marker`."""
    for body in re.findall(r"^```%s\n(.*?)^```" % lang, README, re.M | re.S):
        if marker in body:
            return body
    raise AssertionError("README has no %s block containing %r" % (lang, marker))


def test_library_example_prints_its_comments():
    code = _block("python", "from holozeta import")
    # each print(...) line ends with `# <what it prints>`
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_command_line_example_prints_its_output(tmp_path, monkeypatch, capsys):
    session = _block("sh", "$ holozeta alexander")
    m = re.match(r"\$ cat > (\S+) <<'EOF'\n(.*?)\nEOF\n\$ holozeta (.*?)\n(.*)", session, re.S)
    name, text, argv, output = m.groups()
    (tmp_path / name).write_text(text + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == output
