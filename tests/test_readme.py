"""The README's examples: the library quick start runs and prints what its
comment says, and every line of the command-line block parses."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from bicliff import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ```language block of the README section `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_prints_its_comment():
    code = _block("Library quick start", "python")
    comment = re.search(r"print\(format_poly\(.*\)\)\s*#\s*(.+)", code).group(1)
    assert comment == "32/27*F^4 - 4/9*F^2 + 4/27*F + 1/9"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == comment
    assert len(lines) == 4  # then one line for each of the first three cosets


def test_command_line_examples_parse():
    lines = [line.split("#", 1)[0] for line in _block("Command line", "sh").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("bicliff ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == f"cmd_{argv[0]}", argv
