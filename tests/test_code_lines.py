"""The code-line counter (``tools/code_lines.py``) on a synthetic source.

ROADMAP's size target and every simplicity change quote this tool, so its
counting rules are pinned here: docstrings, comments and blank lines do
not count; each physical line of a multi-line string or bracketed
expression does; a file argument counts that one file; a missing path
exits with status 2.
"""

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

#: Each line is tagged ``# code`` (counted) or left untagged (not counted);
#: the tag itself is a comment, so it never makes a line count.
SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # code


    class Thing:  # code
        """Class docstring."""

        def method(self):  # code
            """Function docstring
            over two lines.
            """
            # another comment
            text = """a multi-line  # code
            string value
            """
            return [  # code
                text,
                os.sep,
            ]


    async def later():  # code
        \'\'\'Async docstring.\'\'\'
        return 1  # code
    '''
)

#: Tagged lines plus the untagged continuation lines of the string and
#: the bracketed list (2 + 3).
EXPECTED = SOURCE.count("# code") + 5


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "src" / "pkg" / "sub"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(SOURCE)
    (package / "other.py").write_text("x = 1\n\n# trailing comment\n")
    return tmp_path / "src"


def test_counts_code_but_not_docstrings_comments_or_blanks(code_lines, tree):
    assert code_lines.count_file(tree / "pkg" / "sub" / "mod.py") == EXPECTED


def test_a_directory_counts_per_package(code_lines, tree):
    counts = code_lines.count_tree(tree)
    assert counts == {pathlib.Path("pkg", "sub"): EXPECTED + 1}


def test_a_file_argument_counts_that_one_file(code_lines, tree):
    counts = code_lines.count_tree(tree / "pkg" / "sub" / "other.py")
    assert counts == {pathlib.Path(): 1}


def test_the_command_prints_the_total(tree):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tree)], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1].split() == [str(EXPECTED + 1), str(tree), "(total)"]


def test_a_missing_path_exits_with_status_2(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "missing")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "no such path" in result.stderr
