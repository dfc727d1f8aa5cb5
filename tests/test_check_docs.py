"""``tools/check_docs.py``: a ``path.py:Symbol`` code span must name
something the file defines, not just a file that exists."""

import pathlib
import sys

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def check_docs():
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import check_docs
    finally:
        sys.path.remove(str(TOOLS_DIR))
    return check_docs


MODULE = '''
LIMIT = 3
TABLE: dict = {}


def helper():
    inner = 1


class Service:
    depth = 2

    def run(self):
        pass
'''


@pytest.mark.parametrize("reference,resolves", [
    ("pkg/mod.py", True),
    ("pkg/mod.py:LIMIT", True),
    ("pkg/mod.py:TABLE", True),
    ("pkg/mod.py:helper", True),
    ("pkg/mod.py:Service", True),
    ("pkg/mod.py:Service.run", True),
    ("pkg/mod.py:Service.depth", True),
    ("pkg/mod.py:4", True),
    ("pkg/mod.py:run", False),             # a method is Class.member
    ("pkg/mod.py:inner", False),           # a local is no symbol
    ("pkg/mod.py:Servce", False),
    ("pkg/mod.py:Service.stop", False),
    ("pkg/mod.py:99", False),
    ("pkg/gone.py", False),
])
def test_code_references_resolve_to_symbols(check_docs, tmp_path, capsys,
                                            reference, resolves):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCH.md").write_text(
        f"# Arch\n\nSee `{reference}`.\n")
    assert check_docs.main(["--root", str(tmp_path)]) == (0 if resolves
                                                          else 1)
    assert (reference in capsys.readouterr().out) is not resolves
