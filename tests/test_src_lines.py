"""Smoke test of tools/src_lines.py, the package's line counter."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 21 lines; code lines 6, 9, 12, 14, 17, 18, 19 and 21
_MODULE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    # a comment

    import math


    class Box:
        """Class docstring."""

        size = 2  # a trailing comment counts as code

        def area(self):
            """Function
            docstring."""
            text = """not a docstring
    # inside a string"""
            return text

    VALUE = math.pi
''')


def test_counts_a_module_with_known_counts():
    assert src_lines.count_lines(_MODULE) == (21, 8)
    assert src_lines.count_lines("") == (0, 0)


def test_checkout_totals_are_the_module_sums(tmp_path, capsys):
    pkg = tmp_path / "src" / "cstar_index"
    pkg.mkdir(parents=True)
    (pkg / "one.py").write_text(_MODULE)
    (pkg / "two.py").write_text("x = 1\n\n# end\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["21", "8", "one.py"], ["3", "1", "two.py"], ["24", "9", "total"]]

    assert src_lines.main([str(ROOT)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules, total = rows[:-1], rows[-1]
    assert len(modules) == 8 and total[2] == "total"
    lines = [int(row[0]) for row in modules]
    code = [int(row[1]) for row in modules]
    assert [int(total[0]), int(total[1])] == [sum(lines), sum(code)]
    assert all(0 < c < n for n, c in zip(lines, code))
    paths = (ROOT / "src" / "cstar_index").glob("*.py")
    assert int(total[0]) == sum(path.read_bytes().count(b"\n") for path in paths)


def test_usage_error(capsys):
    assert src_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
