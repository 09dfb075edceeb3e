"""Every byte of every CSV the CLI writes on the cases of ``tools/output_digests.py``,
against the digests checked in as ``tests/data/output_digests.txt``.

After a change that moves an output on purpose, regenerate the file with
``python3 tools/output_digests.py > tests/data/output_digests.txt`` and name the
lines that moved in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "output_digests.txt"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def by_case(lines):
    """``<case> <file>``, or ``<case> exit`` for a failed command -> the rest of its line."""
    return {" ".join(line.split()[:2]): line.split(" ", 2)[2] for line in lines}


def test_outputs_match_the_checked_in_digests(monkeypatch, tmp_path):
    tool = load_tool()
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("# ")]
    here = tool.environment()
    if here != header:
        pytest.skip("digests were computed under " + ", ".join(
            f"{want[2:]} (here {got[2:]})" for want, got in zip(header, here) if want != got))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delenv("MOVINGHEAT_OUT", raising=False)
    got_lines = tool.digests(tmp_path)
    expected, got = by_case(lines[len(header):]), by_case(got_lines)
    moved = [f"{key}: checked in {expected.get(key, 'nothing')}, now {got.get(key, 'nothing')}"
             for key in [*expected, *(key for key in got if key not in expected)]
             if expected.get(key) != got.get(key)]
    assert not moved, f"{len(moved)} output(s) moved:\n" + "\n".join(moved)
    assert got_lines == lines[len(header):]  # and in the same order
