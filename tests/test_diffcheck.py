"""tools/diffcheck.py: one seed writes one corpus, and a planted difference is reported.

No git and no network: the other tree is a copy of ``src/`` that ``_export`` is
patched to return.
"""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("diffcheck", ROOT / "tools" / "diffcheck.py")
diffcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diffcheck)


def _written(seed: int, directory: Path) -> tuple[list, dict]:
    """The corpus's commands, with ``directory`` replaced by a placeholder, and its input bytes."""
    directory.mkdir()
    commands = [(name, [arg.replace(str(directory), "<corpus>") for arg in argv])
                for name, argv in diffcheck.corpus(seed, directory)]
    inputs = {str(path.relative_to(directory)): path.read_bytes()
              for path in sorted(directory.rglob("*")) if path.is_file()}
    return commands, inputs


def test_corpus_writes_the_same_commands_and_inputs_for_one_seed(tmp_path):
    first = _written(3, tmp_path / "first")
    assert first == _written(3, tmp_path / "again")
    commands, inputs = first
    names = [name for name, _ in commands]
    assert len(set(names)) == len(names)
    for name in ("refs-demo-simulate", "refs-ghost-validate", "refs-outside-allocate",
                 "refs-repeated-validate", "ties-flat-simulate", "ties-pooled-simulate"):
        assert name in names
    # The reference experiments sit beside the sample CDFs they name.
    assert "samples/refs-demo.edf.json" in inputs and "samples/camera-driver.cdf.json" in inputs
    # Another seed draws other fleets.
    assert _written(4, tmp_path / "other")[1] != inputs


def _planted(tmp_path: Path, old: str, new: str) -> Path:
    """A copy of ``src/`` with ``old`` replaced by ``new``, once, in ``allocator.py``."""
    src = tmp_path / "planted" / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    allocator = src / "swarmlab" / "allocator.py"
    text = allocator.read_text(encoding="utf-8")
    assert text.count(old) == 1
    allocator.write_text(text.replace(old, new), encoding="utf-8")
    return src


@pytest.mark.parametrize("new, differing", [
    # The same tree: every record is identical.
    ("key=lambda i: (-scores[i][1], scores[i][2], i)", None),
    # The last configuration wins ties: the tie-heavy fleets' reports change.
    ("key=lambda i: (-scores[i][1], scores[i][2], -i)", ["ties-pooled-allocate: stdout",
                                                        "ties-pooled-simulate: files"]),
])
def test_main_reports_the_records_a_planted_edit_changes(tmp_path, monkeypatch, capsys, new, differing):
    src = _planted(tmp_path, "key=lambda i: (-scores[i][1], scores[i][2], i)", new)
    monkeypatch.setattr(diffcheck, "_export", lambda ref, into: src)
    code = diffcheck.main(["--seed", "2"])
    report = capsys.readouterr().out
    count = int(re.search(r"^  differing: (\d+)$", report, re.M).group(1))
    if differing is None:
        assert (code, count) == (0, 0)
    else:
        assert code == 1 and count >= len(differing)
        assert re.search(r"^    in exit: 0$", report, re.M)
        for line in differing:
            assert f"\n  {line}\n" in report
