"""tools/diffcheck.py: one seed writes one corpus, and a planted difference is reported.

No git and no network: the other tree is a copy of ``src/`` that ``_export`` is
patched to return.
"""

import importlib.util
import json
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
                 "refs-repeated-validate", "ties-flat-simulate", "ties-pooled-simulate",
                 "mutant-mapping-demo-truncate-0-validate", "mutant-bench-number-1-validate",
                 "edge-comment-after-value-scaling", "edge-non-utf8-allocate", "trace-grid0-scaling",
                 "demo-blocks-simulate", "fleet-blocks-simulate"):
        assert name in names
    assert len(names) == 271
    # The block-spanning runs: 1500 demo rounds are 3 blocks of 682, and 50 rounds of a fleet of
    # 60 workers x 30 services and 3 pools are 4 blocks of 16.
    argv = dict(commands)
    assert argv["demo-blocks-simulate"][argv["demo-blocks-simulate"].index("--iterations") + 1] == "1500"
    assert argv["fleet-blocks-simulate"][argv["fleet-blocks-simulate"].index("--iterations") + 1] == "50"
    fleet = json.loads(inputs["fleet-blocks.edf.json"])
    assert (len(fleet["services"]), len(fleet["dependencies"])) == (30, 3)
    assert len(json.loads(inputs["fleet-blocks.cluster.json"])["workers"]) == 60
    # Each mutation of each sample document is drawn twice; only documents that are still JSON
    # are allocated, and no CDF is.
    for mutation in diffcheck.MUTATIONS:
        assert len([name for name in names if name.startswith("mutant-") and f"-{mutation}-" in name
                    and name.endswith("-validate")]) == 10
    allocated = [name for name in names if name.startswith("mutant-") and name.endswith("-allocate")]
    assert allocated and all(name.startswith(("mutant-bench-", "mutant-mapping-demo-")) for name in allocated)
    assert not [name for name in allocated if "-truncate-" in name or "-non-utf8-" in name]
    # The reference experiments sit beside the sample CDFs they name.
    assert "samples/refs-demo.edf.json" in inputs and "samples/camera-driver.cdf.json" in inputs
    # Another seed draws other fleets.
    assert _written(4, tmp_path / "other")[1] != inputs


def _planted(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of ``src/`` with ``old`` replaced by ``new``, once, in ``module``."""
    src = tmp_path / "planted" / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    planted = src / "swarmlab" / module
    text = planted.read_text(encoding="utf-8")
    assert text.count(old) == 1
    planted.write_text(text.replace(old, new), encoding="utf-8")
    return src


_TIE_RULE = "np.lexsort((scores[..., 2], -scores[..., 1]))[:, 0]"
_COMMENT_CHECK = 'if data[data.rfind(b"\\n", 0, hash_at) + 1:hash_at].strip(b" \\t"):'


@pytest.mark.parametrize("new, module, old, exits, differing", [
    # The same tree: every record is identical.
    (_TIE_RULE, "allocator.py", _TIE_RULE, 0, None),
    # The last configuration wins ties: the tie-heavy fleets' reports change.
    ("(scores.shape[1] - 1 - np.lexsort((scores[:, ::-1, 2], -scores[:, ::-1, 1])))[:, 0]", "allocator.py",
     _TIE_RULE, 0,
     ["ties-pooled-allocate: stdout", "ties-pooled-simulate: files"]),
    # A fold that starts each block from empty shares: only runs of several blocks change.
    ("rows[0] = 0.0", "metrics.py", "rows[0] = self._shares", 0,
     ["demo-blocks-simulate: files", "fleet-blocks-simulate: files"]),
    # numpy's bulk reader judges a trace whose comment follows a value, and drops the comment
    # that the line loop refuses: the template that holds one is accepted.
    ("if False:", "swarmsim.py", _COMMENT_CHECK, 3,
     ["edge-comment-after-value-validate: exit, stdout", "edge-comment-after-value-scaling: exit, stderr, files",
      "edge-comment-after-value-allocate: exit, stdout, stderr"]),
])
def test_main_reports_the_records_a_planted_edit_changes(tmp_path, monkeypatch, capsys, new, module, old,
                                                         exits, differing):
    src = _planted(tmp_path, module, old, new)
    monkeypatch.setattr(diffcheck, "_export", lambda ref, into: src)
    code = diffcheck.main(["--seed", "2"])
    report = capsys.readouterr().out
    count = int(re.search(r"^  differing: (\d+)$", report, re.M).group(1))
    if differing is None:
        assert (code, count) == (0, 0)
    else:
        assert code == 1 and count >= len(differing)
        assert re.search(rf"^    in exit: {exits}$", report, re.M)
        for line in differing:
            assert f"\n  {line}\n" in report
