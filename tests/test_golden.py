"""Golden outputs: the SHA-256 of every file a packaged run and the CLI chain
write, pinned in `golden.json`, so a change that claims to move no output
byte is checked in Tier-1.

The runs are `reproduce ident --reruns 2 --seed 7` and gen-data -> solve ->
eval -> diagnose on perfbench's ident CLI config at n = 5,000 with `split`
false and true. A change that moves bytes on purpose rewrites the manifest
with `PYTHONPATH=src python tests/test_golden.py` and names each moved file,
and why, in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from softirl.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
# perfbench's ident CLI config (`perfbench/workloads.py` CLI_CONFIG) at n = 5,000
CLI_CONFIG = """\
[env]
width = 8
height = 8
topology = bounded
reward_kind = tabular-linear
seed = 23
min_action_prob = 0.03

[solver]
k = auto
split = {split}
smoothing_alpha = 1.0

[eval]
n = 5000
name = ident
"""
SEED = "7"


def _run(cmd: list) -> None:
    code = main([*cmd, "--quiet"])
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}")


def golden_digests(root: Path) -> dict:
    """Run every pinned command under `root`; {output name: SHA-256 hex}."""
    out = root / "reproduce-ident"
    _run(["reproduce", "ident", "--reruns", "2", "--seed", SEED, "--out", str(out)])
    files = [out / name for name in ("raw.csv", "summary.csv", "table.md")]
    for split in ("false", "true"):
        config, d = root / f"config-split-{split}.ini", root / f"cli-split-{split}"
        config.write_text(CLI_CONFIG.format(split=split))
        d.mkdir()
        common = ["--config", str(config)]
        _run(["gen-data", *common, "--seed", SEED, "--out", str(d / "data.txt")])
        _run(["solve", str(d / "data.txt"), *common, "--out", str(d / "solution")])
        _run(["eval", str(d / "solution"), *common, "--out", str(d / "eval.csv")])
        _run(["diagnose", *common, "--seed", SEED, "--out", str(d / "diagnose.csv")])
        files += [path for path in d.rglob("*") if path.is_file()]  # every file the chain wrote
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(files)}


def test_every_output_matches_its_golden_digest(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = golden_digests(tmp_path)
    assert sorted(got) == sorted(want), "the set of pinned outputs changed"
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"output bytes differ from tests/golden.json in: {', '.join(moved)}"


if __name__ == "__main__":  # rewrite the manifest from this tree's outputs
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_digests(Path(tmp)), indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
