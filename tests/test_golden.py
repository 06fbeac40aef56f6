"""Golden outputs: the SHA-256 of every file a packaged run and the CLI chain
write, pinned in `golden.json`, so a change that claims to move no output
byte is checked in Tier-1.

The runs are `reproduce ident --reruns 2 --seed 7` and gen-data -> solve ->
eval -> diagnose on perfbench's ident CLI config at n = 5,000 with `split`
false and true, as given and with `move_noise = 0.2`, whose slips give cells
more than one next state, so the fixed point takes its misfit pass. A change
that moves bytes on purpose rewrites the manifest with `PYTHONPATH=src python
tests/test_golden.py`, which prints each entry it changes, adds or drops, and
names each moved file, and why, in CHANGES.md.
"""

import hashlib
import itertools
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
{env}
[solver]
k = auto
split = {split}
smoothing_alpha = 1.0

[eval]
n = 5000
name = ident
"""
SEED = "7"
# (output directory, extra [env] lines) of each CLI chain
CHAINS = (("cli", ""), ("cli-move-noise", "move_noise = 0.2\n"))


def _run(cmd: list) -> None:
    code = main([*cmd, "--quiet"])
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}")


def golden_digests(root: Path) -> dict:
    """Run every pinned command under `root`; {output name: SHA-256 hex}."""
    out = root / "reproduce-ident"
    _run(["reproduce", "ident", "--reruns", "2", "--seed", SEED, "--out", str(out)])
    files = [out / name for name in ("raw.csv", "summary.csv", "table.md")]
    for (chain, env), split in itertools.product(CHAINS, ("false", "true")):
        config, d = root / f"{chain}-split-{split}.ini", root / f"{chain}-split-{split}"
        config.write_text(CLI_CONFIG.format(env=env, split=split))
        d.mkdir()
        common = ["--config", str(config)]
        _run(["gen-data", *common, "--seed", SEED, "--out", str(d / "data.txt")])
        _run(["solve", str(d / "data.txt"), *common, "--out", str(d / "solution")])
        _run(["eval", str(d / "solution"), *common, "--out", str(d / "eval.csv")])
        _run(["diagnose", *common, "--seed", SEED, "--out", str(d / "diagnose.csv")])
        files += [path for path in d.rglob("*") if path.is_file()]  # every file the chain wrote
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(files)}


def manifest_diff(old: dict, new: dict) -> list:
    """One "changed|added|dropped <name>" line per entry whose digest differs
    between the manifests `old` and `new`, in name order."""
    return [f"{'added' if name not in old else 'dropped' if name not in new else 'changed'} "
            f"{name}" for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def test_manifest_diff_names_each_moved_entry():
    old = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    new = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert manifest_diff(old, new) == ["changed b.csv", "dropped c.csv", "added d.csv"]
    assert manifest_diff(old, dict(old)) == []


def test_every_output_matches_its_golden_digest(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = golden_digests(tmp_path)
    assert sorted(got) == sorted(want), "the set of pinned outputs changed"
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"output bytes differ from tests/golden.json in: {', '.join(moved)}"


if __name__ == "__main__":  # rewrite the manifest from this tree's outputs
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    for line in manifest_diff(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, digests):
        print(line, file=sys.stderr)
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
