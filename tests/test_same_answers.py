"""Same answers as code: the bytes ``analyze`` and ``power`` write, pinned.

Each digest is the sha256 of one output file, so a change that keeps every
answer keeps every digest. The pins are independent of
``perfbench/pins.json`` and take about 2 s. A change meant to move an
answer re-pins the digests it moves and names them in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from rmwtest.cli import main

ROOT = Path(__file__).resolve().parents[1]

# analyze --data data/example_trial.csv --test <key> --out result.json
ANALYZE = {
    "rmw": "62a1e227b8f06a0f52c406686c3ac5a8c5e0a08807e6b26475faf28fdf2271ec",
    "lr": "c181decb3502f6862ab396be8292e846054e14f80539c2801cbca4fe901ea42e",
    "mw(0.5)": "5037d4f21b215386536b6373c1dec3de5c4c36f969bf29507f243d50859be58e",
    "fh(0,0.5)": "a265f8b0b3ae324f1297dfd2f6bb7a1f7af4069b903f37765117573df60f7dd1",
    "fh(1,1)": "29cec5ec82eb44cba9d0de37c73d3acd1258d81bb36dbdc48685c59098a20fc7",
    "max(lr,mw(0.5);k1=0.6,alpha=0.025)": "993a23899d9fabf28a53b9c73d35ec3989875af45fe92c741b74390d36001131",
    "max(lr,fh(0,0.5))": "49d2e443028985d2fdc7bb80f2e54da98c334a70f62ae9c84fddcb3a5c7e2b24",
    "max(lr,lr)": "24e9145cf8949caaec5f475e0b46bfeef3e1ac010c223cc8ec232d5641c7999e",
    # a k1 = 1 test is its w1 test, byte for byte
    "max(lr,fh(0,0.5);k1=1)": "c181decb3502f6862ab396be8292e846054e14f80539c2801cbca4fe901ea42e",
    # variances whose squares underflow
    "fh(0,400)": "5e73cf231a6ab4d362991a563a8a5d1217de8ef89c81aea048599e9cac6fe8f7",
    "max(fh(0,370),fh(0,380))": "e45b0e67f11fc50007af82d8536e90dedad8fa364e0e1744870baaf8082bef0f",
}

# power --scenario all --methods paper6 --reps 200 --seed 7 --workers 2; the
# md5s CHANGES.md records for these files are d3576f21... and 4c0374ec...
POWER_CSV = "96c7cce663b7ccce6dedf243374fe8629322151520dfd60916dabb699b77b629"
POWER_JSON = "c84249c074c05716f949d7e8494adcc07174409bca64093872516077df08b07e"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("test", ANALYZE)
def test_analyze_bytes(test, tmp_path):
    data, out = ROOT / "data" / "example_trial.csv", tmp_path / "result.json"
    assert main(["analyze", "--data", str(data), "--test", test, "--out", str(out)]) == 0
    assert sha256(out) == ANALYZE[test]


def test_power_grid_bytes(tmp_path):
    csv, report = tmp_path / "power.csv", tmp_path / "power.json"
    assert main([
        "power", "--scenario", "all", "--methods", "paper6", "--reps", "200", "--seed", "7",
        "--workers", "2", "--out", str(csv), "--json", str(report),
    ]) == 0
    assert (sha256(csv), sha256(report)) == (POWER_CSV, POWER_JSON)
