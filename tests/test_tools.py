import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digests_match_the_committed_loop_replay_outputs(tmp_path):
    # The benchmark's own sequences at seed 0, replayed by the digest tool,
    # give the output hashes recorded in BENCH_loop_replay.json. The tool runs
    # in a process of its own: it puts perfbench/ first on sys.path, whose
    # worlds module would shadow the one of these tests.
    script = ("import json, pathlib, sys, output_digests; print(json.dumps("
              "dict(output_digests.sequence_digests(0, pathlib.Path(sys.argv[1])))))")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT / "tools",
                         capture_output=True, text=True, check=True)
    digests = json.loads(run.stdout)
    recorded = json.loads((ROOT / "BENCH_loop_replay.json").read_text())["info"]["sequences"]
    assert digests.keys() == recorded.keys()
    for k, sequence in recorded.items():
        for name in ("records.csv", "gt.csv", "pr.csv"):
            assert digests[k][name] == sequence["hashes"][name], (k, name)
