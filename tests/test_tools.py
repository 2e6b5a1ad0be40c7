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


def test_scores_digest_ignores_only_the_pose_errors(tmp_path):
    header = "query_id,detected_id,overlap,votes,rot_err_deg,trans_err_m,candidates\n"
    files = {
        "base": header + "7,2,0.812500,40,0.031,0.0029,2:40:0.812500\n",
        "pose": header + "7,2,0.812500,40,0.032,0.0031,2:40:0.812500\n",
        "overlap": header + "7,2,0.812501,40,0.031,0.0029,2:40:0.812500\n",
        "reordered": ("query_id,rot_err_deg,detected_id,overlap,votes,trans_err_m,candidates\n"
                      "7,0.5,2,0.812500,40,0.1,2:40:0.812500\n"),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    script = ("import json, pathlib, sys, output_digests; print(json.dumps({p.name: "
              "output_digests.scores_digest(p) for p in pathlib.Path(sys.argv[1]).iterdir()}))")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT / "tools",
                         capture_output=True, text=True, check=True)
    digests = json.loads(run.stdout)
    assert digests["base"] == digests["pose"] == digests["reordered"] != digests["overlap"]
