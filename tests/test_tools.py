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


def test_quality_line_sums_the_sequences(tmp_path):
    header = "query_id,detected_id,overlap,votes,rot_err_deg,trans_err_m,candidates\n"
    sequences = {
        # a true detection, a false one (its pose errors are left out), a
        # query with no loop and no detection, and a missed loop
        "a": ("query_id,loop_ids\n3,0;1\n4,1\n5,\n6,2\n",
              header + "3,1,0.800000,40,0.01,0.002,1:40:0.800000\n"
              "4,0,0.700000,30,0.5,2.0,0:30:0.700000\n"
              "5,,0.000000,0,,,\n6,,0.000000,0,,,\n"),
        # a true detection, and a query that gt.csv does not name
        "b": ("query_id,loop_ids\n9,7\n",
              header + "9,7,0.900000,50,0.03,0.004,7:50:0.900000\n10,,0.000000,0,,,\n"),
    }
    for name, (gt, records) in sequences.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "gt.csv").write_text(gt)
        (tmp_path / name / "records.csv").write_text(records)
    script = ("import pathlib, sys, output_digests; print(output_digests.quality_line("
              "[output_digests.sequence_quality(pathlib.Path(sys.argv[1]) / name) "
              "for name in 'ab']))")
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT / "tools",
                         capture_output=True, text=True, check=True)
    assert run.stdout == ("quality sequences=2 tp=2 fp=1 fn=1 trans_err_m_p50=0.003 "
                          "trans_err_m_p90=0.0038 rot_err_deg_p50=0.02 rot_err_deg_p90=0.028\n")
