"""Determinism self-test of the benchmark.

    python3 perfbench/run.py --selftest

For every workload, at the input size the benchmark measures, with
--seconds 0 (one round untraced; one untraced and one traced round
traced):

- two untraced runs with one seed give identical sim_* metrics,
  host_words_per_op, host_heap_peak_mib, frames_leaked and ok_op_ratio;
- two traced runs with one seed give identical per-layer counters (every
  metric except the host-clock ones and the trace overhead). Inside each
  traced run the benchmark itself checks that the untraced and traced
  rounds agree on every deterministic value, and reports correct=false
  if not;
- every run is correct (oracle passed, nothing failed);
- another seed changes the generated inputs.

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import subprocess

WORKLOADS = ["churn_malloc", "churn_fom", "kv_zipf"]
SEED, OTHER_SEED = 7, 8
DETERMINISTIC_E2E = ["sim_cycles_per_op", "sim_op_cycles_p99", "host_words_per_op",
                     "host_heap_peak_mib", "frames_leaked", "ok_op_ratio"]


def run(exe, workload, seed, trace):
    out = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--seconds", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True).stdout
    lines = out.strip().splitlines()
    digest = lines[0].split("input digest ")[1].strip()
    return digest, json.loads(lines[-1])


def host_timed(name):
    return "host_" in name or name == "sim.trace_overhead"


def main(exe):
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        runs = {(seed, trace): run(exe, w, seed, trace)
                for seed in (SEED, OTHER_SEED) for trace in (0, 1)}
        runs["again", 0] = run(exe, w, SEED, 0)
        runs["again", 1] = run(exe, w, SEED, 1)
        for key, (_, res) in runs.items():
            check(res["correct"] and res["failed"] == 0,
                  f"{w} seed={key[0]} trace={key[1]}: correct, no failed op")
        m1, m2 = runs[SEED, 0][1]["metrics"], runs["again", 0][1]["metrics"]
        for name in DETERMINISTIC_E2E:
            check(m1[name]["value"] == m2[name]["value"],
                  f"{w}: {name} repeats ({m1[name]['value']} vs {m2[name]['value']})")
        l1, l2 = runs[SEED, 1][1]["metrics"], runs["again", 1][1]["metrics"]
        moved = [n for n in l1 if not host_timed(n) and l1[n]["value"] != l2[n]["value"]]
        check(not moved, f"{w}: every per-layer counter repeats {moved or ''}")
        check(runs[SEED, 0][0] != runs[OTHER_SEED, 0][0],
              f"{w}: seed {OTHER_SEED} changes the inputs")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
