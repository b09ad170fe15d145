#!/usr/bin/env python3
"""Self-test of the gate benchmark's correctness checks.

    python3 perfbench/selftest.py

For every workload and both run kinds (--trace 0 and 1), a run with
--plant_fault, which corrupts one candidate set on purpose, must report
correct=false with at least one failed operation and exit non-zero, and
the same run without it must report correct=true with none failed. The
planted set is caught by the sampled from-scratch/isomorphism checks of
the closed-loop replay (--trace 0), and by both the traced-versus-untraced
comparison and the epoch-snapshot comparison of the scheduler passes
(--trace 1).
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("dense_maintain", "reality_manyq", "skewed_ingest")


def run_once(binary, workload, trace, planted):
    command = [binary, "--workload=" + workload, "--seed=3", "--seconds=1",
               "--trace=" + str(trace)]
    if planted:
        command.append("--plant_fault")
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def main():
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    binary = run.build(build_dir)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            for planted in (False, True):
                code, result = run_once(binary, workload, trace, planted)
                if planted:
                    # Traced runs: both the traced-versus-untraced and the
                    # epoch-snapshot comparison must catch it.
                    ok = code != 0 and not result["correct"] and \
                        result["failed"] >= 1 + trace
                else:
                    ok = code == 0 and result["correct"] and \
                        result["failed"] == 0
                failures += not ok
                print("%-4s %-15s trace=%d planted=%-5s exit=%d failed=%d/%d" %
                      ("ok" if ok else "FAIL", workload, trace, planted, code,
                       result["failed"], result["attempted"]))
    print("selftest: %s" % ("passed" if failures == 0 else
                            "%d case(s) failed" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
