"""Self-test of the benchmark harness at the shortest run length.

    python3 bench/selftest.py

1. Runs bench/run.py --seconds 1 on every workload, untraced and traced, and
   checks that the last line holds `correct`, whole counts `attempted` and
   `failed`, and exactly the metrics BENCHMARK.json names for that mode,
   each with its unit.
2. Runs one round of every workload in-process and checks that every
   correctness check passes on it, then that each check fails when it is fed
   a copy of the outputs made wrong for it.
3. Runs bench/run.py in a directory that holds only BENCHMARK.json and
   bench/, and checks that it fails without printing a result.

Prints one line per item and exits 0 when all hold.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 0


def _scale(path, factor):
    def corrupt(out, w):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = node[path[-1]] * factor
    return corrupt


def _roll_final(out, w):
    t, values = out["final"]
    out["final"] = (t, np.roll(values, 1, axis=0))


def _drop_row(out, w):
    del out["rows"][1]


def _push_momentum(out, w):
    out["rows"][-1]["momentum"][0] += 1e-10


def _late_final(out, w):
    t, values = out["final"]
    out["final"] = (t + 0.25, values)


def _sharp_moved(out, w):
    out["records"][-1]["sharp_diff_vs_t0"] = 1e-6


def _param(case, index):
    def corrupt(out, w):
        par = list(out["fits"][case]["par"])
        par[index] *= 1.0 + 1e-5
        out["fits"][case]["par"] = tuple(par)
    return corrupt


def _residual(case, key, factor):
    def corrupt(out, w):
        out["fits"][case]["residual"] = factor * w.cases[case][key]
    return corrupt


# One wrong output per check: each must make its check fail.
CORRUPTIONS = {
    "near_vacuum": {
        "ndjson_matches_printed": _drop_row,
        "mass": _scale(("rows", -1, "mass"), 1.0 + 1e-9),
        "momentum": _push_momentum,
        "density_vs_free": _roll_final,
        "final_checkpoint": _late_final,
    },
    "free_stream": {
        "density_exact": _roll_final,
        "sharp_frozen": _sharp_moved,
        "mass": _scale(("records", -1, "mass"), 1.0 + 1e-9),
    },
    "maxwellian_fit": {
        "c9_parameters": _param("c9", 1),
        "c9_residual": _residual("c9", "l2", 1e-7),
        "grid24_parameters": _param("grid24", 4),
        "grid24_residual": _residual("grid24", "l2", 1e-7),
        "two_bump_residual": _residual("two_bump", "weighted_l2", 0.1),
    },
}


def report(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def check_printed_result(spec):
    good = True
    for name in CORRUPTIONS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", name, "--seed", str(SEED),
                                   "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=300)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            counts = all(isinstance(last[k], int) and not isinstance(last[k], bool)
                         for k in ("attempted", "failed"))
            good &= report(proc.returncode == 0 and got == want and counts
                           and last["attempted"] >= 1 and last["correct"] is True,
                           f"{name} --trace {trace}: {len(got)} metrics named with units, "
                           f"attempted {last['attempted']}, failed {last['failed']}, "
                           f"correct {last['correct']}")
    return good


def check_checks():
    run.import_program()
    import workloads
    good = True
    workdir = os.path.join(run.OUT, "selftest")
    os.makedirs(workdir, exist_ok=True)
    for name, corruptions in CORRUPTIONS.items():
        w = workloads.WORKLOADS[name](SEED, workdir)
        w.write_inputs()
        w.setup()
        out = w.collect(w.round())
        checks = w.check(out)
        names = [c[0] for c in checks]
        good &= report(out["failed"] == 0 and all(ok for _, ok, _ in checks)
                       and set(names) == set(corruptions),
                       f"{name}: no operation failed, checks {names} pass")
        for check, corrupt in corruptions.items():
            wrong = copy.deepcopy(out)
            corrupt(wrong, w)
            result = {c[0]: c for c in w.check(wrong)}
            good &= report(check in result and not result[check][1],
                           f"{name}: {check} fails on a wrong output "
                           f"({result[check][2] if check in result else 'not run'})")
    return good


def check_without_program():
    bare = os.path.join(run.OUT, "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    return report(proc.returncode != 0 and not proc.stdout.strip(),
                  f"without src/: exit code {proc.returncode}, "
                  f"stderr {proc.stderr.strip()!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    good = check_without_program()
    good &= check_checks()
    good &= check_printed_result(spec)
    print("selftest passed" if good else "selftest FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
