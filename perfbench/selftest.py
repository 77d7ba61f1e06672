#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It asserts that
  - every metric BENCHMARK.json names is emitted, finite and with its unit,
    untraced (end-to-end) and traced (per-layer);
  - outputs are correct and nothing fails;
  - the deterministic per-layer counters repeat exactly under one seed;
  - a corrupted oracle fingerprint drives error_rate above 0.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DETERMINISTIC = ("plan.", "key_codec.words", "spill.runs", "cost_model.picks.",
                 "build.structure_bytes_per_row")


def result(workload, seed, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--scale", "tiny"] + list(extra)
    code, out = run.run_exe(args)
    assert code == 0, "%s exited with %d" % (workload, code)
    return json.loads(out.rstrip("\n").split("\n")[-1])


def check_metrics(res, spec, what):
    got = res["metrics"]
    assert sorted(got) == sorted(m["name"] for m in spec), \
        "%s: metric names differ from BENCHMARK.json" % what
    for m in spec:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], "%s: %s has unit %s" % (what, m["name"], v["unit"])
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            "%s: %s is not a finite number" % (what, m["name"])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.check_env()
    run.build()
    for w in (x["name"] for x in bench["workloads"]):
        plain = result(w, 7, 0)
        check_metrics(plain, bench["end_to_end"], w + " untraced")
        assert plain["correct"] and plain["failed"] == 0, w + ": untraced run failed"
        first = result(w, 7, 1)
        again = result(w, 7, 1)
        for res in (first, again):
            check_metrics(res, bench["per_layer"], w + " traced")
            assert res["correct"] and res["failed"] == 0, w + ": traced run failed"
        for name, v in first["metrics"].items():
            if name.startswith(DETERMINISTIC):
                assert v["value"] == again["metrics"][name]["value"], \
                    "%s: %s differs between runs of one seed" % (w, name)
        bad = result(w, 7, 0, ["--corrupt-oracle"])
        assert bad["failed"] > 0 and not bad["correct"], \
            w + ": a corrupted oracle went unnoticed"
        bad = result(w, 7, 1, ["--corrupt-oracle"])
        assert bad["metrics"]["error_rate"]["value"] > 0, \
            w + ": a corrupted oracle left error_rate at 0"
        print("selftest %s: ok" % w)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
