"""Smoke check of the benchmark itself, at reduced sizes.

    python3 perfbench/smoke.py

For each workload it makes one short run with ``--trace 0`` and one with
``--trace 1`` and asserts that every metric ``BENCHMARK.json`` declares is
printed by name with its unit, both as a text line and in the final JSON
line, and that no operation failed.  Then it corrupts one output of each
workload, and hands the gate one unit that raised, and asserts that both are
counted as failed operations.  It is not part of the tier-1 tests.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def check_printed(name, trace, declared):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "0.1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared, result["metrics"]
    text = "\n".join(lines[:-1])
    extras = {"fail_ratio": "ratio"}
    if name == "flow_n4":
        extras["oracle_err"] = "frobenius"
    for metric, unit in {**declared, **(extras if trace == 0 else {})}.items():
        pattern = rf"^{re.escape(name)} {re.escape(metric)} = \S+ {re.escape(unit)}\b"
        assert re.search(pattern, text, re.M), f"{name}: {metric} [{unit}] not printed"


def corrupt(wl, output):
    """Spoil one operation of a unit's output in place; returns the output."""
    if isinstance(wl, workloads.Verify):
        with open(output[1]) as fh:
            text = fh.read()
        with open(output[1], "w") as fh:
            fh.write(text.replace('"status": "pass"', '"status": "fail"', 1))
    elif isinstance(wl, workloads.Flow):
        with open(output[1]) as fh:
            lines = fh.read().splitlines()
        row = lines[len(lines) // 2].split(",")
        row[5] = repr(float(row[5]) + 1e-3)
        lines[len(lines) // 2] = ",".join(row)
        with open(output[1], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif isinstance(wl, workloads.Thimble):
        with open(output[1]) as fh:
            payload = json.load(fh)
        min(payload["samples"], key=lambda s: s["f1"])["f1"] += 1e-3
        with open(output[1], "w") as fh:
            json.dump(payload, fh)
    else:
        metric, grads, grad, ham = output[0]
        output[0] = (metric + 1e-6, grads, grad, ham)
    return output


def check_gate(name):
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="smoke-") as workdir:
        wl = workloads.WORKLOADS[name](SEED, workdir, small=True)
        output = wl.unit(0)
        assert run.gate(wl, [output]) == (wl.ops_per_unit, []), f"{name}: clean unit failed"
        attempted, failures = run.gate(wl, [corrupt(wl, output)])
        assert attempted == wl.ops_per_unit and len(failures) == 1, (name, failures)
        attempted, failures = run.gate(wl, [RuntimeError("unit raised")])
        assert attempted == len(failures) == wl.ops_per_unit, (name, failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_printed(name, trace, {m["name"]: m["unit"] for m in spec[key]})
        check_gate(name)
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
