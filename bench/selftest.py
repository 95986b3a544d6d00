#!/usr/bin/env python3
"""Self-check of the benchmark: a smoke run of every workload, schema-checked.

``python bench/selftest.py`` runs ``run.py --smoke`` once per workload and
trace mode and validates what the driver would read: the last line is one
JSON object with exactly ``correct``, ``attempted``, ``failed``,
``metrics``; every metric listed in ``BENCHMARK.json`` is present with its
unit, no other is; every name matches ``[A-Za-z0-9_.-]+``; the run was
correct and exited 0.  It also validates ``BENCHMARK.json`` itself.  Not
collected by the repository's test suite (``bench/`` is outside
``testpaths``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import env

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"unexpected keys: {sorted(spec)}")
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    problems += [f"bad name {name!r}" for name in names
                 if not NAME.match(name)]
    problems += [f"name used twice: {name}" for name in set(names)
                 if names.count(name) > 1]
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 \
                or "\n" in entry["why"]:
            problems.append(f"bad workload entry {entry['name']}")
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} \
                or not 0 < entry["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {entry['name']}")
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {entry['name']}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(entry["unit"]) \
                or entry["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction on {entry['name']}")
    if not any(entry["name"] == "setup_s" and entry["unit"] == "s"
               and entry["better"] == "lower"
               for entry in spec["end_to_end"]):
        problems.append("setup_s (s, lower) is missing from end_to_end")
    if not (1 <= len(spec["workloads"]) <= 8
            and 1 <= len(spec["end_to_end"]) <= 16
            and 1 <= len(spec["per_layer"]) <= 128
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("a section is outside its size limits")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    command = [sys.executable, str(env.BENCH / "run.py"), "--workload",
               workload, "--seed", "11", "--smoke", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=env.ROOT, timeout=180)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit status {done.returncode}: "
                f"{done.stdout[-400:]}{done.stderr[-400:]}"]
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as error:
        return [f"{where}: the last line is not JSON: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"{where}: not a correct run: {result['failed']} "
                        f"failed of {result['attempted']}")
    wanted = {entry["name"]: entry["unit"] for entry in
              spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(wanted):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(wanted))}")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} \
                or not isinstance(entry["value"], (int, float)) \
                or entry["unit"] != wanted.get(name):
            problems.append(f"{where}: bad metric entry {name}: {entry}")
        elif not trace and entry["value"] == 0:
            problems.append(f"{where}: end-to-end metric {name} is 0")
    return problems


def main() -> int:
    spec = env.load_spec()
    problems = check_spec(spec)
    for entry in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, entry["name"], trace)
            print(f"{entry['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
