#!/usr/bin/env python3
"""Record perfbench/reference.json: what every instance produces at this commit.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

An instance whose outcome is the same under config seeds 0 and 1 is
recorded once, under "any"; otherwise once per config seed 0 ..
CONFIG_SEEDS - 1. Workloads not named keep their recorded entries.
Failing verdicts are recorded as they are: the reference says what the
code does, not what it should do.
"""

import json
import shutil
import sys

import run
import workloads


def record(workload: str) -> dict:
    entries: dict[str, dict] = {}
    work_dir = run.OUT / f"reference-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        by_seed = {}
        for seed in range(workloads.CONFIG_SEEDS):
            seed_dir = work_dir / str(seed)
            seed_dir.mkdir()
            runner = run.Runner(workload, seed, seed_dir)
            for k, inst in enumerate(runner.instances):
                if seed > 1 and inst.name not in by_seed:
                    continue
                _, got, error = runner.run_instance(k)
                if error is not None:
                    raise RuntimeError(f"{workload}/{inst.name} raised:\n{error}")
                key = f"{workload}/{inst.name}"
                if seed == 0:
                    entries[key] = {"any": got}
                elif seed == 1 and got != entries[key]["any"]:
                    by_seed[inst.name] = entries[key] = {"0": entries[key]["any"]}
                if inst.name in by_seed:
                    by_seed[inst.name][str(seed)] = got
                exit_code = got.get("exit_code")
                print(f"{key} seed {seed}: {exit_code} {got['terminated_by']}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return entries


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    run.load_dsmflow()
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    run.OUT.mkdir(exist_ok=True)
    for workload in names:
        reference = {k: v for k, v in reference.items() if not k.startswith(f"{workload}/")}
        reference.update(record(workload))
    run.REFERENCE.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
