"""One benchmark pass in a fresh interpreter.

Usage: worker.py ROOT WORKLOAD SEED PASS_ID TRACE
       worker.py ROOT --probe

Prints ``ready`` as soon as ``import hexval`` returns (the harness times
set-up up to that line), then one JSON line with the pass record. With
``--probe`` it stops after the ready line.
"""
import sys


def main(argv) -> int:
    root = argv[0]
    sys.path[:0] = [root + "/src", __file__.rsplit("/", 1)[0]]
    import hexval
    if not hexval.__file__.startswith(root + "/src/"):
        print(f"hexval imported from {hexval.__file__}, not from {root}/src",
              file=sys.stderr)
        return 3
    print("ready", flush=True)
    if argv[1] == "--probe":
        return 0

    import json
    import platform
    from pathlib import Path

    import numpy

    import workloads
    workload, seed, pass_id, trace = argv[1], int(argv[2]), int(argv[3]), argv[4]
    record = workloads.run_pass(workload, seed, pass_id, trace == "1",
                                Path(root))
    record["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__}
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
