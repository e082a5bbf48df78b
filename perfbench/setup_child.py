"""Time one workload set-up in a fresh interpreter and print it as JSON.

Set-up is what a user pays before the first request: importing kdeband
and making the input (drawing the sample; for the CLI workload, writing
the sample file with ``kdeband sample``).  Interpreter start-up is not
counted.  ``run.py`` starts this script several times and reports the
median as ``setup_s``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from bootstrap import import_kdeband, keep_freed_memory, pin_threads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for input files")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    pin_threads()
    keep_freed_memory()
    kd = import_kdeband()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    WORKLOADS[args.workload](kd, args.seed, args.smoke, args.work).setup()
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - T_START}))


if __name__ == "__main__":
    main()
