"""Run the walkgrammar CLI in this process, then record the process's own peak RSS.

Usage: python launch.py STATS_PATH CLI_ARG...

This does what the `walkgrammar` console script does (import the CLI,
call `main`, exit with its code) and afterwards writes `VmHWM` from
/proc/self/status, in KiB, to STATS_PATH.  `ru_maxrss` of a reaped
child is no substitute on Linux: it carries over the high-water mark of
the parent that forked it, so a large benchmark driver inflates every
command it starts.  `VmHWM` belongs to the address space created at exec.
"""

import sys


def vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    try:
        from walkgrammar.cli import main as cli_main

        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="ascii") as fh:
            fh.write(f"{vm_hwm_kib()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
