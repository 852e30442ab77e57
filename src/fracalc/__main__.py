import gc
import os
import sys

# fracalc makes no BLAS call (the L1 kernel sums with np.einsum, without
# optimize), yet OpenBLAS starts a worker per core when numpy loads, and
# those workers spend CPU for nothing.  OpenBLAS reads this variable only
# when the library loads, so it is set here, before any command can bring in
# numpy.  A value the user set wins.  Library users import fracalc.cli or
# fracalc itself, never this module, so their processes keep their BLAS
# threads and, since only main below freezes, their garbage collector.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    """Run one fracalc command in a process that exits right after.

    At exit the interpreter runs full collections over every object numpy
    and fracalc made, 10-30 ms a command on a 2-vCPU host.  Freezing them
    first leaves those collections nothing to traverse; atexit handlers, the
    flush of stdout and module teardown still run.
    """
    try:
        return cli.main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
