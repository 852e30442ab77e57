import os
import sys

# fracalc makes no BLAS call (the L1 kernel sums with np.einsum, without
# optimize), yet OpenBLAS starts a worker per core when numpy loads, and
# those workers spend CPU for nothing.  OpenBLAS reads this variable only
# when the library loads, so it is set here, before any command can bring in
# numpy.  A value the user set wins.  Library users import fracalc.cli or
# fracalc itself, never this module, so their processes are left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
