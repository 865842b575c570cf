"""Run the suite on one BLAS thread unless the caller sets a count.

Campaign results can depend on the BLAS thread count in their last bits,
and on a small machine several BLAS threads per job only contend. The
variables are read when numpy loads, so they are set here, before any test
module imports it.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
