"""CATE estimation with partially missing treatment labels.

Library layout:
  nn              dense layers and layer functions with their gradients, Adam
  data            synthetic generator, missingness mechanism, CSV round trip
  mtrnet          the adversarially balanced representation network, its
                  hand-written forward and backward pass
  baselines       per-arm OLS, TARNet, CFR-MMD x {delete, impute, reweight}
  metrics         PEHE variants, policy risk, domain-split reports
  theory          exact identity/bound checks on finite discrete worlds
  harness / cli   seeded experiment orchestration
  trend           the calibrated missing-domain trend workload

Importing mtcate pins BLAS to one thread, through the thread variables a
caller has not set, before numpy loads: a multi-threaded OpenBLAS rounds
some products differently, so result bytes would depend on the core count.
A caller that imports numpy first must set them itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
