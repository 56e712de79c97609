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
"""

__version__ = "0.1.0"
