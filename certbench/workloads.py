"""The three certification workloads: which acceptance criteria each runs,
and the wall-clock budget each budgeted criterion has to meet.

Criteria run in suite order inside one workload, because criterion 6
reuses the `model_curvature(n)` tensors that criterion 5 caches.
"""

# Wall-clock budgets of tests/test_acceptance.py, in seconds.
BUDGETS = {1: 5.0, 2: 30.0, 3: 5.0, 5: 60.0, 7: 60.0, 8: 30.0}

WORKLOADS = {
    # The exact rational layers (kernel, forms, identities, quaternionic
    # star commutation, model, levelset) do all the work, while riccati and
    # spectral stay idle, so an exact-kernel change shows here and only here.
    "exact": (1, 2, 5, 6),
    # The float layers (riccati RK4 trajectories, spectral eigen-solves,
    # comparison) do the work and the exact kernel makes no call, so a
    # numerics change shows here and must leave `exact` where it was.
    "numeric": (3, 4, 7),
    # Bulk integer sampling of 1e5 Hessians in quaternionic, with no kernel
    # call, so a sampler or vectorised-scan change shows here, and a slower
    # shared sampler shows on `exact` (criterion 2) instead.
    "kato": (8,),
}

DEFAULT_SEED = 0
