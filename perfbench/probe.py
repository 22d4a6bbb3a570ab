"""Times one workload set-up in a fresh interpreter and prints the seconds.

The clock starts before seget (and numpy) is imported, so the figure
covers `import seget` plus the set-up steps:

    probe.py <src> train <volume.mrc> <mask.mrc> <window> <stride> <base_filters> <seed>
        read_mrc, normalize, split_train_val, build
    probe.py <src> predict <checkpoint> <volume.mrc>
        load_checkpoint, read_mrc, normalize
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from setups import setup_predict, setup_train  # noqa: E402

kind, args = sys.argv[2], sys.argv[3:]
if kind == "train":
    volume, mask, window, stride, base_filters, seed = args
    setup_train(volume, mask, int(window), int(stride), int(base_filters), int(seed))
elif kind == "predict":
    setup_predict(*args)
else:
    sys.exit(f"unknown set-up kind {kind!r}")
print(time.perf_counter() - t0)
