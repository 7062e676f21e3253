"""Time what a fresh process pays before it can answer: importing the
library and, for each artifact directory given, loading its online bundle
and answering one query.  Prints the seconds as the last line.

    python3 rbbench/setup_probe.py [ARTIFACT_DIR ...]

The caller sets the BLAS thread caps in the environment.
"""

import os
import sys
import time


def main(dirs):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import numpy as np
    from rb_operon.artifacts import ArtifactDir
    from rb_operon.pipeline import load_online_bundle, online_query

    for path in dirs:
        adir = ArtifactDir(path)
        bundle = load_online_bundle(adir)
        k = np.asarray(adir.read_manifest()["k_star"], dtype=float)
        if bundle.example == 2:
            online_query(bundle, k, np.zeros(bundle.blocks.f_s.shape[0]),
                         np.zeros(bundle.blocks.g_p.shape[1]))
        else:
            online_query(bundle, k)
    print(f"{time.perf_counter() - t0:.6f}")


if __name__ == "__main__":
    main(sys.argv[1:])
