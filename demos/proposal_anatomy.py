"""Look inside the detection stage on a single synthetic frame.

Renders one frame, extracts candidate masks with the threshold-ladder
generator, and prints what the downstream stages consume: stability scores,
conflict pairs, and the layout of the 92-entry proposal feature vector.

    python demos/proposal_anatomy.py
"""
import numpy as np

from lineage_ilp.features import PROPOSAL_DIM, proposal_features
from lineage_ilp.proposals import conflicts, multi_threshold_proposals
from lineage_ilp.sim import SimConfig, simulate


def main() -> None:
    sim = simulate(SimConfig(frames=1, width=96, height=96, initial_cells=7), 5)
    frame = sim.frames[0]
    n_cells = len(sim.gt.markers_at(0))
    print(f"one {frame.intensity.shape[1]}x{frame.intensity.shape[0]} frame, {n_cells} cells")

    props = multi_threshold_proposals(frame)
    print(f"{len(props)} proposals from the threshold ladder:")
    for p in props:
        cx, cy = p.mask.centroid
        print(
            f"  id {p.id:2d}  center ({cx:5.1f}, {cy:5.1f})  area {p.mask.area:3d}"
            f"  stability {p.raw_score:.3f}"
        )

    pairs = conflicts(props)
    print(f"\n{len(pairs)} conflicting pairs (overlapping or nested alternatives):")
    for i, j in pairs[:10].tolist():
        print(f"  {props[i].id} x {props[j].id}")
    if len(pairs) > 10:
        print(f"  ... and {len(pairs) - 10} more")
    print("the solver may pick at most one proposal from each pair")

    vec = proposal_features(props[0], frame)
    assert vec.shape == (PROPOSAL_DIM,)
    print(f"\nfeature vector of proposal 0 ({PROPOSAL_DIM} entries):")
    blocks = [
        ("intensity histogram", 0, 15),
        ("contrast ring r=1", 15, 23),
        ("contrast ring r=3", 23, 31),
        ("polar mask layout", 31, 91),
        ("area fraction", 91, 92),
    ]
    for name, lo, hi in blocks:
        body = np.array2string(vec[lo:hi][:6], precision=3, suppress_small=True)
        more = " ..." if hi - lo > 6 else ""
        print(f"  [{lo:2d}:{hi:2d}] {name:20s} {body}{more}")
    print("histogram blocks each sum to 1, so the vector is translation invariant")


if __name__ == "__main__":
    main()
