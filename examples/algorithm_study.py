"""Compare the three generated GEMM algorithms (BA, PL, DB) on one device.

The generator can emit three loop structures (paper Section III-E):
the basic algorithm, software pipelining, and local-memory double
buffering.  Which one wins depends on the device's balance of occupancy,
registers, local memory and barrier cost.  This example tunes each
algorithm separately and explains the outcome with the model's cost
breakdown — including the Bulldozer's hard PL-DGEMM failure.

Run:  python examples/algorithm_study.py [device] [precision]
"""

import sys

from repro import TuningConfig, get_device_spec
from repro.codegen import Algorithm, SpaceRestrictions
from repro.errors import TuningError
from repro.perfmodel.model import estimate_kernel_time
from repro.tuner import tune


def main() -> None:
    device = sys.argv[1] if len(sys.argv) > 1 else "cayman"
    precision = sys.argv[2] if len(sys.argv) > 2 else "s"
    spec = get_device_spec(device)
    cfg = TuningConfig(budget=1500, verify_finalists=1, seed=3)

    print(f"Best kernel per algorithm on {spec.product_name} "
          f"({'DGEMM' if precision == 'd' else 'SGEMM'}):\n")
    winners = {}
    for algorithm in Algorithm:
        try:
            res = tune(spec, precision, cfg,
                       SpaceRestrictions(algorithms=(algorithm,)))
        except TuningError as exc:
            print(f"{algorithm.value}: no viable kernel — {exc}")
            continue
        winners[algorithm] = res.best
        print(f"{algorithm.value}: {res.best_gflops:8.1f} GFlop/s   "
              f"{res.best.params.summary()}")
        print(f"     {algorithm.description}")

    if not winners:
        return
    print("\nModel cost breakdown of each winner (at its best size):")
    for algorithm, best in winners.items():
        bd = estimate_kernel_time(spec, best.params, best.size, best.size, best.size)
        occ = bd.occupancy
        print(f"  {algorithm.value}: bound={bd.bound:5s} "
              f"alu={bd.t_alu * 1e3:7.1f}ms gmem={bd.t_gmem * 1e3:7.1f}ms "
              f"lmem={bd.t_lmem * 1e3:6.1f}ms barrier={bd.t_barrier * 1e3:6.1f}ms "
              f"({occ.workgroups_per_cu} wg/CU, occupancy {occ.occupancy:.2f})")

    top = max(winners.values(), key=lambda mk: mk.gflops)
    print(f"\nWinner: {top.params.algorithm.value} — as the paper observes, the "
          "best algorithm is device- and precision-specific.")


if __name__ == "__main__":
    main()
