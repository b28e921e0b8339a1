"""Experiment registry: regenerate every table and figure of the paper.

Each experiment function returns an
:class:`~repro.bench.harness.ExperimentResult` whose rendered text holds
the same rows/series the paper reports.  ``quick=True`` shrinks the
search budgets of tuner-driven experiments so the whole registry runs in
seconds (used by tests); the benchmark drivers run the full budgets.

The per-experiment index lives in DESIGN.md; paper-vs-measured numbers
are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

from repro.baselines.vendors import get_library
from repro.bench.figures import Series
from repro.bench.harness import (
    ExperimentResult,
    implementation_series,
    kernel_series,
    sweep_sizes,
)
from repro.bench.tables import Table
from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.space import SpaceRestrictions
from repro.devices.catalog import EVALUATED_DEVICES, get_device_spec
from repro.errors import TuningError
from repro.gemm.routine import predict_implementation
from repro.perfmodel.calibration import sdk2012_variant
from repro.perfmodel.model import estimate_kernel_time
from repro.tuner.pretuned import pretuned_params
from repro.tuner.search import TuningConfig, tune

__all__ = ["EXPERIMENTS", "run_experiment"]

_GEMM_TYPES = ("NN", "NT", "TN", "TT")


def _tuning_config(quick: bool, **overrides) -> TuningConfig:
    defaults = dict(
        budget=400 if quick else 4000,
        verify_finalists=0 if quick else 1,
        top_k=10 if quick else 50,
    )
    defaults.update(overrides)
    return TuningConfig(**defaults)


def _max_kernel_gflops(spec, params, max_size: int = 6144) -> float:
    """Best kernel rate over the size sweep (the Table II measurement)."""
    return max(
        estimate_kernel_time(spec, params, n, n, n).gflops
        for n in sweep_sizes(params, max_size)
    )


def _max_impl_gflops(spec, params, trans: str, max_size: int = 6144) -> float:
    """Best implementation-level rate over the sweep, per GEMM type.

    The four types run the identical kernel after the copy stage, so
    their rates differ only by run-to-run variation; a small
    deterministic per-type jitter stands in for it.
    """
    best = 0.0
    for n in sweep_sizes(params, max_size):
        t = predict_implementation(spec, params, n, n, n)
        best = max(best, 2.0 * n**3 / t.total_s / 1e9)
    digest = hashlib.blake2b(
        f"{spec.codename}|{params.precision}|{trans}".encode(), digest_size=4
    ).digest()
    jitter = 1.0 + 0.008 * (digest[0] / 255.0 - 0.5)
    return best * jitter


# ----------------------------------------------------------------------
def table1(quick: bool = False) -> ExperimentResult:
    """Table I: processor specifications."""
    result = ExperimentResult("table1", "Processor specification (paper Table I)")
    specs = [get_device_spec(d) for d in EVALUATED_DEVICES]
    table = Table(["Specification"] + [s.codename for s in specs],
                  title="Processor specification")
    rows = [
        ("Product name", lambda s: s.product_name),
        ("Core clock speed [GHz]", lambda s: f"{s.clock_ghz:g}"),
        ("Number of compute units", lambda s: str(s.compute_units)),
        ("Max DP operations / clock", lambda s: str(s.dp_ops_per_clock)),
        ("Max SP operations / clock", lambda s: str(s.sp_ops_per_clock)),
        ("Peak DP performance [GFlop/s]", lambda s: f"{s.peak_dp_gflops:g}"),
        ("Peak SP performance [GFlop/s]", lambda s: f"{s.peak_sp_gflops:g}"),
        ("Global memory size [GB]", lambda s: f"{s.global_mem_gb:g}"),
        ("Peak memory bandwidth [GB/s]", lambda s: f"{s.bandwidth_gbs:g}"),
        ("Local memory size [kB]", lambda s: f"{s.local_mem_kb:g}"),
        ("Local memory type", lambda s: s.local_mem_type.value),
        ("OpenCL SDK", lambda s: s.opencl_sdk),
    ]
    for label, getter in rows:
        table.add_row(label, *[getter(s) for s in specs])
    result.add_table(table)
    return result


def fig7(quick: bool = False) -> ExperimentResult:
    """Fig. 7: fastest kernel GFlop/s vs problem size, six processors."""
    result = ExperimentResult(
        "fig7", "Performance of the fastest A^T B kernels vs size (paper Fig. 7)"
    )
    points = 5 if quick else 10
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        series: List[Series] = []
        for device in EVALUATED_DEVICES:
            spec = get_device_spec(device)
            params = pretuned_params(device, precision)
            series.append(
                kernel_series(spec, params, device, max_size=6144, points=points)
            )
        result.add_figure(series, title=f"{label} kernel performance [GFlop/s]")
    return result


def table2(quick: bool = False) -> ExperimentResult:
    """Table II: parameters of the fastest kernels and their maxima."""
    result = ExperimentResult(
        "table2", "Fastest C <- alpha A^T B + beta C kernels (paper Table II)"
    )
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        table = Table(["Parameter"] + EVALUATED_DEVICES, title=f"{label} best kernels")
        cells = {d: pretuned_params(d, precision).table2_cells() for d in EVALUATED_DEVICES}
        for row_label in next(iter(cells.values())):
            table.add_row(row_label, *[cells[d][row_label] for d in EVALUATED_DEVICES])
        maxima, efficiencies = [], []
        for d in EVALUATED_DEVICES:
            spec = get_device_spec(d)
            params = pretuned_params(d, precision)
            g = _max_kernel_gflops(spec, params)
            maxima.append(f"{g:.0f}")
            efficiencies.append(f"{g / spec.peak_gflops(precision) * 100:.0f}%")
        table.add_row("Max perf. [GFlop/s]", *maxima)
        table.add_row("Efficiency", *efficiencies)
        result.add_table(table)
    return result


def fig8(quick: bool = False) -> ExperimentResult:
    """Fig. 8: relative performance of the BA / PL / DB algorithms."""
    result = ExperimentResult(
        "fig8", "Relative performance of the three GEMM algorithms (paper Fig. 8)"
    )
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        table = Table(
            ["Device", "BA", "PL", "DB"],
            title=f"{label}: best kernel per algorithm, relative to device max",
        )
        for device in EVALUATED_DEVICES:
            spec = get_device_spec(device)
            best_per_alg: Dict[str, float] = {}
            for alg in (Algorithm.BA, Algorithm.PL, Algorithm.DB):
                cfg = _tuning_config(quick)
                restrictions = SpaceRestrictions(algorithms=(alg,))
                try:
                    res = tune(spec, precision, cfg, restrictions)
                    best_per_alg[alg.value] = res.best_gflops
                except TuningError:
                    best_per_alg[alg.value] = 0.0
            top = max(best_per_alg.values())
            table.add_row(
                device,
                *[
                    f"{best_per_alg[a] / top:.2f}" if top else "-"
                    for a in ("BA", "PL", "DB")
                ],
            )
        result.add_table(table)
    result.note(
        "DGEMM kernels with the PL algorithm always fail to execute on the "
        "Bulldozer (its PL column is 0.00), as in the paper."
    )
    return result


def table3(quick: bool = False) -> ExperimentResult:
    """Table III: full GEMM implementations vs vendor libraries."""
    result = ExperimentResult(
        "table3",
        "Maximum GFlop/s of GEMM implementations vs vendor libraries, "
        "column-major data (paper Table III)",
    )
    vendor_of = {
        "tahiti": "clblas", "cayman": "clblas", "kepler": "cublas",
        "fermi": "cublas", "sandybridge": "mkl", "bulldozer": "acml",
    }
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        table = Table(
            ["Device", "Impl."] + list(_GEMM_TYPES), title=f"{label} implementations"
        )
        for device in EVALUATED_DEVICES:
            spec = get_device_spec(device)
            params = pretuned_params(device, precision)
            ours = [
                f"{_max_impl_gflops(spec, params, t):.0f}" for t in _GEMM_TYPES
            ]
            table.add_row(device, "Ours", *ours)
            lib = get_library(vendor_of[device], device)
            table.add_row(
                device,
                lib.label,
                *[f"{lib.max_gflops(precision, t):.0f}" for t in _GEMM_TYPES],
            )
        result.add_table(table)
    return result


def _impl_sizes(max_size: int, quick: bool) -> List[int]:
    step = 1024 if quick else 512
    return list(range(step, max_size + 1, step))


def fig9(quick: bool = False) -> ExperimentResult:
    """Fig. 9: Tahiti GEMM implementations vs clBLAS vs previous study."""
    result = ExperimentResult(
        "fig9", "DGEMM/SGEMM implementations on the Tahiti GPU (paper Fig. 9)"
    )
    spec = get_device_spec("tahiti")
    sizes = _impl_sizes(6144, quick)
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        params = pretuned_params("tahiti", precision)
        ours = implementation_series(spec, params, "This study", sizes=sizes)
        clblas = Series("clBLAS 1.8.291")
        previous = Series("Previous study")
        for n in sizes:
            clblas.add(n, get_library("clblas", "tahiti").gflops(precision, n))
            previous.add(n, get_library("previous", "tahiti").gflops(precision, n))
        result.add_figure([ours, previous, clblas], title=f"{label} on Tahiti")
    result.note(
        "The current implementation is not fast for small sizes because the "
        "ratio of copying time to total time is relatively big (Section IV-B)."
    )
    return result


def fig10(quick: bool = False) -> ExperimentResult:
    """Fig. 10: Fermi and Kepler implementations vs CUBLAS and MAGMA."""
    result = ExperimentResult(
        "fig10",
        "DGEMM/SGEMM implementations on the Fermi and Kepler GPUs (paper Fig. 10)",
    )
    sizes = _impl_sizes(6144, quick)
    for precision, label in (("d", "DGEMM"), ("s", "SGEMM")):
        series: List[Series] = []
        for device, cublas_label in (("fermi", "CUBLAS 4.1.28"), ("kepler", "CUBLAS 5.0 RC")):
            spec = get_device_spec(device)
            params = pretuned_params(device, precision)
            series.append(
                implementation_series(
                    spec, params, f"This study ({device})", sizes=sizes
                )
            )
            lib = get_library("cublas", device)
            vendor = Series(f"{cublas_label} ({device})")
            for n in sizes:
                vendor.add(n, lib.gflops(precision, n))
            series.append(vendor)
        magma = Series("MAGMA 1.2.1 (fermi)")
        for n in sizes:
            magma.add(n, get_library("magma", "fermi").gflops(precision, n))
        series.append(magma)
        result.add_figure(series, title=f"{label} on Fermi/Kepler")
    return result


def fig11(quick: bool = False) -> ExperimentResult:
    """Fig. 11: Sandy Bridge DGEMM vs MKL and ATLAS, two Intel SDKs."""
    result = ExperimentResult(
        "fig11", "DGEMM implementations on the Sandy Bridge CPU (paper Fig. 11)"
    )
    spec_2013 = get_device_spec("sandybridge")
    spec_2012 = sdk2012_variant(spec_2013)
    params = pretuned_params("sandybridge", "d")
    sizes = _impl_sizes(5120, quick)
    ours_2013 = implementation_series(
        spec_2013, params, "This study (Intel SDK 2013 beta)", sizes=sizes
    )
    ours_2012 = implementation_series(
        spec_2012, params, "This study (Intel SDK 2012)", sizes=sizes
    )
    mkl = Series("Intel MKL 2011.10.319")
    atlas = Series("ATLAS 3.10.0")
    for n in sizes:
        mkl.add(n, get_library("mkl", "sandybridge").gflops("d", n))
        atlas.add(n, get_library("atlas", "sandybridge").gflops("d", n))
    result.add_figure([mkl, atlas, ours_2013, ours_2012], title="DGEMM on Sandy Bridge")
    result.note(
        "Using the newer SDK improves the performance by around 20% "
        "(Section IV-B); ATLAS's C kernels stay ahead of OpenCL."
    )
    return result


def cypress(quick: bool = False) -> ExperimentResult:
    """Section IV-C: the Cypress GPU comparison."""
    result = ExperimentResult(
        "cypress",
        "DGEMM on the Cypress GPU vs Nakasato's IL kernel and Du et al. "
        "(paper Section IV-C)",
    )
    spec = get_device_spec("cypress")
    params = pretuned_params("cypress", "d")
    ours = _max_kernel_gflops(spec, params)
    table = Table(["Implementation", "Max DGEMM [GFlop/s]", "Efficiency"],
                  title="Cypress (Radeon HD 5870), peak DP 544 GFlop/s")
    table.add_row("Ours (OpenCL, auto-tuned)", f"{ours:.0f}",
                  f"{ours / spec.peak_dp_gflops * 100:.0f}%")
    nakasato = get_library("nakasato_il", "cypress").max_gflops("d")
    du = get_library("du_opencl", "cypress").max_gflops("d")
    table.add_row("Nakasato IL kernel [18]", f"{nakasato:.0f}",
                  f"{nakasato / spec.peak_dp_gflops * 100:.0f}%")
    table.add_row("Du et al. OpenCL [12]", f"{du:.0f}",
                  f"{du / spec.peak_dp_gflops * 100:.0f}%")
    result.add_table(table)
    return result


def kepler_kurzak(quick: bool = False) -> ExperimentResult:
    """Section IV-C: our Kepler SGEMM vs Kurzak et al.'s CUDA autotuner.

    Kurzak et al. (LAWN 267) reach ~1150 GFlop/s SGEMM at M=N=K=4096 on
    a GeForce GTX 680; the paper's OpenCL implementation reaches 1340 on
    its (different) Kepler board.
    """
    result = ExperimentResult(
        "kepler_kurzak",
        "SGEMM at N=4096 on Kepler-class GPUs vs Kurzak et al. [17] "
        "(paper Section IV-C)",
    )
    spec = get_device_spec("kepler")
    params = pretuned_params("kepler", "s")
    n = max(params.lcm, (4096 // params.lcm) * params.lcm)
    t = predict_implementation(spec, params, n, n, n)
    ours = 2.0 * n**3 / t.total_s / 1e9
    kurzak = get_library("kurzak_cuda", "gtx680").gflops("s", 4096)
    table = Table(["Implementation", "GPU", "SGEMM @4096 [GFlop/s]"],
                  title="Kepler-generation SGEMM comparison")
    table.add_row("Ours (OpenCL, auto-tuned)", spec.product_name, f"{ours:.0f}")
    table.add_row("Kurzak et al. CUDA [17]", "GeForce GTX 680", f"{kurzak:.0f}")
    result.add_table(table)
    result.note(
        "Different boards (GTX 670 OC vs GTX 680), as the paper itself "
        "cautions; the shape claim is that the OpenCL autotuner's SGEMM "
        "exceeds the CUDA autotuner's ~1150 GFlop/s."
    )
    return result


def ablation_generator(quick: bool = False) -> ExperimentResult:
    """The improved generator vs the previous one (Sections I, III-F)."""
    result = ExperimentResult(
        "ablation_generator",
        "New generator vs previous generator [13] on Tahiti "
        "(paper: DGEMM 848 -> 863, SGEMM 2646 -> 3047)",
    )
    spec = get_device_spec("tahiti")
    table = Table(["Generator", "DGEMM [GFlop/s]", "SGEMM [GFlop/s]"],
                  title="Best kernel by search space")
    old_restrictions = SpaceRestrictions.previous_generator()
    row_old, row_new = ["Previous [13]"], ["This study"]
    for precision in ("d", "s"):
        cfg = _tuning_config(quick)
        res_old = tune(spec, precision, cfg, old_restrictions)
        row_old.append(f"{res_old.best_gflops:.0f}")
        params = pretuned_params("tahiti", precision)
        row_new.append(f"{_max_kernel_gflops(spec, params):.0f}")
    table.add_row(*row_old)
    table.add_row(*row_new)
    result.add_table(table)
    result.note(
        "Previous-generator space: power-of-two blocking only, no "
        "MdimA/NdimB staging reshape, no dual local-memory staging, BA only."
    )
    return result


def ablation_local(quick: bool = False) -> ExperimentResult:
    """Local-memory usage effects (Section IV-A claims)."""
    result = ExperimentResult(
        "ablation_local",
        "Effect of local-memory staging (paper Section IV-A)",
    )
    cases = [
        ("tahiti", "s"), ("tahiti", "d"), ("cayman", "s"),
        ("kepler", "s"), ("fermi", "s"), ("sandybridge", "d"),
    ]
    table = Table(
        ["Device", "Prec", "No local [GFlop/s]", "Best overall [GFlop/s]", "Ratio"],
        title="Best kernel with local memory forbidden vs unrestricted",
    )
    for device, precision in cases:
        spec = get_device_spec(device)
        cfg = _tuning_config(quick)
        res_nolocal = tune(
            spec, precision, cfg,
            SpaceRestrictions(forced_shared=(False, False)),
        )
        best = _max_kernel_gflops(spec, pretuned_params(device, precision))
        nolocal = res_nolocal.best_gflops
        table.add_row(
            device, precision, f"{nolocal:.0f}", f"{best:.0f}",
            f"{nolocal / best:.2f}",
        )
    result.add_table(table)
    result.note(
        "Paper: Kepler SGEMM falls 1440 -> 1150 without local memory; "
        "Tahiti SGEMM gains from staging both matrices; the Cayman runs "
        "*slower* with local memory (barrier cost); CPUs show no "
        "prominent difference."
    )
    return result


def ablation_layout(quick: bool = False) -> ExperimentResult:
    """Block-major vs row-major layouts (Section IV-A claims)."""
    result = ExperimentResult(
        "ablation_layout",
        "Block-major vs row-major data layouts on Tahiti "
        "(paper: best row-major DGEMM 837 GFlop/s, collapses at "
        "multiples of 2048)",
    )
    spec = get_device_spec("tahiti")
    cfg = _tuning_config(quick)
    # Power-of-two blocking keeps the row-major kernel's LCM a divisor of
    # 1024, so the sweep below hits the exact bank-conflict sizes.
    res_row = tune(
        spec, "d", cfg,
        SpaceRestrictions(
            forced_layouts=(Layout.ROW, Layout.ROW), power_of_two_only=True
        ),
    )
    params_block = pretuned_params("tahiti", "d")
    best_block = _max_kernel_gflops(spec, params_block)
    table = Table(["Layouts", "Max DGEMM [GFlop/s]"], title="Layout ablation")
    table.add_row("Block-major (CBL/RBL)", f"{best_block:.0f}")
    table.add_row("Row-major", f"{res_row.best_gflops:.0f}")
    result.add_table(table)

    # Size sweep of the row-major kernel: bank conflicts at multiples of 2048.
    row_series = Series("Row-major kernel")
    block_series = Series("Block-major kernel")
    lcm_row = res_row.best.params.lcm
    for n in range(1024, 6145, 1024):
        n_row = max(lcm_row, (n // lcm_row) * lcm_row)
        bd = estimate_kernel_time(spec, res_row.best.params, n_row, n_row, n_row)
        row_series.add(n, bd.gflops)
        n_blk = max(params_block.lcm, (n // params_block.lcm) * params_block.lcm)
        bd2 = estimate_kernel_time(spec, params_block, n_blk, n_blk, n_blk)
        block_series.add(n, bd2.gflops)
    result.add_figure([block_series, row_series],
                      title="DGEMM kernel GFlop/s vs size (Tahiti)")
    result.note(
        "Row-major performance is drastically deteriorated at sizes that "
        "are multiples of 2048 because of memory bank conflicts."
    )
    return result


def ablation_images(quick: bool = False) -> ExperimentResult:
    """Image objects (texture reads) vs buffers — the extension the paper
    leaves open ("Image objects ... are not used currently", III-F).

    Reference points from Section IV-C: on the Cypress GPU, Nakasato's
    image-based IL kernels (498 GFlop/s) essentially match the paper's
    buffer-based OpenCL kernels (495); on GCN (Tahiti), LDS staging is
    the better path, so image kernels should trail.
    """
    result = ExperimentResult(
        "ablation_images",
        "Image-object (texture) kernels vs buffer kernels (extension; "
        "paper Section III-F / IV-C)",
    )
    table = Table(
        ["Device", "Prec", "Buffer best [GFlop/s]", "Image best [GFlop/s]", "Ratio"],
        title="Best kernel per memory-object kind",
    )
    for device, precision in (("cypress", "d"), ("tahiti", "d"), ("tahiti", "s")):
        spec = get_device_spec(device)
        buffer_best = _max_kernel_gflops(spec, pretuned_params(device, precision))
        cfg = _tuning_config(quick)
        res_img = tune(
            spec, precision, cfg, SpaceRestrictions(forced_images=True)
        )
        image_best = res_img.best_gflops
        table.add_row(device, precision, f"{buffer_best:.0f}", f"{image_best:.0f}",
                      f"{image_best / buffer_best:.2f}")
    result.add_table(table)
    result.note(
        "VLIW GPUs (Cypress) read operands through texture caches almost "
        "for free, so image kernels match buffer kernels there "
        "(Nakasato's 498 vs the tuner's 495); on GCN (Tahiti) LDS staging "
        "wins and the image path trails."
    )
    return result


def ablation_pcie(quick: bool = False) -> ExperimentResult:
    """What including host<->device transfers would do.

    The paper: "the presented performance numbers do not take into
    account data transfer time between host and OpenCL device."  This
    ablation quantifies that choice: end-to-end rates (ship A and B to
    the device, run the full implementation, ship C back over PCIe)
    versus the paper's kernel-only and implementation-level rates.
    """
    from repro.perfmodel.model import estimate_transfer_time

    result = ExperimentResult(
        "ablation_pcie",
        "Kernel-only vs implementation vs end-to-end incl. PCIe transfers "
        "(paper Section IV explicitly excludes transfer time)",
    )
    table = Table(
        ["Device", "N", "Kernel [GFlop/s]", "Impl. [GFlop/s]",
         "End-to-end [GFlop/s]", "Transfer share"],
        title="DGEMM at the tuning base size",
    )
    for device in EVALUATED_DEVICES:
        spec = get_device_spec(device)
        params = pretuned_params(device, "d")
        base = 4096 if spec.is_gpu else 1536
        n = max(params.lcm, (base // params.lcm) * params.lcm)
        flops = 2.0 * n**3
        kernel = estimate_kernel_time(spec, params, n, n, n)
        impl = predict_implementation(spec, params, n, n, n)
        transfer = estimate_transfer_time(spec, 3.0 * n * n * params.element_size)
        end_to_end = impl.total_s + transfer
        table.add_row(
            device, n,
            f"{flops / kernel.total_seconds / 1e9:.0f}",
            f"{flops / impl.total_s / 1e9:.0f}",
            f"{flops / end_to_end / 1e9:.0f}",
            f"{transfer / end_to_end:.0%}",
        )
    result.add_table(table)

    # Transfer amortisation with size on the Tahiti (O(N^2) vs O(N^3)).
    params = pretuned_params("tahiti", "d")
    spec = get_device_spec("tahiti")
    impl_series = Series("Implementation (no transfers)")
    e2e_series = Series("End-to-end (with PCIe)")
    for n in (512, 1024, 2048, 4096, 6144):
        t_impl = predict_implementation(spec, params, n, n, n).total_s
        t_e2e = t_impl + estimate_transfer_time(spec, 3.0 * n * n * 8)
        impl_series.add(n, 2.0 * n**3 / t_impl / 1e9)
        e2e_series.add(n, 2.0 * n**3 / t_e2e / 1e9)
    result.add_figure([impl_series, e2e_series],
                      title="Tahiti DGEMM: transfer amortisation vs size")
    result.note(
        "PCIe transfers are O(N^2) against the kernel's O(N^3): they "
        "dominate at small sizes and amortise at large ones — and they "
        "are negligible on the CPUs, whose 'device' memory is host memory."
    )
    return result


def smallsize_crossover(quick: bool = False) -> ExperimentResult:
    """The paper's conclusion, implemented: a copy-free kernel for small
    sizes plus a crossover dispatcher.

    "For small sizes, an overhead for the copying is relatively large;
    [...] One possible solution for such sizes is to use another GEMM
    kernel without the matrix copying.  A future work is to implement
    the kernel and combine it with the current implementation."
    """
    from repro.gemm.direct import crossover_size, direct_params

    result = ExperimentResult(
        "smallsize_crossover",
        "Packed vs copy-free (direct) GEMM at small sizes "
        "(the paper's proposed future work, paper Section V)",
    )
    spec = get_device_spec("tahiti")
    params = pretuned_params("tahiti", "d")
    packed_series = Series("Packed (copy + block-major kernel)")
    direct_series = Series("Direct (copy-free row-major kernel)")
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        t_packed = predict_implementation(spec, params, n, n, n, noise=False).total_s
        dparams = direct_params(params)
        t_direct = estimate_kernel_time(spec, dparams, n, n, n,
                                        noise=False).total_seconds
        packed_series.add(n, 2.0 * n**3 / t_packed / 1e9)
        direct_series.add(n, 2.0 * n**3 / t_direct / 1e9)
    result.add_figure([packed_series, direct_series],
                      title="Tahiti DGEMM effective GFlop/s vs size")
    xover = crossover_size(spec, params)
    table = Table(["Quantity", "Value"], title="Crossover dispatch")
    table.add_row("Model-predicted crossover size", str(xover))
    table.add_row("Direct wins below", f"N < {xover}")
    table.add_row("Packed wins at or above", f"N >= {xover}")
    result.add_table(table)
    result.note(
        "Below the crossover the O(N^2) packing copy dominates and the "
        "copy-free kernel wins despite its slower row-major reads; above "
        "it the copy amortises (the paper's Fig. 9 observation)."
    )
    return result


def ablation_guards(quick: bool = False) -> ExperimentResult:
    """Zero padding vs edge guards for awkward problem sizes.

    The paper handles non-multiple sizes with zero padding (Section
    IV-B); the alternative every GEMM library weighs is bounds-checked
    kernels.  Padding costs wasted flops on the padded fringe; guards
    cost issue slots on every load.  The crossover depends on how far
    the size sits from the blocking grid.
    """
    from repro.gemm.direct import direct_params
    from repro.gemm.packing import pad_to_multiple

    result = ExperimentResult(
        "ablation_guards",
        "Zero padding vs bounds-checked (guarded) kernels on Tahiti DGEMM",
    )
    params = pretuned_params("tahiti", "d")
    spec = get_device_spec("tahiti")
    guarded = direct_params(params)
    table = Table(
        ["N", "Padded-to", "Padded impl [GFlop/s]", "Guarded kernel [GFlop/s]",
         "Winner"],
        title="Effective rate at sizes off the blocking grid "
              f"(LCM = {params.lcm})",
    )
    for n in (params.lcm * 10 + 1, 1000, 2000, 4000, 4032):
        padded = predict_implementation(spec, params, n, n, n, noise=False)
        rate_padded = 2.0 * n**3 / padded.total_s / 1e9
        bd = estimate_kernel_time(spec, guarded, n, n, n, noise=False)
        rate_guarded = 2.0 * n**3 / bd.total_seconds / 1e9
        table.add_row(
            n, pad_to_multiple(n, params.lcm), f"{rate_padded:.0f}",
            f"{rate_guarded:.0f}",
            "guarded" if rate_guarded > rate_padded else "padded",
        )
    result.add_table(table)
    result.note(
        "Just past a blocking multiple (e.g. N = LCM*k + 1) padding wastes a "
        "whole extra tile row/column and the guarded kernel wins; on the "
        "grid (N = 4032) padding costs only the pack pass and wins back."
    )
    return result


def scorecard(quick: bool = False) -> ExperimentResult:
    """Every reproduced qualitative claim of the paper, as one PASS table.

    A machine-checkable summary of EXPERIMENTS.md: each row is a claim
    from the paper's text and the comparison our stack produces for it.
    """
    result = ExperimentResult(
        "scorecard", "Reproduction scorecard: the paper's claims, checked"
    )
    table = Table(["Claim (paper)", "Ours", "Status"], title="Claims")

    def check(claim: str, ours: str, passed: bool) -> None:
        table.add_row(claim, ours, "PASS" if passed else "FAIL")

    kernel_max = {
        (d, p): _max_kernel_gflops(get_device_spec(d), pretuned_params(d, p))
        for d in EVALUATED_DEVICES for p in ("s", "d")
    }

    check("Tahiti DGEMM 863 GFlop/s (91% of peak)",
          f"{kernel_max[('tahiti', 'd')]:.0f}",
          abs(kernel_max[("tahiti", "d")] - 863) / 863 < 0.06)
    check("Tahiti SGEMM 3047 GFlop/s (80% of peak)",
          f"{kernel_max[('tahiti', 's')]:.0f}",
          abs(kernel_max[("tahiti", "s")] - 3047) / 3047 < 0.06)
    check("Kepler DGEMM efficiency exceeds 100% (boost clock)",
          f"{kernel_max[('kepler', 'd')] / 122.0:.0%}",
          kernel_max[("kepler", "d")] > 122.0)
    check("Tahiti is the fastest processor",
          "max over devices",
          all(kernel_max[("tahiti", p)] == max(kernel_max[(d, p)]
                                               for d in EVALUATED_DEVICES)
              for p in ("s", "d")))
    check("AMD GPUs beat clBLAS",
          "tahiti/cayman vs clBLAS NN",
          all(kernel_max[(d, p)] > get_library("clblas", d).max_gflops(p, "NN")
              for d in ("tahiti", "cayman") for p in ("s", "d")))
    check("NVIDIA GPUs comparable to CUBLAS (within 25%)",
          "kepler/fermi ratios",
          all(0.75 < kernel_max[(d, p)] /
              get_library("cublas", d).max_gflops(p, "NN") < 1.3
              for d in ("kepler", "fermi") for p in ("s", "d")))
    check("CPUs at least 2x below MKL",
          f"{get_library('mkl', 'sandybridge').max_gflops('d') / kernel_max[('sandybridge', 'd')]:.1f}x",
          get_library("mkl", "sandybridge").max_gflops("d")
          >= 2.0 * kernel_max[("sandybridge", "d")])
    check("Block-major layouts in every tuned winner",
          "layouts of 12 winners",
          all(pretuned_params(d, p).layout_a.is_block_major
              and pretuned_params(d, p).layout_b.is_block_major
              for d in EVALUATED_DEVICES for p in ("s", "d")))
    check("Cayman's winners avoid local memory (barrier cost)",
          pretuned_params("cayman", "s").shared_label(),
          not any(pretuned_params("cayman", p).shared_a
                  or pretuned_params("cayman", p).shared_b for p in "sd"))
    check("Kepler's winners stage both matrices",
          pretuned_params("kepler", "s").shared_label(),
          all(pretuned_params("kepler", p).shared_a
              and pretuned_params("kepler", p).shared_b for p in "sd"))

    # Bulldozer PL DGEMM hard failure.
    from repro.codegen.params import KernelParams
    from repro.errors import LaunchError
    from repro.perfmodel.model import check_execution_quirks

    pl = KernelParams(precision="d", mwg=16, nwg=16, kwg=8, mdimc=4, ndimc=4,
                      shared_b=True, algorithm=Algorithm.PL)
    try:
        check_execution_quirks(get_device_spec("bulldozer"), pl)
        failed = False
    except LaunchError:
        failed = True
    check("PL DGEMM kernels always fail to execute on Bulldozer",
          "LaunchError raised", failed)

    # Row-major bank conflicts at multiples of 2048.
    from repro.perfmodel.memory import memory_efficiency

    row = KernelParams(precision="d", mwg=64, nwg=64, kwg=64,
                       mdimc=16, ndimc=16)
    conflicted = memory_efficiency(get_device_spec("tahiti"), row, 4096, 4096, 4096)
    clean = memory_efficiency(get_device_spec("tahiti"), row, 4032, 4032, 4032)
    check("Row-major collapses at sizes that are 2048-multiples",
          f"mem eff {conflicted:.2f} vs {clean:.2f}",
          conflicted < 0.6 * clean)

    # Cypress ~ Nakasato's IL kernel.
    cypress_best = _max_kernel_gflops(get_device_spec("cypress"),
                                      pretuned_params("cypress", "d"))
    check("Cypress DGEMM matches Nakasato's IL kernel (495 vs 498)",
          f"{cypress_best:.0f} vs 498",
          abs(cypress_best - 498) / 498 < 0.06)

    result.add_table(table)
    failed_rows = [r for r in table.rows if r[2] == "FAIL"]
    result.note(
        f"{len(table.rows) - len(failed_rows)}/{len(table.rows)} claims PASS."
    )
    return result


def search_strategies(quick: bool = False) -> ExperimentResult:
    """Strategy x device scorecard at a fraction of the exhaustive budget.

    The paper's engine enumerates and ranks the whole heuristic space
    ("more than five hours" per device).  The pluggable strategies
    (annealing, particle swarm, regression-forest surrogate, and the
    surrogate warmed by cross-device transfer) claim the same winner at
    a few percent of that budget — this experiment scores exactly that
    claim: fraction of the exhaustive winner's GFlop/s reached vs
    fraction of the gated space measured, per strategy, per device,
    with a serial-vs-pooled determinism cross-check.
    """
    from repro.bench.search_scorecard import (
        DEFAULT_DEVICES,
        THRESHOLDS,
        run_scorecard,
    )

    if quick:
        # Shape check only: one device, a capped exhaustive reference,
        # and no doubled determinism runs.
        devices = (("sandybridge", "d"),)
        payload = run_scorecard(
            devices, workers=1, reference_budget=2500
        )
        scope = "quick: capped reference, sandybridge DGEMM"
    else:
        payload = run_scorecard(DEFAULT_DEVICES)
        scope = "full gated exhaustive reference on three catalog devices"
    result = ExperimentResult(
        "search_strategies",
        f"Search-strategy scorecard vs the exhaustive winner ({scope})",
    )
    table = Table(
        ["Device", "Strategy", "GFlop/s", "Ratio", "Fraction", "Deterministic"],
        title="Fraction of the exhaustive winner at a fraction of its budget",
    )
    for key, entry in payload["devices"].items():
        table.add_row(
            key, "exhaustive (reference)",
            f"{entry['reference_gflops']:.1f}", "1.0000",
            f"{entry['gated_space']}", "-",
        )
        for label, cell in entry["strategies"].items():
            table.add_row(
                key, label, f"{cell['gflops']:.1f}", f"{cell['ratio']:.4f}",
                f"{cell['fraction']:.4f}",
                "yes" if cell["deterministic"] else "NO",
            )
    result.add_table(table)
    result.note(
        f"Gates (CI `search-strategies` job): ratio >= {THRESHOLDS['ratio']:.0%} "
        f"at < {THRESHOLDS['fraction']:.0%} of the gated space "
        f"(surrogate+transfer: < {THRESHOLDS['transfer_fraction']:.0%}), and "
        "serial/pooled runs must select the bit-identical winner.  The "
        "reference row's Fraction column holds the gated space size."
    )
    return result


def portability(quick: bool = False) -> ExperimentResult:
    """The paper's thesis, quantified: performance is *not* portable.

    Every device's tuned SGEMM kernel is run on every other device; each
    cell is the fraction of the target's own tuned performance the
    foreign kernel retains (or FAIL when it cannot even build/launch —
    resource limits differ).  OpenCL's functional portability plus
    auto-tuning restores the diagonal; nothing else comes close.
    """
    from repro.errors import CLError, ReproError

    result = ExperimentResult(
        "portability",
        "Performance portability of tuned SGEMM kernels across devices "
        "(rows: where the kernel was tuned; columns: where it runs)",
    )
    precision = "s"
    own_rate: Dict[str, float] = {}
    size_of: Dict[str, int] = {}
    for device in EVALUATED_DEVICES:
        spec = get_device_spec(device)
        params = pretuned_params(device, precision)
        base = 4096 if spec.is_gpu else 1536
        n = max(params.lcm, (base // params.lcm) * params.lcm)
        size_of[device] = n
        own_rate[device] = estimate_kernel_time(spec, params, n, n, n).gflops

    table = Table(["Tuned on \\ runs on"] + EVALUATED_DEVICES,
                  title="Retained fraction of the target's own tuned rate")
    for donor in EVALUATED_DEVICES:
        donor_params = pretuned_params(donor, precision)
        cells = []
        for target in EVALUATED_DEVICES:
            spec = get_device_spec(target)
            lcm = donor_params.lcm
            base = size_of[target]
            n = max(lcm, (base // lcm) * lcm,
                    donor_params.algorithm.min_k_iterations * donor_params.kwg)
            try:
                rate = estimate_kernel_time(spec, donor_params, n, n, n).gflops
                cells.append(f"{rate / own_rate[target]:.2f}")
            except (CLError, ReproError):
                cells.append("FAIL")
        table.add_row(donor, *cells)
    result.add_table(table)
    result.note(
        "Performance is functionally portable but not performance-portable "
        "(the paper's motivation): off-diagonal kernels lose a large "
        "fraction of the target's tuned rate or fail to launch outright."
    )
    return result


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "fig7": fig7,
    "table2": table2,
    "fig8": fig8,
    "table3": table3,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "cypress": cypress,
    "kepler_kurzak": kepler_kurzak,
    "ablation_generator": ablation_generator,
    "ablation_local": ablation_local,
    "ablation_layout": ablation_layout,
    "ablation_images": ablation_images,
    "ablation_pcie": ablation_pcie,
    "portability": portability,
    "smallsize_crossover": smallsize_crossover,
    "ablation_guards": ablation_guards,
    "scorecard": scorecard,
    "search_strategies": search_strategies,
}


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(quick=quick)
