"""Index-space encoding of the kernel parameter space.

The adaptive strategies (annealing, PSO, surrogate) need a geometry to
move in: :class:`ParamSpace` lays the Section-III parameters out as a
fixed list of axes, each with an ordered value pool, so a candidate is a
vector of pool indices.  Moves are index steps, positions decode back to
validated :class:`KernelParams` (or ``None`` where the structural
constraints reject the combination — the same "failed in code
generation" class the enumerative search discards), and the surrogate
derives its numeric feature vector from the same axes.

The pools are the value table of :mod:`repro.codegen.space`, which the
enumerator and the refiner read too, restricted by the active
:class:`SpaceRestrictions` so ablation searches cannot escape their
ablated space through a clever strategy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.params import KernelParams
from repro.codegen.space import (
    FLAGGED_LAYOUTS,
    STEP_POOLS,
    STRIDES,
    SpaceRestrictions,
)
from repro.devices.specs import DeviceSpec
from repro.errors import ParameterError

__all__ = ["ParamSpace", "FEATURE_FAMILIES"]


#: Maps surrogate feature names to the report families of
#: :mod:`repro.tuner.analysis` (the paper's Section IV-A taxonomy), so
#: the model's importances can be cross-read against the sensitivity
#: report.
FEATURE_FAMILIES: Dict[str, str] = {
    "log_mwg": "blocking",
    "log_nwg": "blocking",
    "log_kwg": "blocking",
    "log_mdimc": "workgroup shape",
    "log_ndimc": "workgroup shape",
    "log_kwi": "unrolling",
    "log_vw": "vector width",
    "stride_m": "stride mode",
    "stride_n": "stride mode",
    "shared_a": "local memory",
    "shared_b": "local memory",
    "log_mdima": "local memory",
    "log_ndimb": "local memory",
    "local_kb": "local memory",
    "layout_a_block": "layouts",
    "layout_b_block": "layouts",
    "alg_ba": "algorithm",
    "alg_pl": "algorithm",
    "alg_db": "algorithm",
    "log_mwi": "blocking",
    "log_nwi": "blocking",
    "log_wg": "workgroup shape",
    "private_el": "blocking",
    "use_images": "memory objects",
}


class ParamSpace:
    """The encoded search space for one (device, precision, restrictions).

    Axes (in order): ``mwg nwg kwg mdimc ndimc kwi vw stride shared
    mdima ndimb layout algorithm``, then ``images`` and ``guard`` where
    the restrictions allow both values of that flag.  A flag with one
    allowed value is pinned rather than searched: a one-value axis would
    still consume RNG draws.  A flag pinned on narrows the layouts to
    :data:`FLAGGED_LAYOUTS`; where a flag is searched, construction
    rejects its block-major points (they decode to ``None``).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        precision: str,
        restrictions: Optional[SpaceRestrictions] = None,
    ):
        self.spec = spec
        self.precision = precision
        self.restrictions = restrictions or SpaceRestrictions()
        r = self.restrictions

        staging = (0,) + r.staging_widths()
        flags = (("images", r.image_options()), ("guard", r.guard_options()))
        #: Flag values fixed by the restrictions (not searched).
        self.pinned = {name: opts[0] for name, opts in flags if len(opts) == 1}
        layouts = (FLAGGED_LAYOUTS if any(self.pinned.values())
                   else r.layout_options())

        #: ``(name, value pool)`` in canonical order.  Numeric axes hold
        #: sorted ints; categorical axes hold richer objects.
        self.axes: List[Tuple[str, Tuple]] = [
            *r.pools().items(),  # mwg nwg kwg mdimc ndimc kwi vw
            ("stride", STRIDES),
            ("shared", r.shared_options()),
            ("mdima", staging),
            ("ndimb", staging),
            ("layout", layouts),
            ("algorithm", tuple(r.algorithms)),
            *((name, opts) for name, opts in flags if len(opts) > 1),
        ]
        #: Axis names considered ordinal (index distance is meaningful).
        self.numeric_axes = frozenset(STEP_POOLS) | {"mdima", "ndimb"}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.axes)

    def axis_sizes(self) -> List[int]:
        return [len(pool) for _, pool in self.axes]

    # -- decoding --------------------------------------------------------
    def decode(self, indices: Sequence[int]) -> Optional[KernelParams]:
        """Indices -> validated params, or ``None`` if the point is not
        constructible / feasible / inside the restricted space."""
        values = dict(self.pinned)
        for (name, pool), i in zip(self.axes, indices):
            if not (0 <= i < len(pool)):
                return None
            values[name] = pool[i]
        sha, shb = values["shared"]
        la, lb = values["layout"]
        try:
            params = KernelParams(
                precision=self.precision,
                mwg=values["mwg"], nwg=values["nwg"], kwg=values["kwg"],
                mdimc=values["mdimc"], ndimc=values["ndimc"],
                kwi=values["kwi"], vw=values["vw"],
                stride=values["stride"],
                shared_a=sha, shared_b=shb,
                mdima=values["mdima"] if sha else 0,
                ndimb=values["ndimb"] if shb else 0,
                layout_a=la, layout_b=lb,
                algorithm=values["algorithm"],
                use_images=values["images"],
                guard_edges=values["guard"],
            )
        except ParameterError:
            return None
        return params if self.admissible(params) else None

    def admissible(self, params: KernelParams) -> bool:
        """Whether a params vector lies inside this (restricted) space."""
        if params.precision != self.precision:
            return False
        if params.local_memory_bytes() > self.spec.local_mem_bytes:
            return False
        if params.workgroup_size > self.spec.model.max_workgroup_size:
            return False
        return self.restrictions.admits(params)

    # -- encoding --------------------------------------------------------
    def encode(self, params: KernelParams) -> List[int]:
        """Params -> nearest index vector (numeric axes snap to the
        closest pool value; categorical axes fall back to index 0 when
        the exact option is outside the restricted pools)."""
        raw = {
            "mwg": params.mwg, "nwg": params.nwg, "kwg": params.kwg,
            "mdimc": params.mdimc, "ndimc": params.ndimc,
            "kwi": params.kwi, "vw": params.vw,
            "stride": params.stride,
            "shared": (params.shared_a, params.shared_b),
            "mdima": params.mdima, "ndimb": params.ndimb,
            "layout": (params.layout_a, params.layout_b),
            "algorithm": params.algorithm,
            "images": params.use_images,
            "guard": params.guard_edges,
        }
        out = []
        for name, pool in self.axes:
            value = raw[name]
            if name in self.numeric_axes:
                out.append(
                    min(range(len(pool)), key=lambda i: abs(pool[i] - value))
                )
            else:
                out.append(pool.index(value) if value in pool else 0)
        return out

    # -- sampling / moves ------------------------------------------------
    def random_point(self, rng) -> List[int]:
        return [rng.randrange(len(pool)) for _, pool in self.axes]

    def random_params(self, rng, attempts: int = 64) -> Optional[KernelParams]:
        """A random *valid* point (or ``None`` after ``attempts`` misses)."""
        for _ in range(attempts):
            params = self.decode(self.random_point(rng))
            if params is not None:
                return params
        return None

    def perturb(self, rng, indices: Sequence[int], strength: int = 1) -> List[int]:
        """One neighbourhood move: step 1..``strength`` axes.

        Numeric axes move one pool position up or down (the refinement
        module's "one step along the axis"); categorical axes re-draw.
        """
        out = list(indices)
        n_moves = 1 + rng.randrange(max(1, strength))
        axes = rng.sample(range(len(self.axes)), k=min(n_moves, len(self.axes)))
        for a in axes:
            name, pool = self.axes[a]
            if len(pool) <= 1:
                continue
            if name in self.numeric_axes:
                step = rng.choice((-1, 1))
                out[a] = min(len(pool) - 1, max(0, out[a] + step))
            else:
                choices = [i for i in range(len(pool)) if i != out[a]]
                out[a] = rng.choice(choices)
        return out

    # -- surrogate features ----------------------------------------------
    FEATURE_NAMES: Tuple[str, ...] = tuple(FEATURE_FAMILIES)

    def features(self, params: KernelParams) -> List[float]:
        """Numeric feature vector for the regression forest."""
        log2 = math.log2
        return [
            log2(params.mwg),
            log2(params.nwg),
            log2(params.kwg),
            log2(params.mdimc),
            log2(params.ndimc),
            log2(params.kwi),
            log2(params.vw),
            1.0 if params.stride.m else 0.0,
            1.0 if params.stride.n else 0.0,
            1.0 if params.shared_a else 0.0,
            1.0 if params.shared_b else 0.0,
            log2(params.effective_mdima) if params.shared_a else -1.0,
            log2(params.effective_ndimb) if params.shared_b else -1.0,
            params.local_memory_bytes() / 1024.0,
            1.0 if params.layout_a.is_block_major else 0.0,
            1.0 if params.layout_b.is_block_major else 0.0,
            1.0 if params.algorithm.value == "BA" else 0.0,
            1.0 if params.algorithm.value == "PL" else 0.0,
            1.0 if params.algorithm.value == "DB" else 0.0,
            log2(params.mwi),
            log2(params.nwi),
            log2(params.workgroup_size),
            float(params.private_elements()),
            1.0 if params.use_images else 0.0,
        ]
