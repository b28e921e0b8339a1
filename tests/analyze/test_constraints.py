"""Golden diagnostics and the gate's agreement with the simulator.

The acceptance contract of the constraint prover: its verdict on any
parameter vector equals what :func:`repro.tuner.parallel.measure_once`
would decide by building and launching — nothing the gate passes fails
the simulator, and every gate rejection carries a provable witness.
"""

import itertools
import random

import pytest

from repro.analyze import StaticVerifier, prove_constraints
from repro.analyze.constraints import failure_class, structural_diagnostics
from repro.analyze.diagnostics import Severity
from repro.codegen.algorithms import Algorithm
from repro.codegen.params import KernelParams
from repro.codegen.space import SpaceRestrictions, enumerate_space
from repro.devices.catalog import get_device_spec, list_device_names
from repro.errors import ParameterError, ResourceError
from repro.perfmodel.model import check_resources
from repro.tuner.parallel import evaluate_candidate, EvalTask
from repro.tuner.pretuned import PRETUNED


def _base_raw(**overrides):
    raw = dict(PRETUNED[("tahiti", "d")])
    raw.update(overrides)
    return raw


#: (mutation, rule id the prover must report, message the vector raises
#: when built) — golden triples, one per Section-III derivation rule a
#: raw vector can break.  The messages pin ``KernelParams``' first
#: failing rule, byte for byte; layouts and algorithms are rejected by
#: their enums while the vector is decoded.
GOLDEN_VIOLATIONS = [
    ({"precision": "q"}, "param.precision",
     "precision must be 's' or 'd', got 'q'"),
    ({"mwg": 48.0}, "param.fields", "field 'mwg' must be an integer"),
    ({"mwg": 0}, "param.positive", "mwg must be >= 1"),
    ({"vw": 3}, "param.vector-width", "vector width 3 not in (1, 2, 4, 8)"),
    ({"stride": "K"}, "param.stride", "unknown stride directions ['K']"),
    ({"layout_a": "ZIG"}, "param.layout", "'ZIG' is not a valid Layout"),
    ({"algorithm": "XX"}, "param.algorithm", "'XX' is not a valid Algorithm"),
    ({"mdimc": 7}, "param.mwg-mdimc", "mwg=48 not divisible by mdimc=7"),
    ({"ndimc": 7}, "param.nwg-ndimc", "nwg=96 not divisible by ndimc=7"),
    ({"kwi": 7}, "param.kwg-kwi", "kwg=48 not divisible by kwi=7"),
    ({"mdima": 7}, "param.wg-mdima",
     "work-group size 128 not divisible by mdima=7"),
    ({"mdima": 32}, "param.mwg-mdima", "mwg=48 not divisible by mdima=32"),
    ({"mdima": 4}, "param.kwg-kdima", "kwg=48 not divisible by kdima=32"),
    ({"ndimb": 7}, "param.wg-ndimb",
     "work-group size 128 not divisible by ndimb=7"),
    ({"ndimb": 64}, "param.nwg-ndimb", "nwg=96 not divisible by ndimb=64"),
    ({"mwg": 48, "nwg": 96, "kwg": 24, "kwi": 8, "algorithm": "DB",
      "mdima": 16, "ndimb": 8}, "param.kwg-kdimb",
     "kwg=24 not divisible by kdimb=16"),
    ({"mwg": 96, "mdimc": 16, "vw": 4, "kwi": 16}, "param.mwi-vw",
     "mwi=6 not divisible by vector width 4"),
    ({"mwg": 64, "vw": 4}, "param.nwi-vw",
     "nwi=6 not divisible by vector width 4"),
    ({"use_images": True}, "param.image-layout",
     "image-object kernels address operands as 2-D textures; layouts must be ROW"),
    ({"guard_edges": True}, "param.guard-layout",
     "edge-guarded kernels read unpacked operands; layouts must be ROW"),
    ({"algorithm": "DB", "shared_a": False, "shared_b": False,
      "mdima": 0, "ndimb": 0}, "param.db-shared",
     "DB algorithm double-buffers local memory; at least one matrix must be shared"),
    ({"algorithm": "DB", "mwg": 128, "mdima": 128, "shared_b": False,
      "kwg": 3, "kwi": 3}, "param.db-even-kwg",
     "DB requires an even kwg (two half-buffers)"),
    ({"algorithm": "DB"}, "param.db-half-kwi",
     "DB half-buffer kwg/2=24 not divisible by kwi=16"),
    ({"algorithm": "DB", "mdima": 8, "kwi": 8}, "param.db-half-kdima",
     "DB requires each half tile of A to be loadable by the work-group "
     "(kwg/2=24 not divisible by kdima=16)"),
    ({"algorithm": "DB", "ndimb": 8, "kwi": 8}, "param.db-half-kdimb",
     "DB requires each half tile of B to be loadable by the work-group "
     "(kwg/2=24 not divisible by kdimb=16)"),
]
GOLDEN_IDS = [rule for _, rule, _ in GOLDEN_VIOLATIONS]


class TestGoldenDiagnostics:
    @pytest.mark.parametrize("overrides,rule,message", GOLDEN_VIOLATIONS,
                             ids=GOLDEN_IDS)
    def test_known_bad_vector_hits_its_rule(self, overrides, rule, message):
        raw = _base_raw(**overrides)
        diags = prove_constraints(None, raw)
        errors = {d.rule for d in diags if d.severity is Severity.ERROR}
        assert rule in errors
        with pytest.raises(ValueError) as excinfo:
            KernelParams.from_dict(raw)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("overrides,rule,message", GOLDEN_VIOLATIONS,
                             ids=GOLDEN_IDS)
    def test_every_rejection_carries_a_witness(self, overrides, rule, message):
        raw = _base_raw(**overrides)
        for d in prove_constraints(None, raw):
            if d.severity is Severity.ERROR:
                assert d.witness, f"{d.rule} has no witness"

    def test_clean_vector_has_no_errors(self):
        diags = prove_constraints(None, _base_raw())
        assert not [d for d in diags if d.severity is Severity.ERROR]

    def test_device_budget_rules_need_a_spec(self):
        spec = get_device_spec("bulldozer")
        params = KernelParams.from_dict(_base_raw())  # tahiti-sized tiles
        rule = StaticVerifier(spec).gate(params)
        assert rule == "device.local-memory"
        assert StaticVerifier(None).gate(params) is None

    def test_quirk_rule_matches_the_simulator(self):
        spec = get_device_spec("bulldozer")
        params = KernelParams.from_dict(PRETUNED[("tahiti", "d")])
        assert params.algorithm.name == "PL"
        diags = prove_constraints(spec, params)
        assert failure_class(diags) in ("build", "launch")


class TestGateAgreesWithSimulator:
    """gate(p) is None exactly when measure_once succeeds."""

    DEVICES = ("tahiti", "cayman", "bulldozer", "sandybridge")

    def _differential(self, codename, precision, limit, seed=0):
        spec = get_device_spec(codename)
        verifier = StaticVerifier(spec)
        checked = 0
        for params in enumerate_space(spec, precision, limit=limit, seed=seed):
            n = max(params.lcm, params.algorithm.min_k_iterations * params.kwg)
            outcome = evaluate_candidate(
                spec, EvalTask(params, (n, n, n)), noise=False
            )
            rule = verifier.gate(params)
            assert (rule is None) == outcome.ok, (
                f"{codename}: gate={rule!r} but simulator "
                f"failure={outcome.failure!r} for {params.summary()}"
            )
            if not outcome.ok:
                assert verifier.gate_class(params) == outcome.failure
            checked += 1
        return checked

    @pytest.mark.parametrize("codename", DEVICES)
    def test_sampled_space_agreement(self, codename):
        assert self._differential(codename, "d", limit=150) == 150

    def test_sgemm_agreement(self):
        assert self._differential("kepler", "s", limit=100) == 100

    BUILD_RULES = ("device.workgroup-size", "device.local-memory",
                   "device.private-memory", "device.occupancy")
    #: Vectors past the budgets the enumeration keeps to: together they
    #: break each build rule on some catalog device.
    BUILD_EDGES = (
        dict(mwg=128, nwg=128, kwg=16, mdimc=32, ndimc=32),
        dict(mwg=128, nwg=128, kwg=64, mdimc=16, ndimc=16,
             shared_a=True, shared_b=True, algorithm=Algorithm.DB),
        dict(mwg=128, nwg=128, kwg=8, mdimc=4, ndimc=4),
        dict(mwg=128, nwg=128, kwg=32, mdimc=16, ndimc=16, kwi=2,
             shared_a=True, shared_b=True, algorithm=Algorithm.PL),
        dict(mwg=128, nwg=128, kwg=32, mdimc=16, ndimc=16, kwi=2, vw=2,
             shared_b=True),
    )

    @pytest.mark.parametrize("precision", ("s", "d"))
    @pytest.mark.parametrize("codename", list_device_names())
    def test_catalog_build_rules_are_the_simulators(self, codename, precision):
        """On every catalog device, the gate names a build rule exactly
        when ``check_resources`` raises, with that diagnostic's text."""
        spec = get_device_spec(codename)
        verifier = StaticVerifier(spec)
        restrictions = SpaceRestrictions(allow_images=True, allow_guarded=True)
        sampled = enumerate_space(spec, precision, restrictions, limit=200, seed=5)
        edges = (KernelParams(precision=precision, **edge) for edge in self.BUILD_EDGES)
        checked = 0
        for params in itertools.chain(sampled, edges):
            diags = prove_constraints(spec, params)
            rule = verifier.gate(params)
            try:
                check_resources(spec, params)
            except ResourceError as exc:
                assert rule in self.BUILD_RULES, (codename, rule, str(exc))
                first = next(d for d in diags if d.rule == rule)
                assert str(exc) == first.message
            else:
                assert rule not in self.BUILD_RULES, (codename, rule)
            n = max(params.lcm, params.algorithm.min_k_iterations * params.kwg)
            outcome = evaluate_candidate(spec, EvalTask(params, (n, n, n)), noise=False)
            assert failure_class(diags) == outcome.failure, params.summary()
            checked += 1
        assert checked == 200 + len(self.BUILD_EDGES)

    def test_gate_is_memoized(self):
        spec = get_device_spec("tahiti")
        verifier = StaticVerifier(spec)
        params = KernelParams.from_dict(_base_raw())
        assert verifier.gate(params) is verifier.gate(params)
        assert params.cache_key() in verifier._gate_cache


#: Values a mutation draws per field: valid ones, ones that break a rule,
#: and ones of the wrong type.
_MUTATIONS = {
    "precision": ["s", "d", "q", None, 8, []],
    "mwg": [16, 32, 48, 64, 96, 128, 0, -16, 40, 48.0, "48", None, True],
    "nwg": [16, 32, 48, 64, 96, 128, 0, 40, 96.0, None],
    "kwg": [3, 8, 16, 24, 32, 48, 64, 96, 0, 12, "32"],
    "mdimc": [4, 7, 8, 16, 24, 32, 0, -8, 16.0, False],
    "ndimc": [4, 7, 8, 16, 24, 32, 0, None],
    "kwi": [1, 2, 3, 4, 8, 16, 24, 0, 7],
    "vw": [1, 2, 3, 4, 8, 16, 0, 2.0],
    "mdima": [0, 4, 7, 8, 16, 32, 64, 128, -4, None],
    "ndimb": [0, 4, 7, 8, 16, 32, 64, "8"],
    "stride": ["-", "M", "N", "M,N", "K", "M,Q", None],
    "shared_a": [True, False, "no", 1, 0, None],
    "shared_b": [True, False, "yes", 0],
    "layout_a": ["ROW", "CBL", "RBL", "ZIG", None, 3],
    "layout_b": ["ROW", "CBL", "RBL", "ZAG"],
    "algorithm": ["BA", "PL", "DB", "DB", "XX", None],
    "use_images": [True, False, False, "no"],
    "guard_edges": [True, False, False, 1],
}


def _mutants(count, seed=11):
    """Seeded mutations of the pretuned vectors: single and multi-field
    changes, DB with every shared pair, bad types, unknown and missing keys."""
    rng = random.Random(seed)
    bases = sorted(PRETUNED)
    for _ in range(count):
        raw = dict(PRETUNED[rng.choice(bases)])
        for name in rng.sample(sorted(_MUTATIONS), k=rng.choice((1, 1, 2, 3, 4))):
            raw[name] = rng.choice(_MUTATIONS[name])
        roll = rng.random()
        if roll < 0.25:
            raw["algorithm"] = "DB"
            raw["shared_a"], raw["shared_b"] = rng.choice(
                ((False, False), (True, False), (False, True), (True, True)))
        elif roll < 0.3:
            raw["bogus"] = 1
        elif roll < 0.35:
            del raw[rng.choice(sorted(raw))]
        yield raw


class TestRuleTable:
    """Construction and the prover walk one Section-III rule table."""

    def test_from_dict_raises_what_the_prover_reports_first(self):
        outcomes = {"built": 0, "raised": 0}
        for raw in _mutants(1500):
            diags = structural_diagnostics(raw)
            assert all(d.severity is Severity.ERROR for d in diags)
            try:
                KernelParams.from_dict(raw)
            except ParameterError as exc:
                assert diags, raw
                first = next(d for d in diags if d.rule.startswith("param."))
                assert str(exc) == first.message, raw
                outcomes["raised"] += 1
            else:
                assert not diags, (raw, diags)
                outcomes["built"] += 1
        assert min(outcomes.values()) > 200, outcomes

    @pytest.mark.parametrize("flag", ["shared_a", "shared_b", "use_images", "guard_edges"])
    def test_flags_must_be_bools(self, flag):
        raw = _base_raw(**{flag: "no"})
        with pytest.raises(ParameterError, match=f"field '{flag}' must be a bool"):
            KernelParams.from_dict(raw)
        assert [d.rule for d in prove_constraints(None, raw)] == ["param.fields"]

    def test_unknown_keys_are_rejected(self):
        raw = _base_raw(bogus=1)
        with pytest.raises(ParameterError, match="unknown fields 'bogus'"):
            KernelParams.from_dict(raw)
        diags = prove_constraints(get_device_spec("tahiti"), raw)
        assert [d.rule for d in diags] == ["param.fields"]
        assert diags[0].witness == {"fields": "'bogus'"}
