"""Model-level bounds/race proofs and the source cross-checks.

Two directions: every valid vector's model and emitted source must
analyze clean (the analyzer agrees with the simulator), and seeded
re-introductions of real generator-bug classes — the DB half-buffer
rebase, divergent barriers, staging corruption — must be caught with a
concrete witness.
"""

import re

import pytest

from repro.analyze.bounds import check_bounds
from repro.analyze.intervals import LinearIndex, Term
from repro.analyze.races import check_phases, check_races, check_staging
from repro.analyze.sites import KernelModel, Phase, StagingMap, build_model
from repro.analyze.source_checks import _closure, check_source  # white-box: evaluator
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.params import KernelParams
from repro.spec.cparse import Bin, Num, Un
from repro.tuner.pretuned import pretuned_catalog

from tests.conftest import PARAM_MATRIX, make_params


def _db_params() -> KernelParams:
    """A DB kernel staging A through local memory (rebase-sensitive)."""
    return KernelParams.from_dict({
        "precision": "d", "mwg": 32, "nwg": 96, "kwg": 48, "mdimc": 8,
        "ndimc": 16, "kwi": 24, "vw": 2, "stride": "-", "shared_a": True,
        "shared_b": False, "mdima": 32, "ndimb": 0, "layout_a": "RBL",
        "layout_b": "CBL", "algorithm": "DB",
    })


class TestValidVectorsAreClean:
    @pytest.mark.parametrize("params", PARAM_MATRIX,
                             ids=lambda p: p.summary()[:40])
    def test_model_checks_pass(self, params):
        model = build_model(params)
        assert check_bounds(model) == []
        assert check_races(model) == []

    @pytest.mark.parametrize("params", PARAM_MATRIX,
                             ids=lambda p: p.summary()[:40])
    def test_source_checks_pass(self, params):
        source = emit_kernel_source(params)
        assert check_source(params, source, samples=16) == []

    def test_pretuned_catalog_is_clean(self):
        for codename, precision, params in pretuned_catalog():
            model = build_model(params)
            findings = check_bounds(model) + check_races(model)
            assert findings == [], f"{codename}/{precision}: {findings}"

    def test_guarded_and_image_variants_are_clean(self):
        for params in (make_params(guard_edges=True),
                       make_params(use_images=True),
                       make_params(guard_edges=True, vw=2, mwg=32, nwg=16,
                                   mdimc=8, ndimc=4)):
            source = emit_kernel_source(params)
            assert check_source(params, source, samples=16) == []


class TestTamperedSources:
    """Regression guards: each re-introduced generator bug is caught."""

    def test_dropped_db_rebase_is_caught(self):
        """Removing the half-buffer rebase (`pwi - (KWG / 2)` -> `pwi`)
        sends the second-half local reads one half-tile out of bounds —
        the original generator bug the corner sampler must pin down."""
        params = _db_params()
        source = emit_kernel_source(params)
        assert "pwi - (KWG / 2)" in source
        tampered = source.replace("pwi - (KWG / 2)", "pwi")
        findings = check_source(params, tampered, samples=16)
        local_oob = [d for d in findings if d.rule == "source.local-index"]
        assert local_oob, "dropped rebase not detected"
        witness = local_oob[0].witness
        assert witness["value"] >= witness["extent"]

    def test_divergent_barrier_is_caught(self):
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        tampered = source.replace(
            "barrier(CLK_LOCAL_MEM_FENCE);",
            "if (tid == 0) {\nbarrier(CLK_LOCAL_MEM_FENCE);\n}", 1)
        findings = check_source(params, tampered, samples=4)
        assert any(d.rule == "barrier.divergent" for d in findings)
        assert any(d.witness.get("line") for d in findings
                   if d.rule == "barrier.divergent")

    def test_removed_barrier_is_caught(self):
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        lines = source.splitlines()
        out = []
        removed = False
        for ln in lines:
            if not removed and "barrier(CLK_LOCAL_MEM_FENCE)" in ln:
                removed = True
                continue
            out.append(ln)
        assert removed
        findings = check_source(params, "\n".join(out), samples=4)
        assert any(d.rule == "source.barrier-count" for d in findings)

    def test_shrunk_local_declaration_is_caught(self):
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        tampered = re.sub(r"(__local \w+ \w+)\[([^\]]+)\];",
                          r"\1[(\2) / 2];", source, count=1)
        assert tampered != source
        findings = check_source(params, tampered, samples=4)
        assert any(d.rule == "source.local-decl" for d in findings)

    def test_wrong_define_is_caught(self):
        params = make_params()
        source = emit_kernel_source(params)
        tampered = re.sub(r"#define KWI \d+", "#define KWI 7", source)
        assert tampered != source
        findings = check_source(params, tampered, samples=4)
        assert any(d.rule == "source.define-mismatch" and
                   d.witness["define"] == "KWI" for d in findings)

    def test_foreign_metadata_is_caught(self):
        params = make_params()
        other = make_params(kwi=4)
        findings = check_source(params, emit_kernel_source(other), samples=4)
        assert any(d.rule == "source.meta-mismatch" for d in findings)


class TestSourceEvaluator:
    """The source checks' integer evaluator and its failure reporting."""

    @staticmethod
    def _div(op, a, b):
        return Bin(op, Un("-", Num(-a, False)) if a < 0 else Num(a, False),
                   Num(b, False))

    @pytest.mark.parametrize("op,a,b,want", [
        ("/", -3, 2, -1), ("%", -3, 2, -1), ("/", -7, 3, -2),
        ("%", -7, 3, -1), ("/", 7, 3, 2), ("%", 7, 3, 1),
    ])
    def test_c_division_truncates_toward_zero(self, op, a, b, want):
        assert _closure(self._div(op, a, b))({}) == want

    def test_division_by_zero_is_unevaluable(self):
        with pytest.raises(ValueError):
            _closure(self._div("/", 1, 0))({})

    @pytest.mark.parametrize("zero", ["(-1 / 2)", "(-3 % 2) + 1"])
    def test_negative_dividend_subscript_is_clean(self, zero):
        """A subscript offset that is zero in C (but not under floor
        division) must not be reported out of bounds."""
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        tampered = source.replace("alm[kk * MWG + mm]",
                                  f"alm[kk * MWG + mm + {zero}]")
        assert tampered != source
        assert check_source(params, tampered, samples=4) == []

    def test_unevaluable_subscript_reports_its_line(self):
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        tampered = source.replace("alm[kk * MWG + mm]", "alm[foo(kSizeM)]")
        line = next(i for i, ln in enumerate(tampered.splitlines(), 1)
                    if "foo(" in ln)
        findings = check_source(params, tampered, samples=4)
        parse = [d for d in findings if d.rule == "source.parse"]
        assert [d.witness["line"] for d in parse] == [line]
        assert parse[0].witness["buffer"] == "alm"

    def test_unevaluable_declaration_reports_its_line(self):
        params = make_params(shared_a=True, shared_b=True)
        source = emit_kernel_source(params)
        tampered = source.replace("alm[KWG * MWG];", "alm[foo(KWG)];")
        assert tampered != source
        line = next(i for i, ln in enumerate(tampered.splitlines(), 1)
                    if "foo(" in ln)
        findings = check_source(params, tampered, samples=4)
        assert [(d.rule, d.witness["line"]) for d in findings] == [
            ("source.parse", line)]

    def test_parse_error_reports_its_line(self):
        params = make_params()
        source = emit_kernel_source(params)
        lines = source.splitlines()
        lines.insert(len(lines) - 1, "  int @oops;")
        findings = check_source(params, "\n".join(lines), samples=4)
        assert [(d.rule, d.witness["line"]) for d in findings] == [
            ("source.parse", len(lines) - 1)]


class TestTamperedModels:
    """The race provers on directly corrupted shadow models."""

    def test_non_injective_staging_is_caught_with_two_witnesses(self):
        # (u, li) -> u * 2 + li over u in [0,1], li in [0,3]: collides
        # (u=1, li=0) with (u=0, li=2).
        kpart = LinearIndex.build(
            (("u", 2, 0, 1), ("li", 1, 0, 3)), 0)
        mpart = LinearIndex.build((("lj", 1, 0, 3),), 0)
        st = StagingMap(site="stage-a", buffer="alm", kpart=kpart,
                        mpart=mpart, k_extent=8, m_extent=4)
        model = KernelModel(
            params=make_params(), local_extents={"alm": 32},
            private_extents={}, flat=(), global_accesses=(),
            staging=(st,), phases=(), barrier_count=2)
        findings = check_staging(model)
        assert len(findings) == 1
        witness = findings[0].witness
        assert witness["first"] != witness["second"]
        assert kpart.value(witness["first"]) == kpart.value(witness["second"])

    def test_same_phase_write_read_is_caught(self):
        model = KernelModel(
            params=make_params(), local_extents={"alm": 32},
            private_extents={}, flat=(), global_accesses=(), staging=(),
            phases=(Phase("iter0", writes=("alm",), reads=("alm",)),),
            barrier_count=2)
        findings = check_phases(model)
        assert [d.rule for d in findings] == ["race.barrier-phase"]
        assert findings[0].witness["buffers"] == ["alm"]

    def test_missing_barrier_is_caught(self):
        model = KernelModel(
            params=make_params(), local_extents={"alm": 32},
            private_extents={}, flat=(), global_accesses=(), staging=(),
            phases=(), barrier_count=0)
        findings = check_phases(model)
        assert [d.rule for d in findings] == ["barrier.missing"]


class TestIntervals:
    def test_bounds_are_tight_and_witnessed(self):
        idx = LinearIndex.build((("a", 3, 0, 4), ("b", 1, 1, 2)), 5)
        assert idx.lo == 6
        assert idx.hi == 19
        assert idx.value(idx.witness_max()) == idx.hi
        assert idx.value(idx.witness_min()) == idx.lo

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            LinearIndex.build((("a", 1, 0, 1), ("a", 2, 0, 1)), 0)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Term("a", -1, 0, 1)
