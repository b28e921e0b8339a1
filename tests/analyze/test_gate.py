"""The three gate layers: tuner pruning, build-time analysis, serving.

The issue's acceptance criteria for the wiring: a gated ``repro tune``
evaluates strictly fewer candidates yet lands on the identical winner
per seed; rejections are counted per rule in :class:`TuningStats`, the
``--stats-json`` artifact, and the ``tuner_static_rejects_total{rule}``
metric; checkpoints of gated and ungated searches never cross-resume;
``Program.build`` refuses kernels whose shadow model fails analysis;
the dispatch table and the serving ladder refuse unsafe plans.
"""

import json

import numpy as np
import pytest

import repro.clsim as cl
from repro.cli import main
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.params import KernelParams
from repro.errors import BuildError, ReproError
from repro.gemm.dispatch import KernelSelector
from repro.obs import Observability
from repro.serve import GemmService
from repro.tuner.pretuned import PRETUNED, pretuned_params
from repro.tuner.search import SearchEngine, TuningConfig

QUICK = TuningConfig(budget=250, verify_finalists=1, top_k=8)

#: The tahiti/d pretuned vector: a PL kernel with 64 KiB-class tiles,
#: statically rejected on bulldozer (local memory and the PL-DGEMM
#: launch quirk) — the cross-device misconfiguration scenario.
TAHITI_D = KernelParams.from_dict(PRETUNED[("tahiti", "d")])


class TestGatedSearch:
    def test_same_winner_fewer_evaluations(self, bulldozer):
        ungated = SearchEngine(bulldozer, "d", QUICK, static_gate=False)
        gated = SearchEngine(bulldozer, "d", QUICK, static_gate=True)
        best_un = ungated.run().best
        best_ga = gated.run().best

        assert best_ga.params == best_un.params
        assert best_ga.gflops == best_un.gflops

        sim_failures = (ungated.stats.failed_generation
                        + ungated.stats.failed_build
                        + ungated.stats.failed_launch)
        assert sim_failures > 0
        # Gated: every simulator-failing candidate is pruned statically
        # instead of evaluated — nothing slips through, nothing extra.
        assert gated.stats.static_rejects == sim_failures
        assert (gated.stats.failed_generation + gated.stats.failed_build
                + gated.stats.failed_launch) == 0
        assert gated.stats.measured == ungated.stats.measured
        assert sum(gated.stats.static_rejects_by_rule.values()) \
            == gated.stats.static_rejects

    def test_ungated_engine_counts_nothing(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK, static_gate=False)
        engine.run()
        assert engine.stats.static_rejects == 0
        assert engine.stats.static_rejects_by_rule == {}

    def test_static_rejects_count_as_pruned(self, bulldozer):
        engine = SearchEngine(bulldozer, "d", QUICK)
        engine.run()
        assert engine.stats.static_rejects > 0
        assert engine.stats.pruned >= engine.stats.static_rejects

    def test_metric_mirror_tracks_rules(self, bulldozer):
        obs = Observability(seed=0)
        engine = SearchEngine(bulldozer, "d", QUICK, obs=obs)
        engine.run()
        snapshot = obs.metrics.snapshot()
        (metric,) = [m for m in snapshot["metrics"]
                     if m["name"] == "tuner_static_rejects_total"]
        assert metric["labelnames"] == ["rule"]
        by_rule = {s["labels"]["rule"]: s["value"] for s in metric["series"]}
        assert by_rule == {
            rule: float(count)
            for rule, count in engine.stats.static_rejects_by_rule.items()
        }

    def test_stats_round_trip_preserves_rule_counts(self, bulldozer):
        from repro.tuner.search import TuningStats

        engine = SearchEngine(bulldozer, "d", QUICK)
        engine.run()
        restored = TuningStats.from_dict(engine.stats.as_dict())
        assert restored.static_rejects == engine.stats.static_rejects
        assert (restored.static_rejects_by_rule
                == engine.stats.static_rejects_by_rule)


class TestCheckpointSeparation:
    def test_fingerprints_distinguish_gated_from_ungated(self, tahiti):
        gated = SearchEngine(tahiti, "d", QUICK, static_gate=True)
        ungated = SearchEngine(tahiti, "d", QUICK, static_gate=False)
        again = SearchEngine(tahiti, "d", QUICK, static_gate=True)
        assert gated._fingerprint() != ungated._fingerprint()
        assert gated._fingerprint() == again._fingerprint()

    def test_gated_checkpoint_refuses_ungated_resume(self, bulldozer,
                                                     tmp_path):
        from repro.errors import SearchInterrupted

        path = str(tmp_path / "ckpt.json")
        engine = SearchEngine(bulldozer, "d", QUICK, checkpoint_path=path,
                              checkpoint_every=40, static_gate=True)
        engine.abort_after = 120
        with pytest.raises(SearchInterrupted):
            engine.run()

        mismatched = SearchEngine(bulldozer, "d", QUICK, checkpoint_path=path,
                                  resume=True, static_gate=False)
        assert mismatched._load_checkpoint() is None
        matched = SearchEngine(bulldozer, "d", QUICK, checkpoint_path=path,
                               resume=True, static_gate=True)
        assert matched._load_checkpoint() is not None


class TestBuildTimeAnalysis:
    def test_clean_build_logs_the_analysis(self, tahiti):
        source = emit_kernel_source(pretuned_params("tahiti", "d"))
        ctx = cl.Context([cl.get_device("tahiti")])
        program = cl.Program(ctx, source).build()
        assert "static analysis: clean" in program.build_log

    def test_corrupted_model_fails_the_build(self, tahiti):
        from repro.clsim import program as program_mod

        params = pretuned_params("tahiti", "d")
        source = emit_kernel_source(params)
        ctx = cl.Context([cl.get_device("tahiti")])
        key = params.cache_key()
        # Inject a failing verdict into the memo, simulating an analysis
        # failure without corrupting the generator itself.
        saved = program_mod._ANALYSIS_VERDICTS.get(key)
        program_mod._ANALYSIS_VERDICTS[key] = (
            "[ERROR] bounds.local-read: injected for test",
        )
        try:
            with pytest.raises(BuildError, match="static analysis failed"):
                cl.Program(ctx, source).build()
        finally:
            if saved is None:
                program_mod._ANALYSIS_VERDICTS.pop(key, None)
            else:
                program_mod._ANALYSIS_VERDICTS[key] = saved
        # The memo restored, the same source builds clean again.
        cl.Program(ctx, source).build()


class TestDispatchRefusal:
    def test_unsafe_candidates_fall_back_to_pretuned(self):
        selector = KernelSelector("bulldozer", [TAHITI_D])
        assert any("rejected by static analysis" in d
                   for d in selector.degradations)
        safe = pretuned_params("bulldozer", "d")
        assert all(entry.params == safe for entry in selector.table
                   if not entry.direct)

    def test_mixed_candidates_keep_only_safe_ones(self):
        safe = pretuned_params("bulldozer", "d")
        selector = KernelSelector("bulldozer", [safe, TAHITI_D])
        kept = {entry.params.summary() for entry in selector.table}
        assert TAHITI_D.summary() not in kept
        rejected = [d for d in selector.degradations
                    if "rejected by static analysis" in d]
        assert len(rejected) == 1

    def test_loaded_table_is_reproven(self, tmp_path):
        selector = KernelSelector("tahiti", [pretuned_params("tahiti", "d")])
        path = str(tmp_path / "table.json")
        selector.save(path)
        # A device-spec change after saving: the same table, claimed for
        # bulldozer, must be re-proven row by row on load.
        payload = json.loads(open(path).read())
        payload["device"] = "bulldozer"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ReproError):
            KernelSelector.load(path)

    def test_loaded_safe_table_survives(self, tmp_path):
        selector = KernelSelector("tahiti", [pretuned_params("tahiti", "d")])
        path = str(tmp_path / "table.json")
        selector.save(path)
        loaded = KernelSelector.load(path)
        assert len(loaded.table) == len(selector.table)
        assert loaded.degradations == []


class TestServingRefusal:
    def test_unsafe_rungs_are_skipped_with_incidents(self, rng):
        service = GemmService("bulldozer", "d",
                              params={"bulldozer": TAHITI_D})
        incidents = service.log.by_kind("static_reject")
        assert incidents, "construction-time verification logged nothing"
        assert all(i.request_id == -1 for i in incidents)
        assert service.counters.static_rejects == len(incidents)
        assert any("device." in i.detail for i in incidents)

        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((32, 40))
        result = service.submit(a, b)
        assert result.degraded
        assert result.rung not in ("tuned", "direct")

    def test_safe_service_logs_no_static_incidents(self, rng):
        service = GemmService("tahiti", "d")
        assert service.log.by_kind("static_reject") == []
        assert service.counters.static_rejects == 0
        result = service.submit(rng.standard_normal((48, 32)),
                                rng.standard_normal((32, 40)))
        assert result.rung == "tuned"


class TestCli:
    def test_tune_stats_json_counts_static_rejects(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        rc = main(["tune", "bulldozer", "--budget", "250",
                   "--stats-json", str(stats_path)])
        assert rc == 0
        stats = json.loads(stats_path.read_text())
        assert stats["static_rejects"] > 0
        assert stats["static_rejects_by_rule"]
        assert sum(stats["static_rejects_by_rule"].values()) \
            == stats["static_rejects"]

    def test_tune_no_static_gate_flag(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        rc = main(["tune", "bulldozer", "--budget", "250",
                   "--no-static-gate", "--stats-json", str(stats_path)])
        assert rc == 0
        stats = json.loads(stats_path.read_text())
        assert stats["static_rejects"] == 0
        assert stats["failed_launch"] > 0

    def test_analyze_catalog_clean(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--catalog", "--samples", "8",
                   "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-analyze/1"
        assert payload["clean"] == payload["total"] > 0
        assert "subjects clean" in capsys.readouterr().out

    def test_analyze_bad_vector_fails_with_witness(self, capsys):
        raw = dict(PRETUNED[("tahiti", "d")])
        raw["mdimc"] = 7
        rc = main(["analyze", "--params", json.dumps(raw)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "param.mwg-mdimc" in out

    @pytest.mark.parametrize("change", [{"shared_a": "no"}, {"bogus": 1}],
                             ids=["non-bool-flag", "unknown-key"])
    def test_analyze_rejects_what_construction_rejects(self, change, capsys):
        raw = dict(PRETUNED[("tahiti", "d")], **change)
        rc = main(["analyze", "--params", json.dumps(raw)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "param.fields" in out and "CLEAN" not in out

    def test_analyze_params_must_be_an_object(self, capsys):
        rc = main(["analyze", "--params", "[1, 2]"])
        assert rc == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_analyze_params_from_file(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(PRETUNED[("tahiti", "d")])))
        rc = main(["analyze", "tahiti", "--params", f"@{path}",
                   "--samples", "8"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_space_sample(self, capsys):
        rc = main(["analyze", "kepler", "--space", "--sample", "20",
                   "--precision", "s", "--samples", "8"])
        assert rc == 0
        assert "20/20 subjects clean" in capsys.readouterr().out

    def test_analyze_requires_a_subject(self, capsys):
        rc = main(["analyze"])
        assert rc == 2

    def test_analyze_device_mode_appends_static_report(self, capsys):
        rc = main(["analyze", "tahiti"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roofline" in out.lower() or "GFLOPS" in out
        assert "clean" in out
