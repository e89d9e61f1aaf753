"""Tests for the benchmark regression trajectory (repro.bench.regression)."""

import copy
import json
import os

import pytest

from repro.bench import (
    compare_snapshots,
    format_snapshot,
    latest_snapshot,
    run_bench,
    validate_snapshot,
    write_snapshot,
)


@pytest.fixture(scope="module")
def snapshot(quick_bench):
    return quick_bench[0]


class TestRunBench:
    def test_snapshot_layout(self, snapshot):
        validate_snapshot(snapshot)  # does not raise
        assert snapshot["quick"] is True
        assert set(snapshot["scenarios"]) == {
            "fig7_throughput", "sensors_throughput", "batched_throughput",
            "kleene_throughput", "skewed_throughput", "shifted_throughput",
            "adaptation_recall", "recall_latency_frontier", "fig8_latency",
        }
        fig7 = snapshot["scenarios"]["fig7_throughput"]["strategies"]
        assert set(fig7) == {
            "sequential", "hypersonic", "state", "rip", "llsf",
        }
        for cell in fig7.values():
            assert cell["throughput"] > 0
            assert cell["matches"] > 0  # quick scale must not be degenerate
        # HYPERSONIC runs are calibrated against their own alloc plan.
        hyp = fig7["hypersonic"]
        assert hyp["calibration_error"] is not None
        assert hyp["calibration_verdict"] in ("calibrated", "drifted")
        assert fig7["sequential"]["calibration_error"] is None
        fig8 = snapshot["scenarios"]["fig8_latency"]
        assert fig8["pace"] > 0
        for cell in fig8["strategies"].values():
            assert cell["p50_latency"] > 0

    def test_batched_scenario_pins_the_speedup_pair(self, snapshot):
        batched = snapshot["scenarios"]["batched_throughput"]
        assert batched["batch_size"] > 1
        strategies = batched["strategies"]
        assert set(strategies) == {"hypersonic", "hypersonic_batched"}
        scalar = strategies["hypersonic"]
        batched = strategies["hypersonic_batched"]
        # Identical detection.  Every batched item takes the per-item join
        # path at the full comparison cost, so this scenario's batched row
        # must not read faster than batch 1 beyond a 10% margin.
        assert batched["matches"] == scalar["matches"] > 0
        assert batched["throughput"] <= scalar["throughput"] * 1.10

    def test_variant_scenarios_not_degenerate(self, snapshot):
        for name in ("skewed_throughput", "shifted_throughput"):
            scenario = snapshot["scenarios"][name]
            assert set(scenario["strategies"]) == {
                "sequential", "hypersonic", "state", "rip", "llsf",
            }
            counts = set()
            for cell in scenario["strategies"].values():
                assert cell["throughput"] > 0
                assert cell["matches"] > 0
                counts.add(cell["matches"])
            assert len(counts) == 1  # agreement across strategies

    def test_adaptation_scenario_pins_recall_domination(self, snapshot):
        adapt = snapshot["scenarios"]["adaptation_recall"]
        assert adapt["pace"] > 0
        assert adapt["shed_bound"] > 0
        strategies = adapt["strategies"]
        assert set(strategies) == {"reference", "static_shed", "adaptive"}
        reference = strategies["reference"]
        static = strategies["static_shed"]
        adaptive = strategies["adaptive"]
        assert reference["matches"] == adapt["reference_matches"] > 0
        assert reference["recall"] == pytest.approx(1.0)
        assert reference["shed_total"] == 0
        # The overload genuinely sheds, and the control plane's
        # pattern-aware shedding strictly dominates blind tail-drop at the
        # same unit budget (run_bench raises otherwise; pinned here too).
        assert static["shed_total"] > 0
        assert adaptive["matches"] > static["matches"]
        assert adaptive["recall"] > static["recall"]

    def test_frontier_scenario_sweeps_bounds_monotonically(self, snapshot):
        from repro.bench.regression import SNAPSHOT_SCHEMA

        assert snapshot["schema"] == SNAPSHOT_SCHEMA == 6
        frontier = snapshot["scenarios"]["recall_latency_frontier"]
        assert frontier["reference_matches"] > 0
        bounds = frontier["bounds"]
        assert bounds == sorted(bounds) and len(bounds) >= 3
        cells = [frontier["strategies"][f"bound_{b}"] for b in bounds]
        for bound, cell in zip(bounds, cells):
            assert cell["shed_bound"] == bound
            assert cell["p95_latency"] >= 0
            assert 0.0 <= cell["recall"] <= 1.0
        # The frontier's defining invariant, asserted by run_bench itself:
        # loosening the bound never loses matches.
        matches = [cell["matches"] for cell in cells]
        assert matches == sorted(matches)
        recalls = [cell["recall"] for cell in cells]
        assert recalls == sorted(recalls)
        # The sweep spans a real trade-off at quick scale: the tightest
        # bound genuinely sheds.
        assert cells[0]["shed_total"] > 0

    def test_sensors_scenario_not_degenerate(self, snapshot):
        sensors = snapshot["scenarios"]["sensors_throughput"]
        assert sensors["dataset"] == "sensors"
        assert set(sensors["strategies"]) == {
            "sequential", "hypersonic", "state", "rip", "llsf",
        }
        counts = set()
        for cell in sensors["strategies"].values():
            assert cell["throughput"] > 0
            assert cell["matches"] > 0
            counts.add(cell["matches"])
        assert len(counts) == 1  # every strategy found the same matches

    def test_kleene_scenario_pins_the_closure_path(self, snapshot):
        kleene = snapshot["scenarios"]["kleene_throughput"]
        assert kleene["dataset"] == "trips"
        assert kleene["template"] == "kleene"
        assert set(kleene["strategies"]) == {
            "sequential", "hypersonic", "state", "rip", "llsf",
        }
        counts = set()
        for cell in kleene["strategies"].values():
            assert cell["throughput"] > 0
            assert cell["matches"] > 0
            counts.add(cell["matches"])
        assert len(counts) == 1  # the differential gate across strategies
        # The recorded length distribution describes exactly the benched
        # match set, and the closure genuinely produces long bindings.
        lengths = kleene["kleene_lengths"]
        assert sum(lengths.values()) == counts.pop()
        assert all(int(key) >= 1 and count > 0
                   for key, count in lengths.items())
        assert max(int(key) for key in lengths) >= 3

    def test_identical_rerun_is_bit_identical_and_compares_clean(
        self, snapshot
    ):
        again = run_bench(quick=True, date="2026-01-01")
        assert again == snapshot
        report = compare_snapshots(snapshot, again)
        assert report["ok"] is True
        assert report["regressions"] == []
        assert report["improvements"] == []
        # 5 fig7 + 5 sensors + 2 batched + 5 kleene + 5 skewed
        # + 5 shifted + 3 adaptation + 4 frontier + 4 fig8 cells
        assert report["compared"] == 38
        assert report["skipped"] == []

    def test_tuned_parameters_add_a_row_per_throughput_scenario(self):
        from repro.costmodel import CostParameters

        tuned = CostParameters(lock=0.3, cache_penalty=0.05)
        snap = run_bench(quick=True, date="2026-01-01",
                         tuned_parameters=tuned)
        validate_snapshot(snap)
        assert snap["tuned_parameters"] == tuned.as_dict()
        for name in ("fig7_throughput", "sensors_throughput"):
            strategies = snap["scenarios"][name]["strategies"]
            assert "hypersonic_tuned" in strategies
            # Tuning re-plans but never changes which matches are found.
            assert (strategies["hypersonic_tuned"]["matches"]
                    == strategies["hypersonic"]["matches"])
        assert "hypersonic_tuned" not in (
            snap["scenarios"]["fig8_latency"]["strategies"]
        )

    def test_registry_population(self, quick_bench):
        dump = quick_bench[1].to_json()
        strategies = {s["labels"]["strategy"]
                      for s in dump["sim_total_time"]["series"]}
        assert "hypersonic" in strategies and "sequential" in strategies

    def test_snapshot_is_json_serialisable(self, snapshot):
        json.dumps(snapshot)


class TestCompare:
    def test_synthetic_throughput_drop_flagged(self, snapshot):
        degraded = copy.deepcopy(snapshot)
        cell = degraded["scenarios"]["fig7_throughput"]["strategies"][
            "hypersonic"
        ]
        cell["throughput"] *= 0.8  # a 20% drop, beyond the 15% threshold
        report = compare_snapshots(snapshot, degraded)
        assert report["ok"] is False
        assert len(report["regressions"]) == 1
        regression = report["regressions"][0]
        assert regression["scenario"] == "fig7_throughput"
        assert regression["strategy"] == "hypersonic"
        assert regression["metric"] == "throughput"
        assert regression["change"] == pytest.approx(-0.2)

    def test_drop_within_threshold_passes(self, snapshot):
        degraded = copy.deepcopy(snapshot)
        for scenario in degraded["scenarios"].values():
            for cell in scenario["strategies"].values():
                cell["throughput"] *= 0.9  # 10% < 15% threshold
        assert compare_snapshots(snapshot, degraded)["ok"] is True

    def test_match_count_change_is_a_regression(self, snapshot):
        wrong = copy.deepcopy(snapshot)
        wrong["scenarios"]["fig8_latency"]["strategies"]["rip"][
            "matches"
        ] += 1
        report = compare_snapshots(snapshot, wrong)
        assert report["ok"] is False
        assert report["regressions"][0]["metric"] == "matches"

    def test_improvement_reported_without_failing(self, snapshot):
        better = copy.deepcopy(snapshot)
        better["scenarios"]["fig7_throughput"]["strategies"]["rip"][
            "throughput"
        ] *= 1.5
        report = compare_snapshots(snapshot, better)
        assert report["ok"] is True
        assert len(report["improvements"]) == 1

    def test_mode_mismatch_skips_comparison(self, snapshot):
        full = copy.deepcopy(snapshot)
        full["quick"] = False
        report = compare_snapshots(snapshot, full)
        assert report["ok"] is True
        assert report["compared"] == 0
        assert report["skipped"]

    def test_seed_mismatch_skips_comparison(self, snapshot):
        other = copy.deepcopy(snapshot)
        other["seed"] = snapshot["seed"] + 1
        assert compare_snapshots(snapshot, other)["compared"] == 0

    def test_missing_baseline_cells_are_skipped(self, snapshot):
        partial = copy.deepcopy(snapshot)
        del partial["scenarios"]["fig8_latency"]
        del partial["scenarios"]["fig7_throughput"]["strategies"]["llsf"]
        report = compare_snapshots(partial, snapshot)
        # All cells minus the dropped fig8 scenario (4) and llsf cell (1).
        assert report["compared"] == 33
        assert len(report["skipped"]) == 2

    def test_schema_1_baseline_compares_shared_scenarios(self, snapshot):
        """A pre-sensors (schema 1) baseline stays comparable: the shared
        scenarios are compared and the new dataset is noted as skipped."""
        old = copy.deepcopy(snapshot)
        old["schema"] = 1
        del old["scenarios"]["sensors_throughput"]
        validate_snapshot(old)  # still a valid snapshot
        report = compare_snapshots(old, snapshot)
        assert report["ok"] is True
        # All cells minus the 5 sensors ones (skipped: no baseline).
        assert report["compared"] == 33
        assert any("schema 1" in note for note in report["skipped"])
        assert any("sensors_throughput" in note
                   for note in report["skipped"])


class TestValidate:
    def test_rejects_bad_layouts(self, snapshot):
        for mutate in (
            lambda s: s.update(schema=99),
            lambda s: s.update(kind="other"),
            lambda s: s.update(quick="yes"),
            lambda s: s.update(scenarios={}),
            lambda s: s["scenarios"]["fig7_throughput"].update(strategies={}),
            lambda s: s["scenarios"]["fig7_throughput"]["strategies"][
                "rip"
            ].update(throughput=-1.0),
            lambda s: s["scenarios"]["fig7_throughput"]["strategies"][
                "rip"
            ].update(matches=1.5),
            lambda s: s["scenarios"]["fig8_latency"]["strategies"][
                "rip"
            ].update(calibration_error="big"),
        ):
            broken = copy.deepcopy(snapshot)
            mutate(broken)
            with pytest.raises(ValueError, match="invalid bench snapshot"):
                validate_snapshot(broken)

    def test_format_snapshot_renders(self, snapshot):
        text = format_snapshot(snapshot)
        assert "bench snapshot 2026-01-01" in text
        assert "fig7_throughput" in text
        assert "hypersonic" in text


class TestSnapshotFiles:
    def test_write_suffixes_instead_of_overwriting(self, snapshot, tmp_path):
        first = write_snapshot(snapshot, str(tmp_path))
        second = write_snapshot(snapshot, str(tmp_path))
        assert first.endswith("BENCH_2026-01-01.json")
        assert second.endswith("BENCH_2026-01-01.1.json")
        assert json.loads(open(first).read()) == snapshot

    def test_latest_snapshot_mtime_order_and_exclude(self, snapshot, tmp_path):
        assert latest_snapshot(str(tmp_path)) is None
        first = write_snapshot(snapshot, str(tmp_path))
        os.utime(first, (1_000_000, 1_000_000))
        second = write_snapshot(snapshot, str(tmp_path))
        assert latest_snapshot(str(tmp_path)) == second
        assert latest_snapshot(str(tmp_path), exclude=second) == first
        (tmp_path / "notes.json").write_text("{}")  # ignored: no BENCH_ prefix
        assert latest_snapshot(str(tmp_path), exclude=second) == first

    def test_latest_snapshot_reads_names_when_mtimes_tie(self, snapshot,
                                                         tmp_path):
        # A git checkout gives every committed snapshot one mtime; the
        # date and .N suffix in the name must decide, numerically.
        paths = [write_snapshot(snapshot, str(tmp_path)) for _ in range(11)]
        later = dict(snapshot, date="2026-01-02")
        newest = write_snapshot(later, str(tmp_path))
        undated = tmp_path / "BENCH_manual.json"
        undated.write_text("{}")
        for path in [*paths, newest, str(undated)]:
            os.utime(path, (1_000_000, 1_000_000))
        assert paths[-1].endswith("BENCH_2026-01-01.10.json")
        assert latest_snapshot(str(tmp_path)) == newest
        assert latest_snapshot(str(tmp_path), exclude=newest) == paths[-1]
        for path in [*paths, newest]:
            os.remove(path)
        assert latest_snapshot(str(tmp_path)) == str(undated)


class TestCliBench:
    def run_cli(self, args):
        from repro.cli import main

        return main(["bench", "--quick", *args])

    def test_record_then_identical_rerun_passes(self, tmp_path, capsys,
                                                fake_run_bench):
        code = self.run_cli(["--record", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no previous snapshot" in out
        assert (tmp_path / "BENCH_2026-08-06.json").exists() or any(
            p.name.startswith("BENCH_") for p in tmp_path.iterdir()
        )
        code = self.run_cli(["--record", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "regression check passed" in out
        assert [call["quick"] for call in fake_run_bench] == [True, True]

    def test_regression_fails_unless_warn_only(self, snapshot, tmp_path,
                                               capsys, fake_run_bench):
        # Seed the trajectory with a doctored "previous" snapshot whose
        # throughputs are double what the deterministic quick bench
        # produces — the fresh run must look like a uniform 50% drop.
        inflated = copy.deepcopy(snapshot)
        for scenario in inflated["scenarios"].values():
            for cell in scenario["strategies"].values():
                cell["throughput"] *= 2.0
        write_snapshot(inflated, str(tmp_path))
        code = self.run_cli(["--dir", str(tmp_path),
                             "--seed", str(snapshot["seed"])])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        code = self.run_cli(["--dir", str(tmp_path), "--warn-only",
                             "--seed", str(snapshot["seed"])])
        assert code == 0
        assert "REGRESSION" in capsys.readouterr().out
        assert [call["seed"] for call in fake_run_bench] == [snapshot["seed"]] * 2

    def test_metrics_out(self, tmp_path, fake_run_bench):
        metrics = tmp_path / "bench_metrics.prom"
        code = self.run_cli(["--dir", str(tmp_path),
                             "--metrics-out", str(metrics)])
        assert code == 0
        text = metrics.read_text(encoding="utf-8")
        assert "# TYPE sim_total_time gauge" in text
        assert 'strategy="hypersonic"' in text
