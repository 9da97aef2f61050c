//! Grouped scheduling is unobservable: running the rows of a shape group
//! back to back, interpreting each distinct program once and replaying
//! it for the group's other models, yields exactly the artifact that
//! uncached per-row measurement yields, at any thread count — and a
//! failing row stays an error row with the error it has alone.

use overlap_suite::sweep::{
    cache, measure, run_scenario, run_specs, run_sweep, summarize, ModelSpec, RunStatus,
    ScenarioSpec, SizeClass, SweepGrid, SweepRecord, SweepResult, Variant,
};

fn strip_wall(mut records: Vec<SweepRecord>) -> Vec<SweepRecord> {
    for r in &mut records {
        r.wall_ms = 0.0;
    }
    records
}

/// The record a lone, uncached [`measure`] call gives for `spec`.
fn measured(spec: &ScenarioSpec) -> SweepRecord {
    let w = (workloads::find(&spec.workload).unwrap().make)(spec.size, spec.np);
    let m = measure(&*w, spec.np, &spec.model.to_model(), spec.tile_size);
    SweepRecord {
        spec: spec.clone(),
        status: RunStatus::Ok,
        tile_size: m.tile_size,
        strategy: m.strategy.clone(),
        orig_ns: Some(m.orig.as_ns()),
        prepush_ns: Some(m.prepush.as_ns()),
        orig_exposed_ns: Some(m.orig_exposed.as_ns()),
        prepush_exposed_ns: Some(m.prepush_exposed.as_ns()),
        speedup: Some(m.speedup()),
        input_hash: cache::scenario_input_hash(spec),
        wall_ms: 0.0,
    }
}

#[test]
fn grouped_replay_matches_uncached_measurement_at_any_thread_count() {
    let grid = SweepGrid::new()
        .workloads(workloads::registry().iter().map(|e| e.name))
        .size(SizeClass::Small)
        .nps([2, 4])
        .models(
            ["mpich", "mpich-gm", "congested:2:3", "hetero:half-slow"]
                .map(|m| ModelSpec::parse(m).unwrap()),
        )
        .tile_sizes([None, Some(1)]);
    let reference: Vec<SweepRecord> = grid.expand().iter().map(measured).collect();
    let want = SweepResult {
        summary: summarize(&reference, 0.0),
        records: reference,
        timing: None,
    };
    for threads in [1usize, 2, 3] {
        let result = run_sweep(&grid, threads);
        let got = result.normalized();
        for (got, want) in got.records.iter().zip(&want.records) {
            assert_eq!(got, want, "threads={threads}: {}", want.spec.key());
        }
        assert_eq!(got, want, "threads={threads}");
        // Every row simulated two programs; most were replays.
        let t = result.timing.unwrap();
        assert_eq!(t.full_runs + t.replayed_runs, 2 * want.records.len() as u64);
        let (full, replayed) = (t.full_runs, t.replayed_runs);
        assert!(replayed > full, "{full} full, {replayed} replayed");
    }
}

/// An error string with its rank number masked: which rank reports an
/// overflow inside a collective is whichever arrived last, host-order
/// dependent in a lone run as much as in a group.
fn masked(error: &str) -> String {
    let mut out = String::new();
    let mut rest = error;
    while let Some(at) = rest.find("rank ") {
        out.push_str(&rest[..at + 5]);
        rest = rest[at + 5..].trim_start_matches(|c: char| c.is_ascii_digit());
        out.push('N');
    }
    out.push_str(rest);
    out
}

#[test]
fn a_failing_row_leaves_its_group_siblings_ok() {
    let spec = |np: usize, model: &str, variant: Variant| ScenarioSpec {
        workload: "direct2d".into(),
        size: SizeClass::Small,
        np,
        model: ModelSpec::parse(model).unwrap(),
        tile_size: None,
        variant,
    };
    // A per-byte CPU cost that overflows the virtual clock: the row fails
    // whether it runs in full or replays a sibling's recording.
    let bad = "mpich-beta:1e300";
    let specs = vec![
        // np=4: the failing rows replay recordings their siblings made.
        spec(4, "mpich", Variant::Compare),
        spec(4, bad, Variant::Compare),
        spec(4, "mpich-gm", Variant::Original),
        spec(4, bad, Variant::Prepush),
        spec(4, "hetero:half-slow", Variant::Compare),
        // np=2: the failing row runs first, so nothing is recorded for it.
        spec(2, bad, Variant::Compare),
        spec(2, "mpich", Variant::Compare),
        spec(2, "congested:2:3", Variant::Compare),
    ];
    let failing = [1usize, 3, 5];
    let lone = strip_wall(specs.iter().map(run_scenario).collect());
    for threads in [1usize, 2] {
        let grouped = strip_wall(run_specs(&specs, threads));
        for (i, (got, want)) in grouped.iter().zip(&lone).enumerate() {
            if failing.contains(&i) {
                let (got, want) = (got.error().unwrap(), want.error().unwrap());
                assert!(got.contains("SimTime overflow"), "{got}");
                assert_eq!(masked(got), masked(want), "threads={threads} row {i}");
            } else {
                assert!(got.is_ok(), "threads={threads} row {i}: {:?}", got.error());
                assert_eq!(got, want, "threads={threads} row {i}");
            }
        }
    }
}
