//! Figure 1's *shape*, asserted: on communication-significant workloads,
//! pre-pushing reduces execution time under both network models, the
//! absolute times order as MPICH > MPICH-GM, and the exposed
//! communication collapses on the RDMA-capable model. Absolute magnitudes
//! are simulator artifacts; these tests pin only the orderings the paper's
//! argument depends on (DESIGN.md §2).

use compuniformer::{transform, Options, UserOracle};
use interp::run_program;
use overlap_suite::prelude::*;
use workloads::Workload;

struct Timing {
    orig_ns: u64,
    pre_ns: u64,
    orig_exposed_ns: u64,
    pre_exposed_ns: u64,
}

fn time_workload(w: &dyn Workload, np: usize, model: &clustersim::NetworkModel) -> Timing {
    let program = w.program();
    let opts = Options {
        context: w.context(),
        oracle: UserOracle::AssumeSafe,
        kselect_model: compuniformer::kselect::ModelCaps {
            overhead_ns: Some(model.overhead.as_ns() as f64),
            cpu_ns_per_byte: Some(model.cpu_send_ns_per_byte),
            wire_ns_per_byte: Some(model.gap_ns_per_byte),
            latency_ns: Some(model.latency.as_ns() as f64),
            conservative: false,
        },
        // These tests pin the timing shape of *transformed* programs —
        // including the congestion case the K-selection predictor would
        // (rightly) decline in production.
        apply_even_if_unprofitable: true,
        ..Default::default()
    };
    let out = transform(&program, &opts).expect("workload transforms");
    let base = run_program(&program, np, model).expect("original runs");
    let pre = run_program(&out.program, np, model).expect("transformed runs");
    Timing {
        orig_ns: base.report.makespan().as_ns(),
        pre_ns: pre.report.makespan().as_ns(),
        orig_exposed_ns: base.report.max_exposed_comm().as_ns(),
        pre_exposed_ns: pre.report.max_exposed_comm().as_ns(),
    }
}

fn assert_prepush_wins(w: &dyn Workload, np: usize) {
    let tcp = time_workload(w, np, &clustersim::NetworkModel::mpich());
    let gm = time_workload(w, np, &clustersim::NetworkModel::mpich_gm());

    // Pre-push strictly helps on both stacks for all-peers workloads.
    assert!(
        tcp.pre_ns < tcp.orig_ns,
        "{}: MPICH prepush {} !< orig {}",
        w.name(),
        tcp.pre_ns,
        tcp.orig_ns
    );
    assert!(
        gm.pre_ns < gm.orig_ns,
        "{}: GM prepush {} !< orig {}",
        w.name(),
        gm.pre_ns,
        gm.orig_ns
    );
    // The interconnects order as expected.
    assert!(
        gm.orig_ns < tcp.orig_ns,
        "{}: GM orig should beat MPICH orig",
        w.name()
    );
    // RDMA hides most exposed communication; TCP cannot (per-byte CPU).
    assert!(
        gm.pre_exposed_ns * 2 < gm.orig_exposed_ns,
        "{}: GM exposed comm not halved: {} vs {}",
        w.name(),
        gm.pre_exposed_ns,
        gm.orig_exposed_ns
    );
    let _ = tcp.orig_exposed_ns;
}

#[test]
fn direct2d_prepush_wins_both_models() {
    assert_prepush_wins(&workloads::direct2d::Direct2d::standard(8), 8);
}

#[test]
fn fft_prepush_wins_both_models() {
    assert_prepush_wins(&workloads::fft::FftTranspose::standard(8), 8);
}

#[test]
fn adi_prepush_wins_both_models() {
    assert_prepush_wins(&workloads::adi::AdiStencil::standard(8), 8);
}

#[test]
fn indirect_prepush_wins_on_gm() {
    let w = workloads::indirect::Indirect2d::standard(8);
    let gm = time_workload(&w, 8, &clustersim::NetworkModel::mpich_gm());
    assert!(
        gm.pre_ns < gm.orig_ns,
        "indirect: GM prepush {} !< orig {}",
        gm.pre_ns,
        gm.orig_ns
    );
}

#[test]
fn owner_strategy_shows_congestion_on_tcp() {
    // The paper §3.5: sending to "a subset of the nodes during each tile …
    // is not as efficient as network congestion may ensue". The rank-1
    // owner strategy funnels every tile into one receiver NIC; under the
    // bandwidth-poor TCP model this costs more than the original
    // alltoall's symmetric exchange. The reproduction preserves (rather
    // than hides) that effect.
    let w = workloads::direct::Direct1d::standard(8);
    let tcp = time_workload(&w, 8, &clustersim::NetworkModel::mpich());
    assert!(
        tcp.pre_ns > tcp.orig_ns,
        "expected congestion to hurt the owner strategy under MPICH: {} vs {}",
        tcp.pre_ns,
        tcp.orig_ns
    );
}

#[test]
fn gm_gains_more_than_tcp_relative() {
    // Figure 1's headline: the RDMA stack converts overlap into speedup
    // far better than the CPU-bound TCP stack. Compare *relative* gains.
    let w = workloads::direct2d::Direct2d::standard(8);
    let tcp = time_workload(&w, 8, &clustersim::NetworkModel::mpich());
    let gm = time_workload(&w, 8, &clustersim::NetworkModel::mpich_gm());
    let tcp_gain = tcp.orig_ns as f64 / tcp.pre_ns as f64;
    let gm_gain = gm.orig_ns as f64 / gm.pre_ns as f64;
    // GM's *exposed-communication* reduction must dominate TCP's.
    let tcp_exposed_cut = tcp.orig_exposed_ns as f64 / tcp.pre_exposed_ns.max(1) as f64;
    let gm_exposed_cut = gm.orig_exposed_ns as f64 / gm.pre_exposed_ns.max(1) as f64;
    assert!(
        gm_exposed_cut > tcp_exposed_cut,
        "GM exposed-comm cut {gm_exposed_cut:.2} !> TCP {tcp_exposed_cut:.2} \
         (gains: GM {gm_gain:.2}x, TCP {tcp_gain:.2}x)"
    );
}

#[test]
fn deterministic_timings() {
    let w = workloads::direct2d::Direct2d::small(4);
    let a = time_workload(&w, 4, &clustersim::NetworkModel::mpich_gm());
    let b = time_workload(&w, 4, &clustersim::NetworkModel::mpich_gm());
    assert_eq!(a.orig_ns, b.orig_ns);
    assert_eq!(a.pre_ns, b.pre_ns);
}

/// The `--wall-out` artifact's `timing` section counts how each program
/// simulation ran: the quick grid's two models per shape mean every
/// program is interpreted once and replayed once. The counts live only
/// in the timing section; the normalized artifact never carries them.
#[test]
fn wall_out_timing_counts_full_and_replayed_runs() {
    use overlap_suite::sweep::{json, run_sweep, SweepGrid};
    let result = run_sweep(&SweepGrid::quick(), 1);
    let t = result.timing.as_ref().unwrap();
    assert!(t.replayed_runs > 0, "quick grid must replay");
    assert_eq!(t.full_runs + t.replayed_runs, 2 * result.records.len() as u64);
    let text = json::to_json_string(&result);
    assert!(text.contains(&format!("\"full_runs\": {}", t.full_runs)));
    assert!(text.contains(&format!("\"replayed_runs\": {}", t.replayed_runs)));
    assert_eq!(json::from_json_string(&text).unwrap().timing, result.timing);
    let normalized = json::to_json_string(&result.normalized());
    assert!(!normalized.contains("full_runs") && !normalized.contains("replayed_runs"));
}
