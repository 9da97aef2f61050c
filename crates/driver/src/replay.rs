//! Layer 3 — replay. A sweep runs the same program under many network
//! models, yet with the buffer-reuse detector off a run's `Comm` calls
//! and outputs depend only on (compiled program, np)
//! ([`interp::Recording`]). So within one shape group — the rows that
//! share (workload, size, np) — each distinct program is interpreted once,
//! with recording, and every other row replays the recorded calls on its
//! own model.
//!
//! Programs are told apart by their [`fir::unparse`] text, which
//! round-trips exactly: equal text means an equal program, so a declined
//! transform shares its original's recording. Only successful recordings
//! are kept, so a failing program fails every row with its own full
//! run's error. The memo lives as long as its group runs, which bounds
//! the outputs it holds to the groups in flight.

use clustersim::{NetworkModel, Report};
use interp::{CompiledProgram, RankOutput, Recording, RunError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulations a sweep performed, by how.
#[derive(Debug, Default)]
pub(crate) struct RunCounts {
    full: AtomicU64,
    replayed: AtomicU64,
}

impl RunCounts {
    /// `(full_runs, replayed_runs)`.
    pub fn get(&self) -> (u64, u64) {
        (
            self.full.load(Ordering::Relaxed),
            self.replayed.load(Ordering::Relaxed),
        )
    }
}

/// A recorded run: its calls, and its outputs (the same on every model).
struct Recorded {
    recording: Recording,
    outputs: Rc<Vec<RankOutput>>,
}

/// One simulation's outcome: the report on the requested model and the
/// per-rank outputs (its own, or those of the run it replayed).
pub(crate) struct Simulated {
    pub report: Report,
    pub outputs: Rc<Vec<RankOutput>>,
}

/// Runs a scenario's simulations: always in full, or — for a shape group
/// of several rows — through the group's recording memo.
pub(crate) struct Simulator<'c> {
    memo: Option<RefCell<HashMap<String, Recorded>>>,
    counts: &'c RunCounts,
}

impl<'c> Simulator<'c> {
    /// Every simulation a full interpreted run, as for a lone row.
    pub fn full(counts: &'c RunCounts) -> Simulator<'c> {
        Simulator { memo: None, counts }
    }

    /// Record each distinct program once, replay it afterwards.
    pub fn replaying(counts: &'c RunCounts) -> Simulator<'c> {
        Simulator {
            memo: Some(RefCell::default()),
            counts,
        }
    }

    /// Simulate `compiled` on `np` ranks under `model`. `program_text`
    /// yields the program's [`fir::unparse`] text, the memo key; it is
    /// only called when replay is on.
    pub fn simulate(
        &self,
        program_text: impl FnOnce() -> String,
        compiled: &CompiledProgram,
        np: usize,
        model: &NetworkModel,
    ) -> Result<Simulated, RunError> {
        let Some(memo) = &self.memo else {
            self.counts.full.fetch_add(1, Ordering::Relaxed);
            let r = compiled.run(np, model)?;
            return Ok(Simulated {
                report: r.report,
                outputs: Rc::new(r.outputs),
            });
        };
        let key = program_text();
        if let Some(recorded) = memo.borrow().get(&key) {
            self.counts.replayed.fetch_add(1, Ordering::Relaxed);
            return Ok(Simulated {
                report: recorded.recording.replay(model)?,
                outputs: Rc::clone(&recorded.outputs),
            });
        }
        self.counts.full.fetch_add(1, Ordering::Relaxed);
        let (r, recording) = compiled.run_recorded(np, model)?;
        let outputs = Rc::new(r.outputs);
        if let Some(recording) = recording {
            let outputs = Rc::clone(&outputs);
            memo.borrow_mut().insert(key, Recorded { recording, outputs });
        }
        Ok(Simulated {
            report: r.report,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::{compile_program, Options};

    /// Rank 0 sends a large buffer, computes for ~0.2 ms, then overwrites
    /// the buffer before waiting: a hazard exactly when the NIC is still
    /// reading it, which only the slow TCP model's is.
    const HAZARD: &str = "\
program main
  real :: s(4096), t(4096)
  do i = 1, 4096
    s(i) = i
  end do
  if (mynum == 0) then
    call mpi_isend(s(1:4096), 4096, 1, 0)
    do j = 1, 6
      do i = 1, 4096
        t(i) = t(i) + j
      end do
    end do
    s(1) = -1
    call mpi_waitall()
  else
    call mpi_irecv(s(1:4096), 4096, 0, 0)
    call mpi_waitall()
  end if
end program";

    fn models() -> Vec<NetworkModel> {
        vec![
            NetworkModel::mpich(),
            NetworkModel::mpich_gm(),
            NetworkModel::rdma_ideal(),
        ]
    }

    fn run_group(sim: &Simulator, compiled: &CompiledProgram) -> Vec<Result<u64, String>> {
        let text = || fir::unparse(&fir::parse(HAZARD).unwrap());
        models()
            .iter()
            .map(|m| {
                sim.simulate(text, compiled, 2, m)
                    .map(|s| s.report.makespan().as_ns())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Under the strict options nothing is recorded, so a hazard that
    /// shows on one model of a group errors on exactly that model, with
    /// the error a lone full run gives.
    #[test]
    fn a_model_dependent_hazard_errors_on_exactly_its_model() {
        let program = fir::parse(HAZARD).unwrap();
        let strict = compile_program(&program, &Options::strict()).unwrap();
        let lone = run_group(&Simulator::full(&RunCounts::default()), &strict);
        assert_eq!(
            lone.iter().filter(|r| r.is_err()).count(),
            1,
            "the hazard must show on exactly one model: {lone:?}"
        );
        let counts = RunCounts::default();
        let grouped = run_group(&Simulator::replaying(&counts), &strict);
        assert_eq!(grouped, lone);
        assert_eq!(counts.get(), (3, 0), "strict runs are never replayed");

        // The default options tolerate the hazard, and the group replays.
        let relaxed = compile_program(&program, &Options::default()).unwrap();
        let counts = RunCounts::default();
        let grouped = run_group(&Simulator::replaying(&counts), &relaxed);
        let lone = run_group(&Simulator::full(&RunCounts::default()), &relaxed);
        assert!(grouped.iter().all(Result::is_ok));
        assert_eq!(grouped, lone);
        assert_eq!(counts.get(), (1, 2));
    }
}
