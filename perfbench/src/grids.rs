//! The three workloads' inputs: which scenarios each one runs, the
//! compile shapes a cold cache must fill, and the committed reference
//! results every run is checked against.

use clustersim::HeteroProfile;
use driver::spec::{ModelSpec, ScenarioSpec, SizeClass, Variant};
use driver::{RunStatus, SweepGrid, SweepRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimStandard,
    ModelFanout,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimStandard,
        Workload::ModelFanout,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimStandard => "sim-standard",
            Workload::ModelFanout => "model-fanout",
            Workload::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The scenarios the workload runs, in canonical grid order. For
    /// `service` this is the pool its jobs are drawn from.
    pub fn specs(self) -> Vec<ScenarioSpec> {
        let grid = match self {
            Workload::SimStandard => SweepGrid::new()
                .workloads(["direct2d", "indirect", "fft", "adi"])
                .size(SizeClass::Standard)
                .nps([8, 32])
                .models([ModelSpec::MpichGm]),
            Workload::ModelFanout => SweepGrid::new()
                .workloads(workloads::registry().iter().map(|e| e.name))
                .size(SizeClass::Standard)
                .nps([4, 8])
                .models([
                    ModelSpec::Mpich,
                    ModelSpec::MpichGm,
                    ModelSpec::RdmaIdeal,
                    ModelSpec::Congested {
                        links: 2,
                        load: 1.5,
                    },
                    ModelSpec::Congested {
                        links: 2,
                        load: 3.0,
                    },
                    ModelSpec::Hetero(HeteroProfile::HalfSlow),
                ]),
            Workload::Service => SweepGrid::new()
                .workloads(workloads::registry().iter().map(|e| e.name))
                .size(SizeClass::Small)
                .nps([2, 4])
                .models([
                    ModelSpec::Mpich,
                    ModelSpec::MpichGm,
                    ModelSpec::Congested {
                        links: 2,
                        load: 3.0,
                    },
                    ModelSpec::Hetero(HeteroProfile::HalfSlow),
                ]),
        };
        grid.tile_sizes([None])
            .variants([Variant::Compare])
            .expand()
    }

    /// Distinct compilations a cold cache performs for the sweep grid:
    /// one original per (workload, np) plus one transform per
    /// (workload, np, model).
    pub fn compile_shapes(self) -> u64 {
        match self {
            Workload::SimStandard => 16,
            Workload::ModelFanout => 112,
            Workload::Service => 80,
        }
    }

    fn reference_text(self) -> &'static str {
        match self {
            Workload::SimStandard => include_str!("../reference/sim-standard.tsv"),
            Workload::ModelFanout => include_str!("../reference/model-fanout.tsv"),
            Workload::Service => include_str!("../reference/service.tsv"),
        }
    }

    pub fn reference_path(self) -> String {
        format!("perfbench/reference/{}.tsv", self.name())
    }
}

/// `clustersim` identity counts summed over every simulated run of a
/// workload's scenarios (original and pre-push).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub msgs: u64,
    pub bytes: u64,
    pub collectives: u64,
    pub virtual_ns: u64,
}

/// The committed expectation for one workload.
pub struct Reference {
    pub counts: Option<SimCounts>,
    /// `(scenario key, row fields)`.
    pub rows: Vec<(String, String)>,
}

/// The fields of a row that must never move: status, chosen tile and
/// strategy, and every virtual time.
pub fn row_fields(r: &SweepRecord) -> String {
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |n| n.to_string());
    let status = match &r.status {
        RunStatus::Ok => "ok".to_string(),
        RunStatus::Error(e) => format!("error: {}", e.replace(['\t', '\n'], " ")),
    };
    [
        status,
        r.tile_size.map_or("-".into(), |k| k.to_string()),
        r.strategy.clone().unwrap_or_else(|| "-".into()),
        opt(r.orig_ns),
        opt(r.prepush_ns),
        opt(r.orig_exposed_ns),
        opt(r.prepush_exposed_ns),
    ]
    .join("\t")
}

impl Reference {
    pub fn load(w: Workload) -> Reference {
        let mut out = Reference {
            counts: None,
            rows: Vec::new(),
        };
        for line in w.reference_text().lines() {
            if let Some(rest) = line.strip_prefix("counts\t") {
                let n: Vec<u64> = rest.split('\t').filter_map(|f| f.parse().ok()).collect();
                if let [msgs, bytes, collectives, virtual_ns] = n[..] {
                    out.counts = Some(SimCounts {
                        msgs,
                        bytes,
                        collectives,
                        virtual_ns,
                    });
                }
            } else if let Some(rest) = line.strip_prefix("row\t") {
                if let Some((key, fields)) = rest.split_once('\t') {
                    out.rows.push((key.to_string(), fields.to_string()));
                }
            }
        }
        out
    }

    pub fn render(w: Workload, counts: SimCounts, rows: &[(String, String)]) -> String {
        let mut s = format!(
            "# overlap-perfbench reference for `{}`: regenerate with --write-reference\n\
             # counts\tmsgs\tbytes\tcollectives\tvirtual_ns\n\
             counts\t{}\t{}\t{}\t{}\n\
             # row\tkey\tstatus\ttile\tstrategy\torig_ns\tprepush_ns\torig_exposed_ns\tprepush_exposed_ns\n",
            w.name(),
            counts.msgs,
            counts.bytes,
            counts.collectives,
            counts.virtual_ns
        );
        for (key, fields) in rows {
            s.push_str(&format!("row\t{key}\t{fields}\n"));
        }
        s
    }

    /// Why `(key, fields)` disagrees with the reference, if it does.
    /// Rows are matched by scenario key, so the order the seed chose
    /// does not matter.
    pub fn check_row(&self, key: &str, got: &str) -> Option<String> {
        match self.rows.iter().find(|(k, _)| k == key) {
            Some((_, want)) if want == got => None,
            Some((_, want)) => Some(format!("{key}: got `{got}`, want `{want}`")),
            None => Some(format!("{key}: no reference row")),
        }
    }
}
