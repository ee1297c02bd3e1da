// L6 fixture: a facade whose snapshot builder no longer carries the
// name `freeze` — scanned as src/facade.rs, the rule must say so
// instead of silently scanning nothing.

pub struct MergedSummary {
    sets: Vec<u64>,
}

fn snapshot_summary(summary: &MergedSummary) -> MergedSummary {
    MergedSummary {
        sets: summary.sets.clone(),
    }
}

pub struct RdsWriter {
    current: MergedSummary,
}

impl RdsWriter {
    pub fn publish(&mut self) -> MergedSummary {
        snapshot_summary(&self.current)
    }
}
