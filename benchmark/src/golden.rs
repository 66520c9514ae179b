//! `golden.json`: what the generated inputs must look like. A generator
//! that drifts would change the work and pass as a speed-up, so an input
//! whose fingerprint or literal count differs from the pinned one
//! invalidates the run. The pinned default-`seq` literal count after
//! factoring is a baseline to read quality changes against; a difference
//! there is reported, not fatal.

use crate::adapter::{self, parse_json, Json};
use crate::eval::Circuit;
use crate::inputs::{CircuitSpec, Driver, Kind, WORKLOADS};
use crate::library::relabel_rng;

/// The seed `seq_lc_after` is pinned for.
pub const GOLDEN_SEED: u64 = 1;

pub struct Golden {
    /// `None` while recording a new golden file: every check passes.
    doc: Option<Json>,
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        Ok(Golden {
            doc: Some(parse_json(include_str!("../golden.json"))?),
        })
    }

    /// A golden that accepts everything, for recording a new file.
    pub fn recording() -> Golden {
        Golden { doc: None }
    }

    fn entry(&self, label: &str) -> Option<&Json> {
        self.doc.as_ref()?.get("circuits")?.get(label)
    }

    /// The generated circuit `label` against its pinned fingerprint and
    /// literal count.
    pub fn check_circuit(&self, label: &str, flat: &Circuit) -> Result<(), String> {
        let entry = self.doc.as_ref().map(|_| self.entry(label));
        check_pin(entry, label, flat.fingerprint(), flat.literal_count())
    }

    /// The service universe against its pinned combined fingerprint.
    pub fn check_universe(&self, combined: u64, lc_before: usize) -> Result<(), String> {
        let entry = self.doc.as_ref().map(|doc| doc.get("serve_universe"));
        check_pin(entry, "the service universe", combined, lc_before)
    }

    /// Notes a default-`seq` literal count that differs from the pinned
    /// one (only meaningful on the seed the pin was taken with).
    pub fn note_seq_lc_after(
        &self,
        seed: u64,
        label: &str,
        lc_after: usize,
        notes: &mut Vec<String>,
    ) {
        let pinned = self
            .entry(label)
            .and_then(|e| e.get("seq_lc_after"))
            .and_then(Json::as_u64);
        if seed == GOLDEN_SEED && pinned.is_some_and(|p| p != lc_after as u64) {
            notes.push(format!(
                "default seq on {label} ends at {lc_after} literals; golden.json pins {}",
                pinned.unwrap()
            ));
        }
    }
}

/// Compares what was generated with the pinned entry; `None` means no
/// golden file is in force (recording), `Some(None)` a missing entry.
fn check_pin(
    entry: Option<Option<&Json>>,
    what: &str,
    fingerprint: u64,
    lc_before: usize,
) -> Result<(), String> {
    let Some(entry) = entry else { return Ok(()) };
    let entry = entry.ok_or(format!("golden.json has no entry for {what}"))?;
    let pinned = (
        entry.get("fingerprint").and_then(Json::as_str),
        entry.get("lc_before").and_then(Json::as_u64),
    );
    let found = (format!("{fingerprint:016x}"), lc_before as u64);
    if pinned != (Some(found.0.as_str()), Some(found.1)) {
        return Err(format!(
            "golden mismatch on {what}: pinned {pinned:?}, generated {found:?}; the generator drifted"
        ));
    }
    Ok(())
}

/// Builds the text of a fresh `golden.json` from the current generator
/// and the current default `seq` (`pfbench golden`).
pub fn record() -> Result<String, String> {
    let mut specs: Vec<CircuitSpec> = Vec::new();
    for w in WORKLOADS {
        if let Kind::Library { circuits, .. } = w.kind {
            specs.extend(
                circuits
                    .iter()
                    .filter(|c| !specs.contains(c))
                    .copied()
                    .collect::<Vec<_>>(),
            );
        }
    }
    let runner = adapter::Runner::new(Driver::SeqDefault);
    let mut out = format!("{{\n  \"seed\": {GOLDEN_SEED},\n  \"circuits\": {{\n");
    for (i, spec) in specs.iter().enumerate() {
        let base = adapter::generate(spec);
        let flat = adapter::flatten(&base);
        let mut relabelled = adapter::relabel(&base, &mut relabel_rng(GOLDEN_SEED, spec));
        let outcome = runner.run(&mut relabelled);
        out += &format!(
            "    \"{}\": {{\"fingerprint\": \"{:016x}\", \"lc_before\": {}, \"nodes\": {}, \"seq_lc_after\": {}}}{}\n",
            spec.label(),
            flat.fingerprint(),
            flat.literal_count(),
            flat.num_nodes(),
            outcome.lc_after,
            if i + 1 < specs.len() { "," } else { "" },
        );
    }
    let (combined, lc_before) = crate::service::universe_fingerprint()?;
    out += &format!("  }},\n  \"serve_universe\": {{\"fingerprint\": \"{combined:016x}\", \"lc_before\": {lc_before}}}\n}}\n");
    Ok(out)
}
