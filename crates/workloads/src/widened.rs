//! A deliberately loose workload: a scan whose *static* profile
//! over-approximates, so the RWS-soundness oracle's per-template
//! over-approximation report has something to rank.
//!
//! The over-approximation is manufactured the way the paper's §III-B
//! does it: the wide-range scan's watermark-bounded loop is analyzed with
//! [`ExplorerConfig::widen_loop_hull`], which replaces the pivot-dependent
//! end bound by the static hull [`SLOT_SPAN`]. The scan then classifies
//! as an *independent* transaction (no prepare-phase pivot resolution, no
//! validation retries) but predicts — and locks — the full `0..SLOT_SPAN`
//! span while execution only touches `0..watermark`.
//!
//! Programs:
//!
//! | program | class | role |
//! |---|---|---|
//! | `wide_scan(g)` | IT (widened) | full-hull prediction, prefix-only execution |
//! | `bump_watermark(g)` | DT | grows the watermark toward [`WidenedConfig::watermark_cap`], overwriting its own pivot |
//!
//! The sentinel contract making widening sound: `ctrl(g)` (the watermark)
//! only ever moves between `0` and `watermark_cap ≤ SLOT_SPAN`, so the
//! scan's dynamic trip count never exceeds the hull. The RWS-soundness
//! oracle checks this empirically on generated streams.

use crate::gen::DeterministicRng;
use prognosticator_core::{Catalog, ProgId, TxRequest};
use prognosticator_storage::EpochStore;
use prognosticator_symexec::{ExploreError, ExplorerConfig};
use prognosticator_txir::{Expr, InputBound, Key, Program, ProgramBuilder, TableId, Value};

/// Static widening hull: keys `slots(g, 0..SLOT_SPAN)` are predicted by
/// every `wide_scan`, whatever the watermark says.
pub const SLOT_SPAN: i64 = 16;

/// Scale parameters.
#[derive(Debug, Clone)]
pub struct WidenedConfig {
    /// Scan groups (each with its own sentinel row and slot span).
    pub groups: i64,
    /// Initial watermark per group (rows a fresh `wide_scan` touches).
    pub watermark: i64,
    /// Cap `bump_watermark` never exceeds (≤ [`SLOT_SPAN`] — the
    /// widening soundness contract).
    pub watermark_cap: i64,
}

impl Default for WidenedConfig {
    fn default() -> Self {
        WidenedConfig { groups: 4, watermark: 3, watermark_cap: 6 }
    }
}

/// Table ids of the widened schema.
#[derive(Debug, Clone, Copy)]
pub struct WidenedTables {
    /// ctrl(g) → Int watermark sentinel.
    pub ctrl: TableId,
    /// slots(g, i) → Int scan rows.
    pub slots: TableId,
}

fn tables(b: &mut ProgramBuilder) -> WidenedTables {
    WidenedTables { ctrl: b.table("ctrl"), slots: b.table("slots") }
}

/// The two programs.
#[derive(Debug, Clone)]
pub struct WidenedPrograms {
    /// wide_scan(g) — watermark-bounded RMW scan (widened to the hull).
    pub wide_scan: Program,
    /// bump_watermark(g) — DT capped watermark increment.
    pub bump_watermark: Program,
    /// Table ids.
    pub ids: WidenedTables,
}

/// Builds both programs over one table registry.
pub fn programs(config: &WidenedConfig) -> WidenedPrograms {
    let groups = config.groups;

    // wide_scan: w = ctrl(g); for i in 0..w { slots(g,i) += 1 }.
    let mut b = ProgramBuilder::new("wide_scan");
    let t = tables(&mut b);
    let g = b.input("g", InputBound::int(0, groups - 1));
    let w = b.var("w");
    let r = b.var("r");
    let i = b.var("i");
    b.get(w, Expr::key(t.ctrl, vec![Expr::input(g)]));
    b.for_(i, Expr::lit(0), Expr::var(w), |b| {
        b.get(r, Expr::key(t.slots, vec![Expr::input(g), Expr::var(i)]));
        b.put(
            Expr::key(t.slots, vec![Expr::input(g), Expr::var(i)]),
            Expr::var(r).add(Expr::lit(1)),
        );
    });
    let (wide_scan, registry) = b.build_with_tables();

    let mut b = ProgramBuilder::with_tables("bump_watermark", registry);
    let t = tables(&mut b);
    let g = b.input("g", InputBound::int(0, groups - 1));
    let w = b.var("w");
    b.get(w, Expr::key(t.ctrl, vec![Expr::input(g)]));
    b.if_then(Expr::var(w).lt(Expr::lit(config.watermark_cap)), |b| {
        b.put(Expr::key(t.ctrl, vec![Expr::input(g)]), Expr::var(w).add(Expr::lit(1)));
    });
    let bump_watermark = b.build();

    WidenedPrograms { wide_scan, bump_watermark, ids: t }
}

/// A registered widened workload.
#[derive(Debug)]
pub struct WidenedWorkload {
    /// Scale parameters.
    pub config: WidenedConfig,
    /// wide_scan program id.
    pub wide_scan: ProgId,
    /// bump_watermark program id.
    pub bump_watermark: ProgId,
    /// Table ids.
    pub tables: WidenedTables,
}

impl WidenedWorkload {
    /// Builds, analyzes and registers both programs. `wide_scan` is
    /// analyzed with the widening hull at [`SLOT_SPAN`]; `bump_watermark`
    /// gets the exact optimized analysis.
    ///
    /// # Errors
    /// Propagates analysis errors (IR bugs).
    ///
    /// # Panics
    /// Panics if the configuration violates the widening soundness
    /// contract (`watermark ≤ watermark_cap ≤ SLOT_SPAN`).
    pub fn register(catalog: &mut Catalog, config: WidenedConfig) -> Result<Self, ExploreError> {
        assert!(
            0 <= config.watermark
                && config.watermark <= config.watermark_cap
                && config.watermark_cap <= SLOT_SPAN,
            "widening contract: watermark ≤ cap ≤ SLOT_SPAN"
        );
        let progs = programs(&config);
        let widened = ExplorerConfig {
            widen_loop_hull: SLOT_SPAN,
            ..ExplorerConfig::optimized()
        };
        Ok(WidenedWorkload {
            wide_scan: catalog.register_with(progs.wide_scan, &widened)?,
            bump_watermark: catalog.register(progs.bump_watermark)?,
            config,
            tables: progs.ids,
        })
    }

    /// Populates sentinels at the initial watermark and zeroed slots over
    /// the full hull.
    pub fn populate(&self, store: &EpochStore) {
        let t = self.tables;
        for g in 0..self.config.groups {
            store.insert_initial(Key::of_ints(t.ctrl, &[g]), Value::Int(self.config.watermark));
            for i in 0..SLOT_SPAN {
                store.insert_initial(Key::of_ints(t.slots, &[g, i]), Value::Int(0));
            }
        }
    }

    /// Generates one request: 7 in 8 are scans, the rest watermark bumps.
    pub fn gen_tx(&self, rng: &mut DeterministicRng) -> TxRequest {
        let g = vec![Value::Int(rng.below(self.config.groups))];
        match rng.below(8) {
            0..=6 => TxRequest::new(self.wide_scan, g),
            _ => TxRequest::new(self.bump_watermark, g),
        }
    }

    /// Generates a whole batch.
    pub fn gen_batch(&self, rng: &mut DeterministicRng, size: usize) -> Vec<TxRequest> {
        (0..size).map(|_| self.gen_tx(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_core::TxClass;

    #[test]
    fn classes_are_as_designed() {
        let mut catalog = Catalog::new();
        let wl = WidenedWorkload::register(&mut catalog, WidenedConfig::default()).unwrap();
        // The widened scan is the whole point: IT despite its
        // state-bounded loop.
        assert_eq!(catalog.entry(wl.wide_scan).class(), TxClass::Independent);
        assert_eq!(catalog.entry(wl.bump_watermark).class(), TxClass::Dependent);
    }

    #[test]
    fn wide_scan_predicts_the_full_hull() {
        let mut catalog = Catalog::new();
        let wl = WidenedWorkload::register(&mut catalog, WidenedConfig::default()).unwrap();
        let profile = catalog.entry(wl.wide_scan).profile().expect("profiled");
        let pred = profile.predict_direct(&[Value::Int(1)]).expect("IT predicts directly");
        // ctrl(1) plus slots(1, 0..SLOT_SPAN) reads; the full span written.
        assert_eq!(pred.reads.len() as i64, 1 + SLOT_SPAN);
        assert_eq!(pred.writes.len() as i64, SLOT_SPAN);
        // Execution under the default watermark touches only the prefix:
        // static over-approximation is real, not cosmetic.
        let cfg = WidenedConfig::default();
        assert!(cfg.watermark < SLOT_SPAN / 2);
    }

    #[test]
    fn streams_are_deterministic_and_cover_both_programs() {
        let mut catalog = Catalog::new();
        let wl = WidenedWorkload::register(&mut catalog, WidenedConfig::default()).unwrap();
        let batch_a = wl.gen_batch(&mut DeterministicRng::new(42), 200);
        let batch_b = wl.gen_batch(&mut DeterministicRng::new(42), 200);
        assert_eq!(batch_a, batch_b);
        for prog in [wl.wide_scan, wl.bump_watermark] {
            assert!(batch_a.iter().any(|tx| tx.program == prog), "{prog:?} missing from mix");
        }
    }
}
