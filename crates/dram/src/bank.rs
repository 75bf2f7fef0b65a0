//! One DRAM bank: row state machine, per-command timing gates, and the
//! embedded mitigation engine + security oracle.

use crate::flip::FlipPlane;
use crate::timing::TimingSet;
use mopac::bank::BankMitigation;
use mopac::checker::RowhammerChecker;
use mopac_types::time::Cycle;

/// Which flavour of precharge closes the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrechargeKind {
    /// Normal precharge: base timings, no counter update.
    Normal,
    /// `PREcu`: PRAC timings, performs the counter read-modify-write
    /// (every precharge under PRAC; the MC-selected subset under
    /// MoPAC-C).
    CounterUpdate,
    /// Subarray-deferred counter update (PRACtical): the engine sees a
    /// counter update, but the *bank* pays only base precharge timings —
    /// the read-modify-write completes inside the closed row's
    /// subarray, whose gate the device tracks via [`Bank::post_cu`].
    DeferredUpdate,
}

/// A currently open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRow {
    /// The open row address.
    pub row: u32,
    /// Cycle at which it was activated.
    pub opened_at: Cycle,
}

/// One bank's timing and mitigation state.
#[derive(Debug, Clone)]
pub struct Bank {
    open: Option<OpenRow>,
    /// The MoPAC-C 1-bit state (Section 5.1): close this row with PREcu.
    pending_update: bool,
    /// Earliest cycle an ACT may issue (tRP / tRFC gate).
    act_allowed: Cycle,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR gate).
    pre_allowed: Cycle,
    /// Earliest cycle a column command may issue (tRCD / tCCD gate).
    col_allowed: Cycle,
    mitigation: BankMitigation,
    checker: Option<RowhammerChecker>,
    /// Per-subarray deferred counter-update completion times, indexed
    /// by subarray. Empty for designs without subarray-deferred updates
    /// (the historical flat-bank model — zero bytes of snapshot state).
    cu_ready: Vec<Cycle>,
    /// Victim-data bit-flip plane, fed the same event stream as the
    /// checker. `None` (the default) costs zero state and zero
    /// snapshot bytes.
    flip: Option<FlipPlane>,
}

impl Bank {
    /// Creates a closed, idle bank.
    ///
    /// `cu_slots` — number of subarray deferred-update slots to track
    /// (the geometry's `subarrays_per_bank` for engines demanding
    /// `subarray_parallel_updates`, `0` otherwise).
    #[must_use]
    pub fn new(
        mitigation: BankMitigation,
        checker: Option<RowhammerChecker>,
        cu_slots: u32,
        flip: Option<FlipPlane>,
    ) -> Self {
        Self {
            open: None,
            pending_update: false,
            act_allowed: 0,
            pre_allowed: 0,
            col_allowed: 0,
            mitigation,
            checker,
            cu_ready: vec![0; cu_slots as usize],
            flip,
        }
    }

    /// The open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<OpenRow> {
        self.open
    }

    /// Whether the MC marked the open row for a counter-update close.
    #[must_use]
    pub fn pending_update(&self) -> bool {
        self.pending_update
    }

    /// Earliest cycle an ACT may issue (bank-local constraints only).
    #[must_use]
    pub fn earliest_activate(&self) -> Option<Cycle> {
        self.open.is_none().then_some(self.act_allowed)
    }

    /// The deferred-update gate for one subarray: an ACT into
    /// `subarray` must additionally wait until its in-flight counter
    /// update (if any) completes. `0` when untracked or idle.
    #[must_use]
    pub fn cu_gate(&self, subarray: u32) -> Cycle {
        self.cu_ready.get(subarray as usize).copied().unwrap_or(0)
    }

    /// Latest deferred-update completion across all subarrays (`0` when
    /// none are tracked) — the bank-wide quiesce point REF/RFM waits on.
    #[must_use]
    pub fn cu_busy_until(&self) -> Cycle {
        self.cu_ready.iter().copied().max().unwrap_or(0)
    }

    /// In-flight deferred-update completion times strictly after `now`
    /// (event-kernel wake candidates).
    pub fn cu_pending(&self, now: Cycle) -> impl Iterator<Item = Cycle> + '_ {
        self.cu_ready.iter().copied().filter(move |&c| c > now)
    }

    /// Posts a deferred counter update completing at `ready` into
    /// `subarray`, and reports whether a *different* subarray still had
    /// an update in flight (the overlap PRACtical's subarray-level
    /// update unlocks). No-op returning `false` when slots are
    /// untracked.
    pub fn post_cu(&mut self, subarray: u32, ready: Cycle, now: Cycle) -> bool {
        let Some(slot) = self.cu_ready.get_mut(subarray as usize) else {
            return false;
        };
        *slot = (*slot).max(ready);
        self.cu_ready
            .iter()
            .enumerate()
            .any(|(i, &c)| i != subarray as usize && c > now)
    }

    /// Earliest cycle a column command to `row` may issue.
    #[must_use]
    pub fn earliest_column(&self, row: u32) -> Option<Cycle> {
        self.open
            .filter(|o| o.row == row)
            .map(|_| self.col_allowed)
    }

    /// Earliest cycle a PRE may issue.
    #[must_use]
    pub fn earliest_precharge(&self) -> Option<Cycle> {
        self.open.map(|_| self.pre_allowed)
    }

    /// Issues an ACT. Returns the number of victim-word bits the flip
    /// plane injected from this activation's disturbance (always 0
    /// when the plane is disabled).
    ///
    /// `update_selected` is the MoPAC-C coin flip (always true under
    /// PRAC, always false otherwise); it selects the tRCD/tRAS flavour
    /// and arms [`Self::pending_update`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is open or the timing gate is violated.
    pub fn activate(
        &mut self,
        row: u32,
        now: Cycle,
        update_selected: bool,
        base: &TimingSet,
        prac: &TimingSet,
    ) -> u32 {
        debug_assert!(self.open.is_none(), "ACT to open bank");
        debug_assert!(now >= self.act_allowed, "ACT violates tRP/tRFC");
        let t = if update_selected { prac } else { base };
        self.open = Some(OpenRow {
            row,
            opened_at: now,
        });
        self.pending_update = update_selected;
        self.col_allowed = now + t.t_rcd;
        self.pre_allowed = now + t.t_ras;
        self.mitigation.on_activate(row, 0.0);
        if let Some(ck) = self.checker.as_mut() {
            ck.on_activate(row);
        }
        self.flip.as_mut().map_or(0, |f| f.on_activate(row))
    }

    /// Issues a column read; returns the cycle at which data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no matching row is open or timing is violated.
    pub fn read(&mut self, now: Cycle, t: &TimingSet) -> Cycle {
        debug_assert!(self.open.is_some(), "RD to closed bank");
        debug_assert!(now >= self.col_allowed, "RD violates tRCD/tCCD");
        self.col_allowed = now + t.t_ccd;
        self.pre_allowed = self.pre_allowed.max(now + t.t_rtp);
        now + t.cl + t.burst
    }

    /// Issues a column write; returns the cycle at which data finishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no matching row is open or timing is violated.
    pub fn write(&mut self, now: Cycle, t: &TimingSet) -> Cycle {
        debug_assert!(self.open.is_some(), "WR to closed bank");
        debug_assert!(now >= self.col_allowed, "WR violates tRCD/tCCD");
        self.col_allowed = now + t.t_ccd;
        let data_end = now + t.cwl + t.burst;
        self.pre_allowed = self.pre_allowed.max(data_end + t.t_wr);
        data_end
    }

    /// Issues a precharge of the given kind; returns the row-open time
    /// in cycles, or `None` if the bank was already closed (the caller
    /// surfaces that as a timing-protocol error).
    pub fn precharge(
        &mut self,
        kind: PrechargeKind,
        now: Cycle,
        base: &TimingSet,
        prac: &TimingSet,
        ns_per_cycle: f64,
    ) -> Option<Cycle> {
        let open = self.open.take()?;
        debug_assert!(now >= self.pre_allowed, "PRE violates tRAS/tRTP/tWR");
        // A deferred update closes the *bank* at base timings; the
        // counter read-modify-write continues inside the subarray (the
        // device posts its completion via `post_cu`).
        let t = match kind {
            PrechargeKind::Normal | PrechargeKind::DeferredUpdate => base,
            PrechargeKind::CounterUpdate => prac,
        };
        self.act_allowed = now + t.t_rp;
        self.pending_update = false;
        let open_cycles = now - open.opened_at;
        self.mitigation.on_precharge(
            open.row,
            kind != PrechargeKind::Normal,
            open_cycles as f64 * ns_per_cycle,
        );
        Some(open_cycles)
    }

    /// Blocks the bank until `until` (REF / RFM execution).
    pub fn block_until(&mut self, until: Cycle) {
        debug_assert!(self.open.is_none(), "REF/RFM with open row");
        self.act_allowed = self.act_allowed.max(until);
    }

    /// Fault hook: wedges the bank until `until`. An open bank cannot be
    /// precharged (stuck-open row); a closed bank cannot be activated.
    pub fn wedge_until(&mut self, until: Cycle) {
        if self.open.is_some() {
            self.pre_allowed = self.pre_allowed.max(until);
        } else {
            self.act_allowed = self.act_allowed.max(until);
        }
    }

    /// Access to the mitigation engine.
    #[must_use]
    pub fn mitigation(&self) -> &BankMitigation {
        &self.mitigation
    }

    /// Mutable access to the mitigation engine (REF drains, ABO service).
    pub fn mitigation_mut(&mut self) -> &mut BankMitigation {
        &mut self.mitigation
    }

    /// Access to the security oracle, if enabled.
    #[must_use]
    pub fn checker(&self) -> Option<&RowhammerChecker> {
        self.checker.as_ref()
    }

    /// Mutable access to the security oracle.
    pub fn checker_mut(&mut self) -> Option<&mut RowhammerChecker> {
        self.checker.as_mut()
    }

    /// Access to the flip plane, if enabled.
    #[must_use]
    pub fn flip(&self) -> Option<&FlipPlane> {
        self.flip.as_ref()
    }

    /// Mutable access to the flip plane (REF scrubs, read checks,
    /// mitigation mirroring).
    pub fn flip_mut(&mut self) -> Option<&mut FlipPlane> {
        self.flip.as_mut()
    }
}

impl mopac_types::snapshot::Snapshottable for Bank {
    fn save_state(&self, w: &mut mopac_types::snapshot::SnapshotWriter) {
        match self.open {
            Some(o) => {
                w.put_bool(true);
                w.put_u32(o.row);
                w.put_u64(o.opened_at);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.pending_update);
        w.put_u64(self.act_allowed);
        w.put_u64(self.pre_allowed);
        w.put_u64(self.col_allowed);
        self.mitigation.save_state(w);
        w.put_bool(self.checker.is_some());
        if let Some(ck) = &self.checker {
            ck.save_state(w);
        }
        // Subarray slots are configuration-derived shape: when present,
        // a sentinel guards the section so a cross-shape restore fails
        // with a typed error instead of misinterpreting the stream. A
        // slot-less bank writes nothing here — byte-identical to the
        // pre-subarray format.
        if !self.cu_ready.is_empty() {
            w.put_u32(CU_SECTION_SENTINEL);
            w.put_usize(self.cu_ready.len());
            for &c in &self.cu_ready {
                w.put_u64(c);
            }
        }
        // Flip-plane section: same shape-gated sentinel pattern. A
        // plane-less bank writes nothing, keeping disabled-mode
        // snapshots byte-identical to the pre-flip-plane format.
        if let Some(f) = &self.flip {
            w.put_u32(FLIP_SECTION_SENTINEL);
            f.save_state(w);
        }
    }

    fn load_state(
        &mut self,
        r: &mut mopac_types::snapshot::SnapshotReader<'_>,
    ) -> mopac_types::MopacResult<()> {
        self.open = if r.take_bool()? {
            Some(OpenRow {
                row: r.take_u32()?,
                opened_at: r.take_u64()?,
            })
        } else {
            None
        };
        self.pending_update = r.take_bool()?;
        self.act_allowed = r.take_u64()?;
        self.pre_allowed = r.take_u64()?;
        self.col_allowed = r.take_u64()?;
        self.mitigation.load_state(r)?;
        let had_checker = r.take_bool()?;
        if had_checker != self.checker.is_some() {
            return Err(mopac_types::MopacError::snapshot(format!(
                "checker mode mismatch: snapshot {}, configured {}",
                if had_checker { "enabled" } else { "disabled" },
                if self.checker.is_some() { "enabled" } else { "disabled" },
            )));
        }
        if let Some(ck) = self.checker.as_mut() {
            ck.load_state(r)?;
        }
        if !self.cu_ready.is_empty() {
            let sentinel = r.take_u32()?;
            if sentinel != CU_SECTION_SENTINEL {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "subarray update-slot section missing (sentinel {sentinel:#x}): \
                     snapshot was taken on a flat-bank configuration"
                )));
            }
            let n = r.take_usize()?;
            if n != self.cu_ready.len() {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "subarray update-slot count mismatch: snapshot {n}, configured {}",
                    self.cu_ready.len()
                )));
            }
            for c in &mut self.cu_ready {
                *c = r.take_u64()?;
            }
        }
        if let Some(f) = self.flip.as_mut() {
            let sentinel = r.take_u32()?;
            if sentinel != FLIP_SECTION_SENTINEL {
                return Err(mopac_types::MopacError::snapshot(format!(
                    "flip-plane section missing (sentinel {sentinel:#x}): snapshot \
                     was taken on a flip-plane-disabled configuration"
                )));
            }
            f.load_state(r)?;
        }
        Ok(())
    }
}

/// Guards the optional per-subarray slot section of a bank snapshot.
const CU_SECTION_SENTINEL: u32 = 0x5355_4231; // "SUB1"

/// Guards the optional flip-plane section of a bank snapshot.
const FLIP_SECTION_SENTINEL: u32 = 0x464C_5031; // "FLP1"

#[cfg(test)]
mod tests {
    use super::*;
    use mopac::config::MitigationConfig;
    use mopac_types::rng::DetRng;

    fn bank() -> Bank {
        let cfg = MitigationConfig::baseline();
        Bank::new(
            BankMitigation::new(&cfg, 1024, DetRng::from_seed(1)),
            Some(RowhammerChecker::new(1024, 500)),
            0,
            None,
        )
    }

    #[test]
    fn act_read_pre_sequence_base_timings() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        assert_eq!(b.earliest_activate(), Some(0));
        b.activate(5, 0, false, &base, &prac);
        assert_eq!(b.earliest_column(5), Some(42)); // tRCD
        assert_eq!(b.earliest_column(6), None); // wrong row
        let done = b.read(42, &base);
        assert_eq!(done, 42 + 42 + 8); // CL + burst
        assert_eq!(b.earliest_precharge(), Some(96)); // tRAS from ACT
        b.precharge(PrechargeKind::Normal, 96, &base, &prac, 1.0 / 3.0);
        assert_eq!(b.earliest_activate(), Some(96 + 42)); // + tRP
    }

    #[test]
    fn prac_precharge_extends_reopen_time() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(5, 0, true, &base, &prac);
        // PRAC tRAS is shorter (48), tRCD longer (48).
        assert_eq!(b.earliest_precharge(), Some(48));
        assert_eq!(b.earliest_column(5), Some(48));
        b.precharge(PrechargeKind::CounterUpdate, 48, &base, &prac, 1.0 / 3.0);
        // PRAC tRP = 108 -> next ACT at 156 = PRAC tRC from first ACT.
        assert_eq!(b.earliest_activate(), Some(156));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(1, 0, false, &base, &prac);
        let data_end = b.write(42, &base);
        assert_eq!(data_end, 42 + 40 + 8);
        assert_eq!(b.earliest_precharge(), Some(data_end + base.t_wr));
    }

    #[test]
    fn deferred_update_precharge_keeps_base_bank_timings() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let cfg = MitigationConfig::practical(500);
        let mut b = Bank::new(
            BankMitigation::new(&cfg, 1024, DetRng::from_seed(1)),
            None,
            4,
            None,
        );
        b.activate(5, 0, false, &base, &prac);
        let pre_at = b.earliest_precharge().unwrap();
        b.precharge(PrechargeKind::DeferredUpdate, pre_at, &base, &prac, 1.0 / 3.0);
        // Bank reopens after *base* tRP, unlike a PREcu close...
        assert_eq!(b.earliest_activate(), Some(pre_at + base.t_rp));
        // ...but the engine still saw a counter update.
        assert_eq!(b.mitigation().counter(5), 1);
        // The device then posts the subarray gate.
        let overlap = b.post_cu(0, pre_at + prac.t_rp, pre_at);
        assert!(!overlap, "no other subarray busy");
        assert_eq!(b.cu_gate(0), pre_at + prac.t_rp);
        assert_eq!(b.cu_gate(1), 0);
        assert_eq!(b.cu_busy_until(), pre_at + prac.t_rp);
        let overlap = b.post_cu(2, pre_at + prac.t_rp + 9, pre_at + 1);
        assert!(overlap, "subarray 0 still in flight");
        assert_eq!(b.cu_pending(pre_at).count(), 2);
    }

    #[test]
    fn open_time_reported_to_mitigation() {
        let base = TimingSet::ddr5_base();
        let prac = TimingSet::ddr5_prac();
        let mut b = bank();
        b.activate(1, 0, false, &base, &prac);
        let open_cycles = b.precharge(PrechargeKind::Normal, 96, &base, &prac, 1.0 / 3.0);
        assert_eq!(open_cycles, Some(96));
    }
}
