//! Pass composition: the paper's evaluated configurations.

use crate::abft::AbftConfig;
use crate::ilr::IlrConfig;
use crate::tmr::TmrConfig;
use crate::tx::TxConfig;

/// Cumulative optimization levels of Figure 7 / Figure 9 (right).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// `N` — no optimizations.
    None,
    /// `S` — + shared-memory access optimization.
    SharedMem,
    /// `C` — + control-flow protection.
    ControlFlow,
    /// `L` — + local function calls.
    LocalCalls,
    /// `F` — + fault propagation checks.
    FaultProp,
}

impl OptLevel {
    /// All levels in the paper's cumulative order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::None,
        OptLevel::SharedMem,
        OptLevel::ControlFlow,
        OptLevel::LocalCalls,
        OptLevel::FaultProp,
    ];

    /// Single-letter label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::None => "N",
            OptLevel::SharedMem => "S",
            OptLevel::ControlFlow => "C",
            OptLevel::LocalCalls => "L",
            OptLevel::FaultProp => "F",
        }
    }
}

/// Which hardening *strategy* a [`HardenConfig`] selects.
///
/// The backends share the [`crate::PassManager`]/`Experiment`
/// plumbing but differ in mechanism:
///
/// * [`Backend::IlrTx`] — the paper's pipeline: duplicate (ILR) to
///   *detect*, transactify (TX) to *recover by rollback*.
/// * [`Backend::Tmr`] — the Elzar-style alternative: triplicate and
///   majority-vote to *mask* faults in place, with no transactions.
/// * [`Backend::Abft`] — algorithm-based fault tolerance: checksum
///   lanes over recognized accumulation chains, verified and corrected
///   at externalization points, with per-function full-HAFT fallback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// HAFT's detect-and-rollback pipeline (the default).
    #[default]
    IlrTx,
    /// Elzar-style triple modular redundancy with majority voting.
    Tmr,
    /// Checksum-protected matrix kernels with full-HAFT fallback.
    Abft,
}

/// Which passes to run and how.
#[derive(Clone, Debug)]
pub struct HardenConfig {
    /// Hardening strategy; decides which of the pass configs below the
    /// [`crate::PassManager`] consults.
    pub backend: Backend,
    pub ilr: Option<IlrConfig>,
    pub tx: Option<TxConfig>,
    /// TMR pass configuration, consulted when `backend` is
    /// [`Backend::Tmr`] (a `None` falls back to [`TmrConfig::default`]).
    pub tmr: Option<TmrConfig>,
    /// ABFT pass configuration, consulted when `backend` is
    /// [`Backend::Abft`] (a `None` falls back to
    /// [`AbftConfig::default`]).
    pub abft: Option<AbftConfig>,
}

impl Default for HardenConfig {
    /// The default configuration is full HAFT — the paper's evaluated
    /// pipeline ([`HardenConfig::haft`]), not the native baseline.
    fn default() -> Self {
        Self::haft()
    }
}

impl HardenConfig {
    fn ilr_tx(ilr: Option<IlrConfig>, tx: Option<TxConfig>) -> Self {
        HardenConfig { backend: Backend::IlrTx, ilr, tx, tmr: None, abft: None }
    }

    /// No transformation (the native baseline).
    pub fn native() -> Self {
        Self::ilr_tx(None, None)
    }

    /// Fault detection only (the paper's "ILR" rows).
    pub fn ilr_only() -> Self {
        Self::ilr_tx(Some(IlrConfig::default()), None)
    }

    /// Transactions only (the paper's "TX" rows).
    pub fn tx_only() -> Self {
        Self::ilr_tx(None, Some(TxConfig::default()))
    }

    /// Full HAFT: ILR + TX with all optimizations.
    pub fn haft() -> Self {
        Self::ilr_tx(Some(IlrConfig::default()), Some(TxConfig::default()))
    }

    /// The Elzar-style TMR backend: triplicate computation and mask
    /// faults by majority vote, with no transactional machinery.
    pub fn tmr() -> Self {
        HardenConfig {
            backend: Backend::Tmr,
            ilr: None,
            tx: None,
            tmr: Some(TmrConfig::default()),
            abft: None,
        }
    }

    /// TMR with every refinement disabled (vote everywhere, single
    /// loads) — the masking analogue of [`IlrConfig::unoptimized`].
    pub fn tmr_unoptimized() -> Self {
        HardenConfig {
            backend: Backend::Tmr,
            ilr: None,
            tx: None,
            tmr: Some(TmrConfig::unoptimized()),
            abft: None,
        }
    }

    /// The ABFT backend: checksum lanes over recognized accumulation
    /// chains, full HAFT for everything the pass cannot cover.
    pub fn abft() -> Self {
        HardenConfig {
            backend: Backend::Abft,
            ilr: None,
            tx: None,
            tmr: None,
            abft: Some(AbftConfig::default()),
        }
    }

    /// ABFT with the fallback-heavy claiming threshold: single-chain
    /// functions drop back to full HAFT, so only multi-reduction
    /// kernels keep the checksum protection.
    pub fn abft_fallback_heavy() -> Self {
        HardenConfig {
            backend: Backend::Abft,
            ilr: None,
            tx: None,
            tmr: None,
            abft: Some(AbftConfig::fallback_heavy()),
        }
    }

    /// Full HAFT with the lock-elision wrapper enabled.
    pub fn haft_with_elision() -> Self {
        Self::haft().with_lock_elision()
    }

    /// HAFT at one of Figure 7's cumulative optimization levels.
    pub fn at_opt_level(level: OptLevel) -> Self {
        let ilr = IlrConfig {
            shared_mem_opt: level >= OptLevel::SharedMem,
            control_flow_protection: level >= OptLevel::ControlFlow,
            fault_prop_check: level >= OptLevel::FaultProp,
            check_elision: true,
        };
        let tx = TxConfig { local_calls_opt: level >= OptLevel::LocalCalls, ..TxConfig::default() };
        Self::ilr_tx(Some(ilr), Some(tx))
    }

    /// Disables the TX local-call optimization (the paper's `vips-nc`).
    ///
    /// Debug-asserts that the TX pass is enabled: on a TX-less config the
    /// modifier has nothing to modify, and silently returning `self`
    /// unchanged would let a benchmark sweep report a "no local calls"
    /// variant that is actually the base variant.
    pub fn without_local_calls(mut self) -> Self {
        match &mut self.tx {
            Some(tx) => tx.local_calls_opt = false,
            None => debug_assert!(
                false,
                "without_local_calls on a config with the TX pass disabled is a no-op"
            ),
        }
        self
    }

    /// Keeps lock/unlock inside transactions so the VM's run-time
    /// lock-elision wrapper can elide them (paper §3.3).
    ///
    /// Debug-asserts that the TX pass is enabled, like
    /// [`HardenConfig::without_local_calls`].
    pub fn with_lock_elision(mut self) -> Self {
        match &mut self.tx {
            Some(tx) => tx.lock_elision = true,
            None => debug_assert!(
                false,
                "with_lock_elision on a config with the TX pass disabled is a no-op"
            ),
        }
        self
    }

    /// Short human-readable name for reports: the variant name
    /// (`native`/`ILR`/`TX`/`HAFT`, `TMR` for the masking backend, or
    /// `ABFT` for the checksum backend) plus suffixes for every
    /// deviation from the preset (`-sm`, `-cf`, `-fp`, `-ce`, `-nc`,
    /// `-ph`; `-tl`, `-ve` for TMR; `-fb` for fallback-heavy ABFT),
    /// `+el` for lock elision, and `+bl<n>` for an `n`-entry TX
    /// blacklist. Distinct configs get distinct labels, except for
    /// blacklists that differ only in their entries (the label encodes
    /// the count).
    pub fn label(&self) -> String {
        if self.backend == Backend::Abft {
            let mut s = String::from("ABFT");
            let abft = self.abft.clone().unwrap_or_default();
            if abft.min_data_chains > AbftConfig::default().min_data_chains {
                s.push_str("-fb");
            }
            return s;
        }
        if self.backend == Backend::Tmr {
            let mut s = String::from("TMR");
            let tmr = self.tmr.clone().unwrap_or_default();
            if !tmr.triplicate_loads {
                s.push_str("-tl");
            }
            if !tmr.vote_elision {
                s.push_str("-ve");
            }
            return s;
        }
        let mut s = String::from(match (&self.ilr, &self.tx) {
            (None, None) => "native",
            (Some(_), None) => "ILR",
            (None, Some(_)) => "TX",
            (Some(_), Some(_)) => "HAFT",
        });
        if let Some(ilr) = &self.ilr {
            if !ilr.shared_mem_opt {
                s.push_str("-sm");
            }
            if !ilr.control_flow_protection {
                s.push_str("-cf");
            }
            if !ilr.fault_prop_check {
                s.push_str("-fp");
            }
            if !ilr.check_elision {
                s.push_str("-ce");
            }
        }
        if let Some(tx) = &self.tx {
            if !tx.local_calls_opt {
                s.push_str("-nc");
            }
            if !tx.peephole {
                s.push_str("-ph");
            }
            if tx.lock_elision {
                s.push_str("+el");
            }
            if !tx.blacklist.is_empty() {
                s.push_str(&format!("+bl{}", tx.blacklist.len()));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_levels_are_cumulative() {
        let n = HardenConfig::at_opt_level(OptLevel::None);
        assert!(!n.ilr.as_ref().unwrap().shared_mem_opt);
        assert!(!n.tx.as_ref().unwrap().local_calls_opt);
        let s = HardenConfig::at_opt_level(OptLevel::SharedMem);
        assert!(s.ilr.as_ref().unwrap().shared_mem_opt);
        assert!(!s.ilr.as_ref().unwrap().control_flow_protection);
        let fprop = HardenConfig::at_opt_level(OptLevel::FaultProp);
        assert!(fprop.ilr.as_ref().unwrap().fault_prop_check);
        assert!(fprop.tx.as_ref().unwrap().local_calls_opt);
    }

    #[test]
    fn preset_shapes() {
        assert!(HardenConfig::native().ilr.is_none());
        assert!(HardenConfig::ilr_only().tx.is_none());
        assert!(HardenConfig::tx_only().ilr.is_none());
        let h = HardenConfig::haft();
        assert!(h.ilr.is_some() && h.tx.is_some());
        assert!(HardenConfig::haft_with_elision().tx.unwrap().lock_elision);
        assert!(!HardenConfig::haft().without_local_calls().tx.unwrap().local_calls_opt);
    }

    #[test]
    fn backend_shapes() {
        // Every IlrTx preset carries the default backend; the TMR presets
        // switch it and carry only a TMR config.
        for cfg in [
            HardenConfig::native(),
            HardenConfig::ilr_only(),
            HardenConfig::tx_only(),
            HardenConfig::haft(),
            HardenConfig::at_opt_level(OptLevel::SharedMem),
        ] {
            assert_eq!(cfg.backend, Backend::IlrTx);
            assert!(cfg.tmr.is_none());
        }
        let t = HardenConfig::tmr();
        assert_eq!(t.backend, Backend::Tmr);
        assert!(t.ilr.is_none() && t.tx.is_none() && t.abft.is_none());
        assert!(t.tmr.as_ref().unwrap().triplicate_loads);
        assert!(!HardenConfig::tmr_unoptimized().tmr.unwrap().triplicate_loads);
        // The ABFT presets carry only an ABFT config.
        let a = HardenConfig::abft();
        assert_eq!(a.backend, Backend::Abft);
        assert!(a.ilr.is_none() && a.tx.is_none() && a.tmr.is_none());
        assert_eq!(a.abft.as_ref().unwrap().min_data_chains, 1);
        assert_eq!(HardenConfig::abft_fallback_heavy().abft.unwrap().min_data_chains, 2);
        // The default config is full HAFT, not native.
        assert_eq!(HardenConfig::default().label(), "HAFT");
        assert_eq!(Backend::default(), Backend::IlrTx);
    }

    #[test]
    fn labels() {
        let labels: Vec<&str> = OptLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, vec!["N", "S", "C", "L", "F"]);
    }

    /// Pins every labelled variant string, across both backends: reports
    /// and bench tables key on these, so a drift here is an API break.
    #[test]
    fn config_labels_name_variant_and_deviations() {
        assert_eq!(HardenConfig::native().label(), "native");
        assert_eq!(HardenConfig::ilr_only().label(), "ILR");
        assert_eq!(HardenConfig::tx_only().label(), "TX");
        assert_eq!(HardenConfig::haft().label(), "HAFT");
        assert_eq!(HardenConfig::haft_with_elision().label(), "HAFT+el");
        assert_eq!(HardenConfig::haft().without_local_calls().label(), "HAFT-nc");
        assert_eq!(HardenConfig::at_opt_level(OptLevel::None).label(), "HAFT-sm-cf-fp-nc");
        // The TMR backend's variants.
        assert_eq!(HardenConfig::tmr().label(), "TMR");
        assert_eq!(HardenConfig::tmr_unoptimized().label(), "TMR-tl-ve");
        let mut no_tl = HardenConfig::tmr();
        no_tl.tmr = Some(TmrConfig { triplicate_loads: false, ..TmrConfig::default() });
        assert_eq!(no_tl.label(), "TMR-tl");
        let mut no_ve = HardenConfig::tmr();
        no_ve.tmr = Some(TmrConfig { vote_elision: false, ..TmrConfig::default() });
        assert_eq!(no_ve.label(), "TMR-ve");
        // A backend-less TMR config labels by the default TMR settings.
        let bare =
            HardenConfig { backend: Backend::Tmr, ilr: None, tx: None, tmr: None, abft: None };
        assert_eq!(bare.label(), "TMR");
        // The ABFT backend's variants.
        assert_eq!(HardenConfig::abft().label(), "ABFT");
        assert_eq!(HardenConfig::abft_fallback_heavy().label(), "ABFT-fb");
        // A config-less ABFT backend labels by the default settings.
        let bare_abft =
            HardenConfig { backend: Backend::Abft, ilr: None, tx: None, tmr: None, abft: None };
        assert_eq!(bare_abft.label(), "ABFT");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without_local_calls")]
    fn modifier_on_disabled_pass_is_rejected() {
        let _ = HardenConfig::ilr_only().without_local_calls();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "with_lock_elision")]
    fn elision_modifier_on_disabled_pass_is_rejected() {
        let _ = HardenConfig::native().with_lock_elision();
    }
}
