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

/// Which hardening *strategy* a [`HardenConfig`] selects: the variant
/// [`HardenConfig::backend`] names.
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

/// Which passes to run and how: one variant per [`Backend`], each
/// carrying only that backend's pass configuration.
#[derive(Clone, Debug)]
pub enum HardenConfig {
    /// The paper's pipeline: ILR then TX, each optional (both `None` is
    /// the native baseline).
    IlrTx { ilr: Option<IlrConfig>, tx: Option<TxConfig> },
    /// The Elzar-style TMR pass.
    Tmr(TmrConfig),
    /// The ABFT pass, which hardens the functions it cannot cover with
    /// its own default ILR-then-TX.
    Abft(AbftConfig),
}

impl Default for HardenConfig {
    /// The default configuration is full HAFT — the paper's evaluated
    /// pipeline ([`HardenConfig::haft`]), not the native baseline.
    fn default() -> Self {
        Self::haft()
    }
}

impl HardenConfig {
    /// No transformation (the native baseline).
    pub fn native() -> Self {
        HardenConfig::IlrTx { ilr: None, tx: None }
    }

    /// Fault detection only (the paper's "ILR" rows).
    pub fn ilr_only() -> Self {
        HardenConfig::IlrTx { ilr: Some(IlrConfig::default()), tx: None }
    }

    /// Transactions only (the paper's "TX" rows).
    pub fn tx_only() -> Self {
        HardenConfig::IlrTx { ilr: None, tx: Some(TxConfig::default()) }
    }

    /// Full HAFT: ILR + TX with all optimizations.
    pub fn haft() -> Self {
        HardenConfig::IlrTx { ilr: Some(IlrConfig::default()), tx: Some(TxConfig::default()) }
    }

    /// The Elzar-style TMR backend: triplicate computation and mask
    /// faults by majority vote, with no transactional machinery.
    pub fn tmr() -> Self {
        HardenConfig::Tmr(TmrConfig::default())
    }

    /// TMR with every refinement disabled (vote everywhere, single
    /// loads) — the masking analogue of [`IlrConfig::unoptimized`].
    pub fn tmr_unoptimized() -> Self {
        HardenConfig::Tmr(TmrConfig::unoptimized())
    }

    /// The ABFT backend: checksum lanes over recognized accumulation
    /// chains, full HAFT for everything the pass cannot cover.
    pub fn abft() -> Self {
        HardenConfig::Abft(AbftConfig::default())
    }

    /// ABFT with the fallback-heavy claiming threshold: single-chain
    /// functions drop back to full HAFT, so only multi-reduction
    /// kernels keep the checksum protection.
    pub fn abft_fallback_heavy() -> Self {
        HardenConfig::Abft(AbftConfig::fallback_heavy())
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
        HardenConfig::IlrTx { ilr: Some(ilr), tx: Some(tx) }
    }

    /// The backend this configuration selects.
    pub fn backend(&self) -> Backend {
        match self {
            HardenConfig::IlrTx { .. } => Backend::IlrTx,
            HardenConfig::Tmr(_) => Backend::Tmr,
            HardenConfig::Abft(_) => Backend::Abft,
        }
    }

    /// Disables the TX local-call optimization (the paper's `vips-nc`).
    ///
    /// Debug-asserts that the TX pass is enabled: on a TX-less config the
    /// modifier has nothing to modify, and silently returning `self`
    /// unchanged would let a benchmark sweep report a "no local calls"
    /// variant that is actually the base variant.
    pub fn without_local_calls(mut self) -> Self {
        match &mut self {
            HardenConfig::IlrTx { tx: Some(tx), .. } => tx.local_calls_opt = false,
            _ => debug_assert!(
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
        match &mut self {
            HardenConfig::IlrTx { tx: Some(tx), .. } => tx.lock_elision = true,
            _ => debug_assert!(
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
    /// `-ph`; `-tl`, `-ve` for TMR; `-fb` for fallback-heavy ABFT) and
    /// `+el` for lock elision. Distinct configs get distinct labels.
    pub fn label(&self) -> String {
        let (name, flags) = match self {
            HardenConfig::Abft(abft) => (
                "ABFT",
                vec![(abft.min_data_chains > AbftConfig::default().min_data_chains, "-fb")],
            ),
            HardenConfig::Tmr(tmr) => {
                ("TMR", vec![(!tmr.triplicate_loads, "-tl"), (!tmr.vote_elision, "-ve")])
            }
            HardenConfig::IlrTx { ilr, tx } => {
                let mut flags = Vec::new();
                if let Some(ilr) = ilr {
                    flags.extend([
                        (!ilr.shared_mem_opt, "-sm"),
                        (!ilr.control_flow_protection, "-cf"),
                        (!ilr.fault_prop_check, "-fp"),
                        (!ilr.check_elision, "-ce"),
                    ]);
                }
                if let Some(tx) = tx {
                    flags.extend([
                        (!tx.local_calls_opt, "-nc"),
                        (!tx.peephole, "-ph"),
                        (tx.lock_elision, "+el"),
                    ]);
                }
                let name = match (ilr, tx) {
                    (None, None) => "native",
                    (Some(_), None) => "ILR",
                    (None, Some(_)) => "TX",
                    (Some(_), Some(_)) => "HAFT",
                };
                (name, flags)
            }
        };
        flags.into_iter().filter(|(on, _)| *on).fold(name.to_string(), |s, (_, flag)| s + flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ILR and TX configs of an [`HardenConfig::IlrTx`] preset.
    fn ilr_tx(cfg: HardenConfig) -> (Option<IlrConfig>, Option<TxConfig>) {
        match cfg {
            HardenConfig::IlrTx { ilr, tx } => (ilr, tx),
            other => panic!("{} is not an ILR/TX config", other.label()),
        }
    }

    #[test]
    fn opt_levels_are_cumulative() {
        let (ilr, tx) = ilr_tx(HardenConfig::at_opt_level(OptLevel::None));
        assert!(!ilr.unwrap().shared_mem_opt);
        assert!(!tx.unwrap().local_calls_opt);
        let (ilr, _) = ilr_tx(HardenConfig::at_opt_level(OptLevel::SharedMem));
        assert!(ilr.as_ref().unwrap().shared_mem_opt);
        assert!(!ilr.unwrap().control_flow_protection);
        let (ilr, tx) = ilr_tx(HardenConfig::at_opt_level(OptLevel::FaultProp));
        assert!(ilr.unwrap().fault_prop_check);
        assert!(tx.unwrap().local_calls_opt);
    }

    #[test]
    fn preset_shapes() {
        assert!(ilr_tx(HardenConfig::native()).0.is_none());
        assert!(ilr_tx(HardenConfig::ilr_only()).1.is_none());
        assert!(ilr_tx(HardenConfig::tx_only()).0.is_none());
        let (ilr, tx) = ilr_tx(HardenConfig::haft());
        assert!(ilr.is_some() && tx.is_some());
        assert!(ilr_tx(HardenConfig::haft_with_elision()).1.unwrap().lock_elision);
        assert!(!ilr_tx(HardenConfig::haft().without_local_calls()).1.unwrap().local_calls_opt);
    }

    #[test]
    fn backend_shapes() {
        for cfg in [
            HardenConfig::native(),
            HardenConfig::ilr_only(),
            HardenConfig::tx_only(),
            HardenConfig::haft(),
            HardenConfig::haft_with_elision(),
            HardenConfig::at_opt_level(OptLevel::SharedMem),
        ] {
            assert_eq!(cfg.backend(), Backend::IlrTx);
        }
        for cfg in [HardenConfig::tmr(), HardenConfig::tmr_unoptimized()] {
            assert_eq!(cfg.backend(), Backend::Tmr);
        }
        for cfg in [HardenConfig::abft(), HardenConfig::abft_fallback_heavy()] {
            assert_eq!(cfg.backend(), Backend::Abft);
        }
        let HardenConfig::Tmr(t) = HardenConfig::tmr() else { unreachable!() };
        assert!(t.triplicate_loads);
        let HardenConfig::Tmr(t) = HardenConfig::tmr_unoptimized() else { unreachable!() };
        assert!(!t.triplicate_loads);
        let HardenConfig::Abft(a) = HardenConfig::abft() else { unreachable!() };
        assert_eq!(a.min_data_chains, 1);
        let HardenConfig::Abft(a) = HardenConfig::abft_fallback_heavy() else { unreachable!() };
        assert_eq!(a.min_data_chains, 2);
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
        let no_tl =
            HardenConfig::Tmr(TmrConfig { triplicate_loads: false, ..TmrConfig::default() });
        assert_eq!(no_tl.label(), "TMR-tl");
        let no_ve = HardenConfig::Tmr(TmrConfig { vote_elision: false, ..TmrConfig::default() });
        assert_eq!(no_ve.label(), "TMR-ve");
        // The ABFT backend's variants.
        assert_eq!(HardenConfig::abft().label(), "ABFT");
        assert_eq!(HardenConfig::abft_fallback_heavy().label(), "ABFT-fb");
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
