//! Deterministic fault injection for the simulated device.
//!
//! Real GPU deployments fail in a handful of well-known ways: allocations
//! hit the 1 GiB capacity wall, PCIe transfers stall, kernels scribble NaN
//! over their output, and a whole context dies taking every queued launch
//! with it. The solver stack above the simulator must survive all of them,
//! so the simulator can *inject* them — reproducibly.
//!
//! A [`FaultConfig`] describes the per-operation fault probabilities plus a
//! seed; arming a [`FaultPlan`] built from it on a [`crate::Gpu`] (or on a
//! [`crate::Stream`], which derefs to `Gpu`) makes every subsequent
//! `try_*` device operation roll against the plan **before** doing any
//! work or charging any time. Determinism is total: the plan owns a
//! counter-stamped xorshift generator, every operation kind consumes a
//! fixed number of draws, and device operations are issued in program
//! order per stream — so a given `(seed, op sequence)` always produces the
//! same faults, independent of host threading.
//!
//! The fault taxonomy mirrors what the recovery layer in `gplex` must
//! handle:
//!
//! * [`DeviceError::Oom`] — allocation denied (injected or a genuine
//!   capacity overflow on the simulated card).
//! * [`DeviceError::TransferTimeout`] — a host↔device copy timed out.
//! * [`DeviceError::KernelFault`] — a launch aborted before completing.
//! * Silent corruption — the launch "succeeds" but its output is poisoned
//!   with NaN by the library layer (see [`FaultPlan`] / `take_corruption`);
//!   this is the fault only *numerical* detection can catch.
//! * [`DeviceError::StreamDead`] — the context is gone; sticky, every
//!   later operation on the same plan fails the same way.

use std::fmt;

/// A device-level failure surfaced by the fallible (`try_*`) device API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Allocation denied: injected OOM or genuine capacity overflow.
    Oom {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes already allocated on the device.
        allocated: u64,
        /// Device memory capacity in bytes.
        capacity: u64,
    },
    /// A host↔device transfer timed out.
    TransferTimeout {
        /// Size of the failed transfer.
        bytes: u64,
    },
    /// A kernel launch aborted (the simulated `unspecified launch failure`).
    KernelFault {
        /// Name of the faulting kernel.
        kernel: &'static str,
    },
    /// The stream/context died; all further operations on it fail.
    StreamDead,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Oom {
                requested,
                allocated,
                capacity,
            } => write!(
                f,
                "simulated device out of memory: {requested} B requested with \
                 {allocated} B already allocated > {capacity} B capacity"
            ),
            DeviceError::TransferTimeout { bytes } => {
                write!(f, "simulated PCIe transfer of {bytes} B timed out")
            }
            DeviceError::KernelFault { kernel } => {
                write!(f, "simulated launch failure in kernel `{kernel}`")
            }
            DeviceError::StreamDead => write!(f, "simulated stream died; context is lost"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Seeded fault probabilities for one [`FaultPlan`].
///
/// Probabilities are per *operation* of the matching kind; `0.0` disables
/// that fault. `warmup_ops` exempts the first N operations so setup
/// (uploads of `A`, `B⁻¹`, …) can complete before the weather turns.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; the whole fault sequence is a pure function of it.
    pub seed: u64,
    /// Number of leading operations that never fault.
    pub warmup_ops: u64,
    /// P(allocation fails with [`DeviceError::Oom`]).
    pub alloc_oom: f64,
    /// P(transfer fails with [`DeviceError::TransferTimeout`]).
    pub transfer_timeout: f64,
    /// P(launch fails with [`DeviceError::KernelFault`]).
    pub kernel_fault: f64,
    /// P(launch silently corrupts its output with NaN).
    pub kernel_corrupt: f64,
    /// P(any operation kills the stream — sticky [`DeviceError::StreamDead`]).
    pub stream_death: f64,
    /// Restrict injection to operations whose name is in this list (exact
    /// match on the kernel name; fused launch chains check under their
    /// group name, e.g. `"mega_price"` / `"mega_update"`, so the SoA batch
    /// kernels are targetable as a unit). Empty = every operation is
    /// eligible (the historical behavior). Untargeted operations advance
    /// the op counter but consume **no** RNG draws, so a filtered schedule
    /// stays a pure function of the seed and the op-name sequence.
    pub only_ops: Vec<&'static str>,
}

impl FaultConfig {
    /// A config that never faults (useful as a base to tweak).
    pub fn off(seed: u64) -> Self {
        FaultConfig {
            seed,
            warmup_ops: 0,
            alloc_oom: 0.0,
            transfer_timeout: 0.0,
            kernel_fault: 0.0,
            kernel_corrupt: 0.0,
            stream_death: 0.0,
            only_ops: Vec::new(),
        }
    }

    /// Uniform pressure: every fault kind at probability `p` except stream
    /// death, which is two orders rarer (it is sticky and would otherwise
    /// dominate). A small warmup lets problem upload complete.
    pub fn uniform(seed: u64, p: f64) -> Self {
        FaultConfig {
            seed,
            warmup_ops: 8,
            alloc_oom: p,
            transfer_timeout: p,
            kernel_fault: p,
            kernel_corrupt: p,
            stream_death: p / 100.0,
            only_ops: Vec::new(),
        }
    }

    /// Restrict this config to the named operations (see
    /// [`FaultConfig::only_ops`]). Lets a test or chaos experiment aim
    /// faults at, say, only the mega-batch update chain while setup
    /// uploads and per-lane kernels run clean.
    pub fn only(mut self, ops: &[&'static str]) -> Self {
        self.only_ops = ops.to_vec();
        self
    }

    /// Derive a config with a statistically independent seed. Used to give
    /// each job/attempt its own deterministic fault sequence.
    pub fn reseed(&self, salt: u64) -> Self {
        let mut c = self.clone();
        c.seed = splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        c
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected allocation OOMs.
    pub oom: u64,
    /// Injected transfer timeouts.
    pub transfer_timeouts: u64,
    /// Injected kernel launch failures.
    pub kernel_faults: u64,
    /// Injected silent output corruptions.
    pub corruptions: u64,
    /// Stream deaths (at most 1 per plan; later ops re-report `StreamDead`
    /// without recounting).
    pub stream_deaths: u64,
    /// Operations checked against the plan (post-warmup and pre-death).
    pub ops_checked: u64,
}

impl FaultCounts {
    /// Total injected faults (corruptions included; `ops_checked` is not a
    /// fault).
    pub fn total(&self) -> u64 {
        self.oom
            + self.transfer_timeouts
            + self.kernel_faults
            + self.corruptions
            + self.stream_deaths
    }
}

/// The kind of device operation being checked against a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `alloc` / `htod` allocation half.
    Alloc,
    /// Any host↔device copy.
    Transfer,
    /// A kernel launch.
    Kernel,
}

/// What a fault roll decided for an operation that was allowed to proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Proceed normally.
    None,
    /// Proceed, but the output of this launch is silently corrupted; the
    /// library layer must poison it with NaN.
    Corrupt,
}

/// A live, seeded fault plan: the mutable state armed on one device/stream.
///
/// Each operation kind consumes a **fixed** number of RNG draws (two for
/// alloc/transfer, three for kernels), so outcomes depend only on the seed
/// and the sequence of operation kinds — never on probabilities of fault
/// kinds that did not fire, and never on host scheduling.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: u64,
    ops: u64,
    dead: bool,
    counts: FaultCounts,
}

impl FaultPlan {
    /// Build a plan from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        // xorshift64 must not start at 0; splitmix also decorrelates
        // adjacent seeds.
        let rng = splitmix64(cfg.seed).max(1);
        FaultPlan {
            cfg,
            rng,
            ops: 0,
            dead: false,
            counts: FaultCounts::default(),
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injected-fault counts so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Whether the stream has died (sticky).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: good enough for fault coin flips, zero deps.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Roll a coin with probability `p`. Always consumes one draw so the
    /// stream stays aligned whatever the probabilities are.
    fn roll(&mut self, p: f64) -> bool {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Check one operation against the plan. `Err` means the operation must
    /// fail without doing work; `Ok(Injection::Corrupt)` (kernels only)
    /// means it proceeds but its output must be poisoned.
    pub(crate) fn before_op(
        &mut self,
        op: OpKind,
        kernel: &'static str,
    ) -> Result<Injection, DeviceError> {
        if self.dead {
            return Err(DeviceError::StreamDead);
        }
        self.ops += 1;
        if self.ops <= self.cfg.warmup_ops {
            return Ok(Injection::None);
        }
        // Name filter: untargeted ops pass through before any RNG draw, so
        // the schedule for the targeted ops is independent of how many
        // other operations interleave with them.
        if !self.cfg.only_ops.is_empty() && !self.cfg.only_ops.contains(&kernel) {
            return Ok(Injection::None);
        }
        self.counts.ops_checked += 1;
        // Fixed draw schedule: death roll first, then the kind-specific
        // roll(s). Kernels roll fault then corruption.
        if self.roll(self.cfg.stream_death) {
            self.dead = true;
            self.counts.stream_deaths += 1;
            return Err(DeviceError::StreamDead);
        }
        match op {
            OpKind::Alloc => {
                if self.roll(self.cfg.alloc_oom) {
                    self.counts.oom += 1;
                    // Caller fills in the real numbers; the sentinel is
                    // replaced in `Gpu::try_record_alloc`.
                    return Err(DeviceError::Oom {
                        requested: 0,
                        allocated: 0,
                        capacity: 0,
                    });
                }
            }
            OpKind::Transfer => {
                if self.roll(self.cfg.transfer_timeout) {
                    self.counts.transfer_timeouts += 1;
                    return Err(DeviceError::TransferTimeout { bytes: 0 });
                }
            }
            OpKind::Kernel => {
                let fault = self.roll(self.cfg.kernel_fault);
                let corrupt = self.roll(self.cfg.kernel_corrupt);
                if fault {
                    self.counts.kernel_faults += 1;
                    return Err(DeviceError::KernelFault { kernel });
                }
                if corrupt {
                    self.counts.corruptions += 1;
                    return Ok(Injection::Corrupt);
                }
            }
        }
        Ok(Injection::None)
    }
}

/// splitmix64 finalizer: decorrelates nearby seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plan: &mut FaultPlan, n: usize) -> Vec<Result<Injection, DeviceError>> {
        // A fixed mixed op sequence: alloc, transfer, kernel, kernel, ...
        (0..n)
            .map(|i| match i % 4 {
                0 => plan.before_op(OpKind::Alloc, ""),
                1 => plan.before_op(OpKind::Transfer, ""),
                _ => plan.before_op(OpKind::Kernel, "k"),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let cfg = FaultConfig::uniform(42, 0.3);
        let a = drive(&mut FaultPlan::new(cfg.clone()), 200);
        let b = drive(&mut FaultPlan::new(cfg), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = drive(&mut FaultPlan::new(FaultConfig::uniform(1, 0.3)), 200);
        let b = drive(&mut FaultPlan::new(FaultConfig::uniform(2, 0.3)), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn reseed_changes_sequence_deterministically() {
        let base = FaultConfig::uniform(7, 0.3);
        let a = drive(&mut FaultPlan::new(base.reseed(1)), 200);
        let b = drive(&mut FaultPlan::new(base.reseed(2)), 200);
        let a2 = drive(&mut FaultPlan::new(base.reseed(1)), 200);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn warmup_ops_never_fault() {
        let mut cfg = FaultConfig::uniform(3, 1.0);
        cfg.stream_death = 0.0;
        cfg.warmup_ops = 16;
        let mut plan = FaultPlan::new(cfg);
        let outcomes = drive(&mut plan, 16);
        assert!(outcomes.iter().all(|o| *o == Ok(Injection::None)));
        // Op 17 must fault (probability 1 post-warmup).
        assert!(plan.before_op(OpKind::Alloc, "").is_err());
    }

    #[test]
    fn stream_death_is_sticky() {
        let mut cfg = FaultConfig::off(9);
        cfg.stream_death = 1.0;
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(
            plan.before_op(OpKind::Kernel, "k"),
            Err(DeviceError::StreamDead)
        );
        assert!(plan.is_dead());
        // Every later op fails the same way, without recounting.
        for _ in 0..5 {
            assert_eq!(
                plan.before_op(OpKind::Alloc, ""),
                Err(DeviceError::StreamDead)
            );
        }
        assert_eq!(plan.counts().stream_deaths, 1);
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let mut cfg = FaultConfig::off(11);
        cfg.kernel_fault = 0.25;
        let mut plan = FaultPlan::new(cfg);
        let mut faults = 0;
        for _ in 0..4000 {
            // Dead never triggers (p=0), so only kernel faults can fail.
            if plan.before_op(OpKind::Kernel, "k").is_err() {
                faults += 1;
            }
        }
        let rate = faults as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate} too far from 0.25");
        assert_eq!(plan.counts().kernel_faults, faults);
    }

    #[test]
    fn zero_config_never_faults() {
        let mut plan = FaultPlan::new(FaultConfig::off(5));
        assert!(drive(&mut plan, 500)
            .iter()
            .all(|o| *o == Ok(Injection::None)));
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn op_name_filter_targets_only_named_ops() {
        // p = 1 on kernels, but only ops named "mega_update" are eligible:
        // every other operation — allocs, transfers, other kernels — must
        // sail through untouched, and the named op must fault every time.
        let cfg = FaultConfig {
            kernel_fault: 1.0,
            ..FaultConfig::off(21)
        }
        .only(&["mega_update"]);
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.before_op(OpKind::Alloc, ""), Ok(Injection::None));
        assert_eq!(plan.before_op(OpKind::Transfer, ""), Ok(Injection::None));
        assert_eq!(plan.before_op(OpKind::Kernel, "gemv"), Ok(Injection::None));
        assert_eq!(
            plan.before_op(OpKind::Kernel, "mega_update"),
            Err(DeviceError::KernelFault {
                kernel: "mega_update"
            })
        );
        // Untargeted ops consumed no draws: only the targeted op counts.
        assert_eq!(plan.counts().ops_checked, 1);
        assert_eq!(plan.counts().kernel_faults, 1);
    }

    #[test]
    fn op_name_filter_schedule_is_independent_of_untargeted_ops() {
        // The targeted op's fault schedule must not shift when extra
        // untargeted operations interleave with it (warmup is op-count
        // based, so it is zeroed here to keep the counter out of play).
        let mut cfg = FaultConfig::uniform(33, 0.4).only(&["mega_price"]);
        cfg.warmup_ops = 0;
        let run = |noise: usize| {
            let mut plan = FaultPlan::new(cfg.clone());
            let mut outcomes = Vec::new();
            for _ in 0..50 {
                for _ in 0..noise {
                    assert_eq!(plan.before_op(OpKind::Kernel, "other"), Ok(Injection::None));
                }
                outcomes.push(plan.before_op(OpKind::Kernel, "mega_price"));
            }
            outcomes
        };
        assert_eq!(run(0), run(7));
    }

    #[test]
    fn display_strings_are_stable() {
        let e = DeviceError::Oom {
            requested: 8,
            allocated: 4,
            capacity: 10,
        };
        assert!(e.to_string().contains("out of memory"));
        assert!(DeviceError::TransferTimeout { bytes: 64 }
            .to_string()
            .contains("timed out"));
        assert!(DeviceError::KernelFault { kernel: "gemv" }
            .to_string()
            .contains("gemv"));
        assert!(DeviceError::StreamDead.to_string().contains("stream died"));
    }
}
