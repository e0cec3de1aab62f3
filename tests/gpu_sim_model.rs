//! Property and invariant tests of the GPU simulator's cost model — the
//! closed-form coalescing math against brute-force address enumeration, and
//! monotonicity of the timing model.

use gpu_sim::coalesce::distinct_segments;
use gpu_sim::{AccessPattern, DeviceSpec, Gpu, Kernel, KernelCost, LaunchConfig, ThreadCtx};
use proptest::prelude::*;

/// Brute-force transaction count: enumerate every lane address of every warp
/// instruction and count distinct segments per instruction.
fn brute_force_transactions(
    accesses: u64,
    elem: u64,
    stride: Option<u64>, // None = broadcast
    warp: u32,
    seg: u64,
) -> u64 {
    let w = warp as u64;
    let mut total = 0;
    let mut issued = 0;
    while issued < accesses {
        let lanes = w.min(accesses - issued);
        let addrs: Vec<u64> = (0..lanes)
            .map(|i| match stride {
                Some(s) => i * s,
                None => 0,
            })
            .collect();
        total += distinct_segments(&addrs, elem, seg);
        issued += lanes;
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Strided-pattern transactions match brute-force enumeration for any
    /// stride, count, and element width.
    #[test]
    fn strided_transactions_match_brute_force(
        accesses in 1u64..5000,
        stride in 1u64..20_000,
        wide in prop::bool::ANY,
    ) {
        let elem = if wide { 8 } else { 4 };
        let p = AccessPattern {
            accesses,
            elem_bytes: elem,
            kind: gpu_sim::PatternKind::Strided { stride_bytes: stride },
        };
        let (tx, _) = p.traffic(32, 128);
        let expect = brute_force_transactions(accesses, elem, Some(stride), 32, 128);
        prop_assert_eq!(tx, expect);
    }

    /// Broadcast is always exactly one transaction per warp instruction.
    #[test]
    fn broadcast_transactions(accesses in 1u64..5000) {
        let p = AccessPattern::broadcast::<f32>(accesses);
        let (tx, _) = p.traffic(32, 128);
        prop_assert_eq!(tx, accesses.div_ceil(32));
    }

    /// Coalesced patterns move exactly the payload (rounded to granules) and
    /// never more than strided patterns of the same size.
    #[test]
    fn coalesced_is_never_worse_than_strided(
        accesses in 1u64..5000,
        stride in 5u64..10_000,
    ) {
        let c = AccessPattern::coalesced::<f32>(accesses);
        let s = AccessPattern::strided::<f32>(accesses, stride);
        let (ctx, cbytes) = c.traffic(32, 128);
        let (stx, sbytes) = s.traffic(32, 128);
        prop_assert!(ctx <= stx);
        prop_assert!(cbytes <= sbytes);
    }

    /// Kernel time is monotone in traffic: more bytes can never be faster.
    #[test]
    fn timing_monotone_in_traffic(n1 in 1u64..1_000_000, n2 in 1u64..1_000_000) {
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let spec = DeviceSpec::gtx280();
        let cfg = LaunchConfig::for_elems(hi as usize, 256);
        let t_lo = gpu_sim::timing::kernel_timing(&spec, &cfg,
            &KernelCost::new().read(AccessPattern::coalesced::<f32>(lo)).active_threads(&cfg, lo));
        let t_hi = gpu_sim::timing::kernel_timing(&spec, &cfg,
            &KernelCost::new().read(AccessPattern::coalesced::<f32>(hi)).active_threads(&cfg, hi));
        prop_assert!(t_lo.total().as_nanos() <= t_hi.total().as_nanos() + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Engine invariants.
// ---------------------------------------------------------------------------

struct Square {
    data: gpu_sim::DViewMut<f32>,
    n: usize,
}
impl Kernel for Square {
    fn name(&self) -> &'static str {
        "square"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            let v = self.data.get(i);
            self.data.set(i, v * v);
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        KernelCost::new()
            .flops_total(self.n as u64)
            .read(AccessPattern::coalesced::<f32>(self.n as u64))
            .write(AccessPattern::coalesced::<f32>(self.n as u64))
            .active_threads(cfg, self.n as u64)
    }
}

#[test]
fn simulated_time_is_deterministic() {
    let mut times = Vec::new();
    for _ in 0..2 {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut buf = gpu.htod(&vec![2.0f32; 4096]);
        for _ in 0..5 {
            gpu.launch(
                LaunchConfig::for_elems(4096, 128),
                &Square {
                    data: buf.view_mut(),
                    n: 4096,
                },
            );
        }
        times.push(gpu.elapsed().as_nanos());
    }
    assert_eq!(times[0], times[1]);
}

#[test]
fn faster_device_is_not_slower_on_bandwidth_bound_work() {
    // TITAN has ~2× the bandwidth of the GTX 280; a large streaming kernel
    // must not be slower on it.
    let mut elapsed = Vec::new();
    for spec in [DeviceSpec::gtx280(), DeviceSpec::gtx_titan()] {
        let gpu = Gpu::new(spec);
        let mut buf = gpu.htod(&vec![1.0f32; 1 << 20]);
        gpu.launch(
            LaunchConfig::for_elems(1 << 20, 256),
            &Square {
                data: buf.view_mut(),
                n: 1 << 20,
            },
        );
        let c = gpu.counters();
        elapsed.push((c.elapsed - c.breakdown.get(gpu_sim::TimeCategory::TransferH2D)).as_nanos());
    }
    assert!(
        elapsed[1] <= elapsed[0],
        "titan {} vs gtx280 {}",
        elapsed[1],
        elapsed[0]
    );
}

#[test]
fn counters_account_for_all_time() {
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let mut buf = gpu.htod(&vec![1.0f32; 1024]);
    gpu.launch(
        LaunchConfig::for_elems(1024, 128),
        &Square {
            data: buf.view_mut(),
            n: 1024,
        },
    );
    let _ = gpu.dtoh(&buf);
    let c = gpu.counters();
    let sum: f64 = gpu_sim::TimeCategory::ALL
        .iter()
        .map(|cat| c.breakdown.get(*cat).as_nanos())
        .sum();
    assert!(
        (sum - c.elapsed.as_nanos()).abs() < 1.0,
        "breakdown must cover elapsed"
    );
    assert_eq!(c.kernels_launched, 1);
    assert_eq!(c.h2d_count, 1);
    assert_eq!(c.d2h_count, 1);
}
