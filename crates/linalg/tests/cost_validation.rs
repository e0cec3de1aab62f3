//! Validation of kernel cost descriptors against hand-derived traffic.
//!
//! The simulator trusts each kernel's declared access patterns; these tests
//! pin the declared transaction/byte counts for every simublas kernel on
//! shapes small enough to count by hand, so a drifting descriptor (the
//! classic simulator bug) fails loudly.

use gpu_sim::{DeviceSpec, Gpu, Launcher, TimeCategory};
use linalg::gpu::{
    self as gblas, DeviceMatrix, GemvTStrategy, Layout, GEMV_N_STRIP_CANDIDATES, GEMV_N_STRIP_TIE,
};
use linalg::DenseMatrix;

const WARP: u64 = 32;

fn gpu() -> Gpu {
    Gpu::new(DeviceSpec::gtx280())
}

/// Transactions of a perfectly coalesced f32 pattern of `n` accesses.
fn coalesced_tx(n: u64) -> u64 {
    // Full warps: 1 transaction each (32 × 4 B = 128 B); tail: 1.
    n / WARP + u64::from(!n.is_multiple_of(WARP))
}

#[test]
fn axpy_traffic_matches_hand_count() {
    let g = gpu();
    let n = 1024u64;
    let x = g.htod(&vec![1.0f32; n as usize]);
    let mut y = g.htod(&vec![2.0f32; n as usize]);
    g.reset_counters();
    gblas::axpy(&g, 0.5f32, x.view(), y.view_mut()).unwrap();
    let c = g.counters();
    // Reads: x + y coalesced; write: y coalesced.
    assert_eq!(c.transactions, 3 * coalesced_tx(n));
    assert_eq!(c.mem_bytes, 3 * n * 4);
    assert_eq!(c.flops, 2 * n);
    assert_eq!(c.kernels_launched, 1);
}

#[test]
fn gemv_n_col_major_traffic() {
    // The thread-per-row kernel (one strip), on the shape the split-K test
    // below counts too.
    let g = gpu();
    let (m, n) = (64usize, 48usize);
    let a = DeviceMatrix::upload(&g, &DenseMatrix::<f32>::zeros(m, n), Layout::ColMajor).unwrap();
    let x = g.htod(&vec![1.0f32; n]);
    let mut y = g.htod(&vec![0.0f32; m]);
    g.reset_counters();
    let mut l = Launcher::Direct(&g);
    gblas::gemv_n_split_on(&mut l, 1, 1.0f32, &a, x.view(), 0.0, y.view_mut()).unwrap();
    let c = g.counters();
    let mn = (m * n) as u64;
    // A coalesced (mn), x broadcast (1 tx per warp-instruction), y read +
    // write coalesced (m each).
    let expect = coalesced_tx(mn) + mn.div_ceil(WARP) + 2 * coalesced_tx(m as u64);
    assert_eq!(c.transactions, expect);
    assert_eq!(c.flops, 2 * mn + 2 * m as u64);
    assert_eq!(c.kernels_launched, 1);
}

#[test]
fn split_k_gemv_n_col_major_traffic() {
    let g = gpu();
    let (m, n) = (64usize, 48usize);
    let strips = gblas::gemv_n_strips::<f32>(g.spec(), Layout::ColMajor, m, n);
    assert_eq!(strips, 16, "the chooser splits 64 × 48 into 16 strips");
    let a = DeviceMatrix::upload(&g, &DenseMatrix::<f32>::zeros(m, n), Layout::ColMajor).unwrap();
    let x = g.htod(&vec![1.0f32; n]);
    let mut y = g.htod(&vec![0.0f32; m]);
    g.reset_counters();
    gblas::gemv_n(&g, 1.0f32, &a, x.view(), 0.0, y.view_mut()).unwrap();
    let c = g.counters();
    let (mn, ms, m64) = ((m * n) as u64, (m * strips) as u64, m as u64);
    // Pass 1 (m·s threads): A coalesced (mn), x broadcast (1 tx per
    // warp-instruction), partials written coalesced (m·s).
    let pass1 = coalesced_tx(mn) + mn.div_ceil(WARP) + coalesced_tx(ms);
    // Pass 2 (m threads): partial k of row i sits at k·m + i, so lanes read
    // consecutive rows — coalesced (m·s); y read + write coalesced.
    let pass2 = coalesced_tx(ms) + 2 * coalesced_tx(m64);
    assert_eq!(c.transactions, pass1 + pass2);
    assert_eq!(c.flops, 2 * mn + (ms + 2 * m64));
    assert_eq!(c.kernels_launched, 2);
}

#[test]
fn strip_chooser_returns_least_modeled_body_time() {
    // Launch every candidate strip count and read the kernel-body time the
    // device charged; the chooser must pick the least, ties to fewer strips.
    let spec = DeviceSpec::gtx280();
    for (m, n) in [
        (1, 1),
        (8, 8),
        (32, 32),
        (32, 48),
        (48, 48),
        (64, 48),
        (70, 45),
        (448, 448),
    ] {
        let host = DenseMatrix::<f32>::zeros(m, n);
        let body: Vec<(usize, f64)> = GEMV_N_STRIP_CANDIDATES
            .iter()
            .filter(|&&s| s == 1 || s <= n)
            .map(|&s| {
                let g = Gpu::new(spec.clone());
                let a = DeviceMatrix::upload(&g, &host, Layout::ColMajor).unwrap();
                let x = g.htod(&vec![1.0f32; n]);
                let mut y = g.htod(&vec![0.0f32; m]);
                g.reset_counters();
                let mut l = Launcher::Direct(&g);
                gblas::gemv_n_split_on(&mut l, s, 1.0f32, &a, x.view(), 0.0, y.view_mut()).unwrap();
                let t = g.counters().breakdown.get(TimeCategory::KernelBody);
                (s, t.as_nanos())
            })
            .collect();
        let least = body.iter().map(|b| b.1).fold(f64::INFINITY, f64::min);
        let expect = body
            .iter()
            .find(|b| b.1 <= least * (1.0 + GEMV_N_STRIP_TIE))
            .unwrap()
            .0;
        let got = gblas::gemv_n_strips::<f32>(&spec, Layout::ColMajor, m, n);
        assert_eq!(got, expect, "{m} × {n}: bodies {body:?}");
        if m <= 32 && n <= 32 {
            assert_eq!(got, 1, "{m} × {n} must keep one thread per row");
        }
    }
    // On square bases the chooser keeps one thread per row up to m = 48
    // (where one and 32 strips tie) and splits from 64 rows up.
    let strips = |m| gblas::gemv_n_strips::<f32>(&spec, Layout::ColMajor, m, m);
    assert!((1..=48).all(|m| strips(m) == 1));
    assert_eq!(strips(64), 32);
    assert_eq!(strips(448), 32);
}

#[test]
fn gemv_n_row_major_pays_strided_reads() {
    let g = gpu();
    let (m, n) = (64usize, 48usize);
    let host = DenseMatrix::<f32>::zeros(m, n);
    let mut tx = Vec::new();
    for layout in [Layout::ColMajor, Layout::RowMajor] {
        let g2 = gpu();
        let a = DeviceMatrix::upload(&g2, &host, layout).unwrap();
        let x = g2.htod(&vec![1.0f32; n]);
        let mut y = g2.htod(&vec![0.0f32; m]);
        g2.reset_counters();
        gblas::gemv_n(&g2, 1.0f32, &a, x.view(), 0.0, y.view_mut()).unwrap();
        tx.push(g2.counters().transactions);
    }
    let _ = (g, m);
    // Row-major: lanes stride by n×4 = 192 B → every lane its own segment:
    // mn transactions on A alone. Must dominate the col-major total.
    assert!(
        tx[1] > 20 * tx[0] / 2,
        "row-major {} vs col-major {}",
        tx[1],
        tx[0]
    );
    let mn = (64 * 48) as u64;
    assert!(
        tx[1] >= mn,
        "row-major must pay ≥ one transaction per element"
    );
}

#[test]
fn pivot_update_traffic_is_quadratic_with_broadcast_rowp() {
    let g = gpu();
    let m = 96usize;
    let mut binv = DeviceMatrix::<f32>::identity(&g, m, Layout::ColMajor).unwrap();
    let alpha = g.htod(&vec![0.25f32; m]);
    g.reset_counters();
    gblas::pivot_update(&g, &mut binv, alpha.view(), 3).unwrap();
    let c = g.counters();
    let mm = (m * m) as u64;
    let m64 = m as u64;
    // eta kernel: read α coalesced m + broadcast m, write m.
    let eta = 2 * coalesced_tx(m64) + m64.div_ceil(WARP);
    // row extract: strided read m (stride m×4 = 384 B → 1 tx/lane) + write.
    let extract = m64 + coalesced_tx(m64);
    // update: read B⁻¹ + eta coalesced (mm each), rowp broadcast, write mm.
    let update = 3 * coalesced_tx(mm) + mm.div_ceil(WARP);
    assert_eq!(c.transactions, eta + extract + update);
    assert_eq!(c.kernels_launched, 3);
    assert_eq!(c.flops, 2 * m64 + 2 * mm);
}

#[test]
fn two_pass_gemv_t_moves_less_than_naive_on_col_major() {
    let (m, n) = (256usize, 256usize);
    let host = DenseMatrix::<f32>::zeros(m, n);
    let mut stats = Vec::new();
    for strat in [GemvTStrategy::TwoPass, GemvTStrategy::Naive] {
        let g = gpu();
        let a = DeviceMatrix::upload(&g, &host, Layout::ColMajor).unwrap();
        let x = g.htod(&vec![1.0f32; m]);
        let mut y = g.htod(&vec![0.0f32; n]);
        g.reset_counters();
        gblas::gemv_t(&g, 1.0f32, &a, x.view(), 0.0, y.view_mut(), strat).unwrap();
        stats.push(g.counters());
    }
    // Naive: lanes stride by m×4 = 1 KiB on A → mn transactions.
    let mn = (m * n) as u64;
    assert!(stats[1].transactions >= mn);
    // Two-pass keeps A coalesced; its residual cost is the pass-2 strided
    // partial read (n·32 lanes, 128 B apart). Net ≈ 5× fewer transactions
    // at 256×256, growing with m.
    assert!(
        stats[0].transactions * 4 < stats[1].transactions,
        "two-pass {} vs naive {}",
        stats[0].transactions,
        stats[1].transactions
    );
    // And both computed the same thing with the same flop count (±ε for the
    // second-pass accumulation).
    assert!(stats[0].flops >= 2 * mn && stats[1].flops >= 2 * mn);
}

#[test]
fn dot_reduction_traffic_is_linear_with_log_passes() {
    let g = gpu();
    let n = 4096usize;
    let x = g.htod(&vec![1.0f32; n]);
    let y = g.htod(&vec![2.0f32; n]);
    g.reset_counters();
    let r = gblas::dot(&g, x.view(), y.view()).unwrap();
    assert_eq!(r, 2.0 * n as f32);
    let c = g.counters();
    // mul_ew (1) + reduce passes 4096 → 8 → 1 (2 launches).
    assert_eq!(c.kernels_launched, 3);
    // One tiny d2h for the scalar result.
    assert_eq!(c.d2h_count, 1);
    assert_eq!(c.d2h_bytes, 4);
    // Traffic: mul_ew 3n + pass1 (n read + 8 write) + pass2 (8 read + 1
    // write) — bytes at 32 B granularity for the small tails.
    assert!(c.mem_bytes >= (3 * n + n) as u64 * 4);
    assert!(c.mem_bytes <= (4 * n + 200) as u64 * 4);
}

#[test]
fn elapsed_time_scales_sublinearly_then_linearly_with_size() {
    // Launch-overhead floor at small n; bandwidth-bound growth at large n —
    // the simulator must show both regimes for a single kernel type.
    let mut times = Vec::new();
    for &n in &[256usize, 1024, 1 << 20] {
        let g = gpu();
        let x = g.htod(&vec![1.0f32; n]);
        let mut y = g.htod(&vec![1.0f32; n]);
        g.reset_counters();
        gblas::axpy(&g, 1.0f32, x.view(), y.view_mut()).unwrap();
        times.push(g.elapsed().as_nanos());
    }
    // Small sizes: both dominated by the same launch overhead (within 10%).
    assert!((times[0] - times[1]).abs() / times[0] < 0.1);
    // Large size: clearly bandwidth-bound, far above the overhead floor.
    assert!(times[2] > 5.0 * times[0]);
}
