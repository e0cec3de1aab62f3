//! Criterion benches of the individual simplex steps (F2's decomposition,
//! wall-clock view): pricing, FTRAN, ratio test, update — on the GPU
//! backend path via single iterations of the driver's op sequence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gplex::backend::Backend;
use gplex::backends::{CpuDenseBackend, GpuDenseBackend};
use gpu_sim::{DeviceSpec, Gpu};
use lp::{generator, StandardForm};

fn bench_steps_gpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("steps-gpu");
    for &m in &[256usize, 1024] {
        let model = generator::dense_random(m, m, 1);
        let sf = StandardForm::<f32>::from_lp(&model).expect("standardizes");
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut be = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
        be.set_phase_costs(&sf.c).unwrap();
        let cb: Vec<f32> = sf.basis0.iter().map(|&j| sf.c[j]).collect();
        be.set_basic_costs(&cb).unwrap();
        be.compute_pricing().unwrap();
        let (q, _) = be
            .entering_dantzig(1e-5)
            .expect("no device fault")
            .expect("improvable start");
        be.compute_alpha(q).unwrap();

        g.bench_with_input(BenchmarkId::new("pricing", m), &m, |b, _| {
            b.iter(|| be.compute_pricing().unwrap())
        });
        g.bench_with_input(BenchmarkId::new("selection", m), &m, |b, _| {
            b.iter(|| black_box(be.entering_dantzig(1e-5).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("ftran", m), &m, |b, _| {
            b.iter(|| be.compute_alpha(q).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("ratio", m), &m, |b, _| {
            b.iter(|| black_box(be.ratio_test(1e-5).unwrap()))
        });
    }
    g.finish();
}

fn bench_steps_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("steps-cpu");
    for &m in &[256usize, 1024] {
        let model = generator::dense_random(m, m, 1);
        let sf = StandardForm::<f32>::from_lp(&model).expect("standardizes");
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
        be.set_phase_costs(&sf.c).unwrap();
        let cb: Vec<f32> = sf.basis0.iter().map(|&j| sf.c[j]).collect();
        be.set_basic_costs(&cb).unwrap();
        be.compute_pricing().unwrap();
        let (q, _) = be
            .entering_dantzig(1e-5)
            .expect("no device fault")
            .expect("improvable start");
        be.compute_alpha(q).unwrap();

        g.bench_with_input(BenchmarkId::new("pricing", m), &m, |b, _| {
            b.iter(|| be.compute_pricing().unwrap())
        });
        g.bench_with_input(BenchmarkId::new("ftran", m), &m, |b, _| {
            b.iter(|| be.compute_alpha(q).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("ratio", m), &m, |b, _| {
            b.iter(|| black_box(be.ratio_test(1e-5).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_steps_gpu, bench_steps_cpu);
criterion_main!(benches);
