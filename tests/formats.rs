//! The shipped sample model files must parse and solve to their documented
//! optima — keeps `data/` and the examples honest.

use gplex::{BackendKind, SolveRequest, SolverOptions, Status};
use gpu_sim::DeviceSpec;

/// The three standard backends, for golden cross-backend regressions.
fn all_backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

#[test]
fn sample_mps_solves_to_documented_optimum() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.mps"))
        .expect("sample.mps present");
    let model = lp::mps::parse(&text).expect("sample.mps parses");
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective + 36.0).abs() < 1e-9, "{}", sol.objective);
    let doors = model.var_by_name("DOORS").unwrap();
    let windows = model.var_by_name("WINDOWS").unwrap();
    assert!((sol.x[doors.0] - 2.0).abs() < 1e-9);
    assert!((sol.x[windows.0] - 6.0).abs() < 1e-9);
}

#[test]
fn sample_lp_solves_to_documented_optimum() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.lp"))
        .expect("sample.lp present");
    let model = lp::lpformat::parse(&text).expect("sample.lp parses");
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 13.0).abs() < 1e-9, "{}", sol.objective);
}

/// Golden regression: the shipped sample files must solve to their pinned
/// objectives on *every* backend, not just the default CPU path. The pins
/// are the documented optima (sample.mps is Wyndor stated as minimization,
/// objective −36; sample.lp is the production fixture, objective 13).
#[test]
fn sample_files_pin_objectives_on_all_backends() {
    let mps = lp::mps::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.mps"))
            .expect("sample.mps present"),
    )
    .expect("sample.mps parses");
    let lpf = lp::lpformat::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample.lp"))
            .expect("sample.lp present"),
    )
    .expect("sample.lp parses");
    for kind in all_backends() {
        let a = SolveRequest::model(&mps, &SolverOptions::default())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(a.status, Status::Optimal, "sample.mps on {kind:?}");
        assert!(
            (a.objective + 36.0).abs() < 1e-9,
            "sample.mps on {kind:?}: {}",
            a.objective
        );

        let b = SolveRequest::model(&lpf, &SolverOptions::default())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(b.status, Status::Optimal, "sample.lp on {kind:?}");
        assert!(
            (b.objective - 13.0).abs() < 1e-9,
            "sample.lp on {kind:?}: {}",
            b.objective
        );
    }
}

#[test]
fn lp_and_mps_writers_cross_round_trip() {
    // model → LP text → model → MPS text → model keeps the same optimum.
    let original = lp::generator::dense_random(7, 10, 31);
    let via_lp = lp::lpformat::parse(&lp::lpformat::write(&original)).expect("lp round trip");
    let via_both = lp::mps::parse(&lp::mps::write(&via_lp)).expect("mps round trip");
    let a = SolveRequest::model(&original, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    let b = SolveRequest::model(&via_both, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(a.status, Status::Optimal);
    assert_eq!(b.status, Status::Optimal);
    assert!((a.objective - b.objective).abs() < 1e-9);
}
