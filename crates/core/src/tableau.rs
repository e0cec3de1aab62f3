//! Dense full-tableau simplex — the correctness oracle and the baseline the
//! revised method is measured against (it re-eliminates the *entire*
//! `m × n` tableau every iteration instead of the `m × m` basis inverse).

use linalg::{DenseMatrix, Scalar};
use lp::{LinearProgram, StandardForm};

use crate::options::{PivotRule, SolverOptions};
use crate::result::Status;

/// Result of a tableau solve.
#[derive(Debug, Clone)]
pub struct TableauResult<T: Scalar> {
    /// Termination status.
    pub status: Status,
    /// Standard-form point.
    pub x_std: Vec<T>,
    /// Standard-form objective `c̃ᵀx̃`.
    pub z_std: f64,
    /// Iterations used (both phases).
    pub iterations: usize,
}

/// Solve a standard form with the full-tableau method.
pub fn solve_standard<T: Scalar>(sf: &StandardForm<T>, opts: &SolverOptions) -> TableauResult<T> {
    let m = sf.num_rows();
    let n = sf.num_cols();
    let max_iters = opts.max_iters_for(m, n);

    // Tableau: m rows of [A | b] plus bookkeeping vectors.
    let mut tab = DenseMatrix::<T>::zeros(m, n + 1);
    for j in 0..n {
        for i in 0..m {
            tab.set(i, j, sf.a.get(i, j));
        }
    }
    for i in 0..m {
        tab.set(i, n, sf.b[i]);
    }
    let mut basis = sf.basis0.clone();
    let mut total_iters = 0usize;

    // Phase 1 if needed.
    if sf.num_artificials > 0 {
        let c1: Vec<T> = (0..n)
            .map(|j| if sf.is_artificial(j) { T::ONE } else { T::ZERO })
            .collect();
        // Artificials may leave but never re-enter.
        let end = run(&mut tab, &mut basis, &c1, opts, max_iters, |j| {
            !sf.is_artificial(j)
        });
        total_iters += end.iterations;
        match end.kind {
            EndKind::IterationLimit => {
                return assemble(sf, &tab, &basis, Status::IterationLimit, total_iters)
            }
            EndKind::Unbounded => {
                return assemble(sf, &tab, &basis, Status::SingularBasis, total_iters)
            }
            EndKind::Converged => {}
        }
        // Feasibility check: phase-1 objective = Σ artificial values.
        let z1: f64 = basis
            .iter()
            .enumerate()
            .filter(|&(_, &j)| sf.is_artificial(j))
            .map(|(i, _)| tab.get(i, n).to_f64())
            .sum();
        if z1 > opts.feas_tol_for::<T>().to_f64() {
            return assemble(sf, &tab, &basis, Status::Infeasible, total_iters);
        }
    }

    // Phase 2.
    let end = run(&mut tab, &mut basis, &sf.c, opts, max_iters, |j| {
        !sf.is_artificial(j)
    });
    total_iters += end.iterations;
    let status = match end.kind {
        EndKind::Converged => Status::Optimal,
        EndKind::Unbounded => Status::Unbounded,
        EndKind::IterationLimit => Status::IterationLimit,
    };
    assemble(sf, &tab, &basis, status, total_iters)
}

enum EndKind {
    Converged,
    Unbounded,
    IterationLimit,
}

struct End {
    kind: EndKind,
    iterations: usize,
}

/// Run simplex iterations on the tableau with the given costs. Hybrid
/// pricing escalates to Bland after `opts.stall_threshold` consecutive
/// degenerate pivots, as the GPU tableau does.
fn run<T: Scalar>(
    tab: &mut DenseMatrix<T>,
    basis: &mut [usize],
    costs: &[T],
    opts: &SolverOptions,
    max_iters: usize,
    eligible: impl Fn(usize) -> bool,
) -> End {
    let opt_tol = opts.opt_tol_for::<T>();
    let pivot_tol = opts.pivot_tol_for::<T>();
    let rule = opts.pivot_rule;
    let m = tab.rows();
    let n = tab.cols() - 1;
    let mut iterations = 0usize;
    let mut stall = 0usize;
    let mut bland = matches!(rule, PivotRule::Bland);

    loop {
        if iterations >= max_iters {
            return End {
                kind: EndKind::IterationLimit,
                iterations,
            };
        }
        // Reduced costs d_j = c_j − c_Bᵀ (tableau column j): with the
        // tableau kept in "B⁻¹·A" form, the multiplier view is simplest:
        // π solves nothing here — we compute d from the eliminated tableau
        // directly using the basic costs.
        let mut entering: Option<(usize, T)> = None;
        let in_basis = {
            let mut b = vec![false; n];
            for &j in basis.iter() {
                b[j] = true;
            }
            b
        };
        for j in 0..n {
            if in_basis[j] || !eligible(j) {
                continue;
            }
            let mut d = costs[j];
            for (i, &bj) in basis.iter().enumerate() {
                d -= costs[bj] * tab.get(i, j);
            }
            if d < -opt_tol {
                match rule {
                    _ if bland => {
                        entering = Some((j, d));
                        break;
                    }
                    _ => match entering {
                        Some((_, best)) if !(d < best) => {}
                        _ => entering = Some((j, d)),
                    },
                }
            }
        }
        let Some((q, _dq)) = entering else {
            return End {
                kind: EndKind::Converged,
                iterations,
            };
        };

        // Ratio test on the eliminated column q.
        let mut pivot: Option<(usize, T)> = None;
        for i in 0..m {
            let a = tab.get(i, q);
            if a > pivot_tol {
                let b = tab.get(i, n);
                let r = if b > T::ZERO { b / a } else { T::ZERO };
                match pivot {
                    Some((_, br)) if !(r < br) => {}
                    _ => pivot = Some((i, r)),
                }
            }
        }
        let Some((p, theta)) = pivot else {
            return End {
                kind: EndKind::Unbounded,
                iterations,
            };
        };

        // Gauss–Jordan elimination around (p, q).
        let piv = tab.get(p, q);
        let inv = T::ONE / piv;
        for j in 0..=n {
            let v = tab.get(p, j) * inv;
            tab.set(p, j, v);
        }
        for i in 0..m {
            if i == p {
                continue;
            }
            let f = tab.get(i, q);
            if f == T::ZERO {
                continue;
            }
            for j in 0..=n {
                let v = tab.get(i, j) - f * tab.get(p, j);
                tab.set(i, j, v);
            }
            // Clamp round-off on the rhs to keep feasibility.
            let b = tab.get(i, n);
            tab.set(i, n, b.maxs(T::ZERO));
        }
        basis[p] = q;

        if theta > T::ZERO {
            stall = 0;
            if matches!(rule, PivotRule::Hybrid) {
                bland = false;
            }
        } else {
            stall += 1;
            if matches!(rule, PivotRule::Hybrid) && stall >= opts.stall_threshold {
                bland = true;
            }
        }
        iterations += 1;
    }
}

fn assemble<T: Scalar>(
    sf: &StandardForm<T>,
    tab: &DenseMatrix<T>,
    basis: &[usize],
    status: Status,
    iterations: usize,
) -> TableauResult<T> {
    let n = sf.num_cols();
    let mut x_std = vec![T::ZERO; n];
    for (i, &j) in basis.iter().enumerate() {
        x_std[j] = tab.get(i, n);
    }
    let z_std =
        sf.c.iter()
            .zip(&x_std)
            .map(|(&c, &x)| c.to_f64() * x.to_f64())
            .sum();
    TableauResult {
        status,
        x_std,
        z_std,
        iterations,
    }
}

/// Convenience: solve an original-model LP with the tableau method (f-64
/// oracle path: presolve off, scaling off).
pub fn solve_lp<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
) -> (Status, Vec<f64>, f64, usize) {
    let sf = StandardForm::<T>::from_lp(model).expect("model standardizes");
    let res = solve_standard(&sf, opts);
    let x = sf.recover_x(&res.x_std);
    let obj = sf.objective_value(&res.x_std);
    (res.status, x, obj, res.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp::generator::fixtures;

    fn opts() -> SolverOptions {
        SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        }
    }

    #[test]
    fn solves_wyndor() {
        let (model, expected) = fixtures::wyndor();
        let (status, x, obj, iters) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9, "obj {obj}");
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 6.0).abs() < 1e-9);
        assert!(iters >= 2);
    }

    #[test]
    fn solves_two_phase_fixture() {
        let (model, expected) = fixtures::two_phase();
        let (status, x, obj, _) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9, "obj {obj}");
        assert!(model.check_feasible(&x, 1e-8).is_none());
    }

    #[test]
    fn detects_infeasible() {
        let model = fixtures::infeasible();
        let (status, _, _, _) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let model = fixtures::unbounded();
        let (status, _, _, _) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Unbounded);
    }

    #[test]
    fn solves_degenerate_fixture() {
        let (model, expected) = fixtures::degenerate();
        let (status, _, obj, _) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9);
    }

    #[test]
    fn beale_terminates_under_hybrid_and_bland() {
        let (model, expected) = fixtures::beale_cycling();
        for rule in [PivotRule::Bland, PivotRule::Hybrid] {
            let o = SolverOptions {
                pivot_rule: rule,
                ..opts()
            };
            let (status, _, obj, _) = solve_lp::<f64>(&model, &o);
            assert_eq!(status, Status::Optimal, "rule {rule:?}");
            assert!((obj - expected).abs() < 1e-9, "rule {rule:?}: obj {obj}");
        }
    }

    #[test]
    fn hybrid_escalates_to_bland_at_the_stall_threshold() {
        // Beale's cycling example stalls on its first pivots: at a threshold
        // of 1 Hybrid hands pricing to Bland after one degenerate pivot and
        // finishes sooner than at the default 12. The GPU tableau reads the
        // same option, so both walk the same path.
        let (model, expected) = fixtures::beale_cycling();
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let iterations = |stall_threshold| {
            let o = SolverOptions {
                stall_threshold,
                ..opts()
            };
            let cpu = solve_standard(&sf, &o);
            let gpu = gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280());
            let (dev, _) = crate::tableau_gpu::solve_standard_gpu(&gpu, &sf, &o);
            assert_eq!(cpu.status, Status::Optimal);
            assert!((sf.objective_from_std(cpu.z_std) - expected).abs() < 1e-9);
            assert_eq!(
                cpu.iterations, dev.iterations,
                "threshold {stall_threshold}"
            );
            cpu.iterations
        };
        assert!(iterations(1) < iterations(12));
    }

    #[test]
    fn klee_minty_dantzig_takes_exponential_iterations() {
        for n in [3usize, 4, 5] {
            let model = lp::generator::klee_minty(n);
            let o = SolverOptions {
                pivot_rule: PivotRule::Dantzig,
                ..opts()
            };
            let (status, _, obj, iters) = solve_lp::<f64>(&model, &o);
            assert_eq!(status, Status::Optimal);
            assert!((obj - lp::generator::klee_minty_optimum(n)).abs() / obj.abs() < 1e-9);
            assert_eq!(
                iters,
                (1 << n) - 1,
                "KM({n}) should take 2^n − 1 iterations"
            );
        }
    }

    #[test]
    fn production_fixture_two_phase() {
        let (model, expected) = fixtures::production();
        let (status, x, obj, _) = solve_lp::<f64>(&model, &opts());
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9, "obj {obj}");
        assert!(model.check_feasible(&x, 1e-8).is_none());
    }

    #[test]
    fn f32_wyndor_is_accurate_enough() {
        let (model, expected) = fixtures::wyndor();
        let (status, _, obj, _) = solve_lp::<f32>(&model, &opts());
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-3);
    }
}
