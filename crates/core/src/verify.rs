//! Independent solution verification — the T4 oracle machinery.
//!
//! Deliberately avoids the solver's own data structures: feasibility is
//! checked against the original model, and optimality is certified from
//! scratch in `f64` (rebuild `B`, invert, check reduced costs), so a bug in
//! the iteration path cannot hide itself.

use std::fmt;

use linalg::{blas, DenseMatrix, Scalar};
use lp::{LinearProgram, StandardForm};

use crate::result::{LpSolution, Status, StdResult};

/// Every way a claimed solution can fail independent verification.
///
/// The `Display` output of each variant is byte-identical to the strings the
/// verifier historically produced, so harness logs and golden files are
/// unaffected; callers that want to branch on the failure mode can now match
/// on the variant instead of grepping the message.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The claimed-optimal point violates a constraint of the original model.
    InfeasiblePoint {
        /// Human-readable description of the violated constraint.
        violation: String,
    },
    /// The reported objective disagrees with a fresh evaluation at the point.
    ObjectiveMismatch {
        /// Objective carried by the solution.
        reported: f64,
        /// Objective recomputed from the point.
        fresh: f64,
    },
    /// Certification was asked of a result that is not `Optimal`.
    NotOptimal {
        /// The actual status.
        status: Status,
    },
    /// A standard-form variable is below zero beyond tolerance.
    NegativeVariable {
        /// Variable index in the standard form.
        index: usize,
        /// The offending value, pre-formatted in the solve precision.
        value: String,
    },
    /// A standard-form equality row `Ax = b` is violated.
    RowMismatch {
        /// Row index.
        row: usize,
        /// Recomputed left-hand side.
        lhs: f64,
        /// Right-hand side from the model.
        rhs: f64,
    },
    /// The final basis matrix is numerically singular.
    SingularBasis,
    /// A reduced cost is negative beyond tolerance (dual infeasibility).
    ReducedCost {
        /// Column index.
        index: usize,
        /// The offending reduced cost.
        value: f64,
    },
    /// `yᵀb` and the primal objective disagree at a claimed optimum.
    DualityGap {
        /// Dual objective `yᵀb`.
        yb: f64,
        /// Primal objective.
        z: f64,
    },
    /// Complementary slackness was asked of a solution without duals.
    MissingDuals,
    /// The dual vector length does not match the constraint count.
    DualCountMismatch {
        /// Number of duals carried by the solution.
        duals: usize,
        /// Number of constraints in the model.
        constraints: usize,
    },
    /// A constraint carries a nonzero dual but is not binding.
    SlackWithDual {
        /// Constraint name.
        name: String,
        /// The dual value.
        dual: f64,
        /// Absolute slack `|lhs − rhs|`.
        slack: f64,
        /// Recomputed left-hand side.
        lhs: f64,
        /// Right-hand side.
        rhs: f64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InfeasiblePoint { violation } => {
                write!(f, "claimed optimal point is infeasible: {violation}")
            }
            VerifyError::ObjectiveMismatch { reported, fresh } => {
                write!(
                    f,
                    "objective mismatch: reported {reported} but point evaluates to {fresh}"
                )
            }
            VerifyError::NotOptimal { status } => write!(f, "result is {status:?}, not optimal"),
            VerifyError::NegativeVariable { index, value } => {
                write!(f, "x[{index}] = {value} violates non-negativity")
            }
            VerifyError::RowMismatch { row, lhs, rhs } => {
                write!(f, "row {row}: Ax = {lhs} but b = {rhs}")
            }
            VerifyError::SingularBasis => write!(f, "final basis is singular"),
            VerifyError::ReducedCost { index, value } => {
                write!(f, "reduced cost d[{index}] = {value} violates optimality")
            }
            VerifyError::DualityGap { yb, z } => {
                write!(f, "strong duality violated: yᵀb = {yb} but z = {z}")
            }
            VerifyError::MissingDuals => write!(f, "solution carries no duals"),
            VerifyError::DualCountMismatch { duals, constraints } => {
                write!(
                    f,
                    "dual count {duals} does not match constraint count {constraints}"
                )
            }
            VerifyError::SlackWithDual {
                name,
                dual,
                slack,
                lhs,
                rhs,
            } => {
                write!(
                    f,
                    "constraint {name} has dual {dual} but slack {slack} (lhs {lhs}, rhs {rhs})"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Check an [`LpSolution`] claims against the original model: status says
/// optimal ⇒ the point is feasible and the objective matches a fresh
/// evaluation within `tol`.
pub fn check_solution(
    model: &LinearProgram,
    sol: &LpSolution,
    tol: f64,
) -> Result<(), VerifyError> {
    if sol.status != Status::Optimal {
        return Ok(()); // nothing to certify
    }
    if let Some(violation) = model.check_feasible(&sol.x, tol) {
        return Err(VerifyError::InfeasiblePoint { violation });
    }
    let fresh = model.objective_value(&sol.x);
    if (fresh - sol.objective).abs() > tol * (1.0 + fresh.abs()) {
        return Err(VerifyError::ObjectiveMismatch {
            reported: sol.objective,
            fresh,
        });
    }
    Ok(())
}

/// Certify optimality of a standard-form result from first principles:
///
/// 1. `x ≥ 0` and `Ax = b` within `tol`;
/// 2. the basis matrix is invertible;
/// 3. every reduced cost `d_j = c_j − c_Bᵀ B⁻¹ a_j ≥ −tol` over
///    non-artificial columns (dual feasibility).
pub fn certify_optimal<T: Scalar>(
    sf: &StandardForm<T>,
    res: &StdResult<T>,
    tol: f64,
) -> Result<(), VerifyError> {
    if res.status != Status::Optimal {
        return Err(VerifyError::NotOptimal { status: res.status });
    }
    let m = sf.num_rows();
    let n = sf.num_cols();

    // Primal feasibility.
    for (j, &xj) in res.x_std.iter().enumerate() {
        if xj.to_f64() < -tol {
            return Err(VerifyError::NegativeVariable {
                index: j,
                value: format!("{xj}"),
            });
        }
    }
    let mut ax = vec![0.0; m];
    for (j, xj) in res.x_std.iter().enumerate() {
        for (i, v) in sf.a.col(j) {
            ax[i] += v.to_f64() * xj.to_f64();
        }
    }
    for (i, (&lhs, rhs)) in ax.iter().zip(&sf.b).enumerate() {
        let rhs = rhs.to_f64();
        if (lhs - rhs).abs() > tol * (1.0 + rhs.abs()) {
            return Err(VerifyError::RowMismatch { row: i, lhs, rhs });
        }
    }

    // Dual feasibility via a fresh f64 factorization of the final basis.
    let mut bmat = DenseMatrix::<f64>::zeros(m, m);
    for (r, &j) in res.basis.iter().enumerate() {
        for (i, v) in sf.a.col(j) {
            bmat.set(i, r, v.to_f64());
        }
    }
    let binv = blas::gauss_jordan_invert(&bmat).ok_or(VerifyError::SingularBasis)?;
    let cb: Vec<f64> = res.basis.iter().map(|&j| sf.c[j].to_f64()).collect();
    let mut pi = vec![0.0; m];
    blas::gemv_t(1.0, &binv, &cb, 0.0, &mut pi);
    let n_active = n - sf.num_artificials;
    for j in 0..n_active {
        let mut d = sf.c[j].to_f64();
        for (i, v) in sf.a.col(j) {
            d -= pi[i] * v.to_f64();
        }
        if d < -tol {
            return Err(VerifyError::ReducedCost { index: j, value: d });
        }
    }

    // Strong duality: yᵀb must equal c̃ᵀx̃ at an optimal basis.
    let yb: f64 = pi.iter().zip(&sf.b).map(|(&y, &bi)| y * bi.to_f64()).sum();
    if (yb - res.z_std).abs() > tol * (1.0 + res.z_std.abs()) {
        return Err(VerifyError::DualityGap { yb, z: res.z_std });
    }
    Ok(())
}

/// Check complementary slackness of an original-model optimal solution and
/// its duals: every constraint with a nonzero dual must be binding, within
/// `tol` (the converse — slack rows with zero duals — is implied by strong
/// duality, which [`certify_optimal`] checks in standard space).
pub fn check_complementary_slackness(
    model: &LinearProgram,
    sol: &LpSolution,
    tol: f64,
) -> Result<(), VerifyError> {
    let Some(duals) = &sol.duals else {
        return Err(VerifyError::MissingDuals);
    };
    if duals.len() != model.num_constraints() {
        return Err(VerifyError::DualCountMismatch {
            duals: duals.len(),
            constraints: model.num_constraints(),
        });
    }
    for (con, &y) in model.constraints().iter().zip(duals) {
        if y.abs() <= tol {
            continue;
        }
        let lhs: f64 = con.coeffs.iter().map(|&(v, a)| a * sol.x[v.0]).sum();
        let slack = (lhs - con.rhs).abs();
        if slack > tol * (1.0 + con.rhs.abs()) {
            return Err(VerifyError::SlackWithDual {
                name: con.name.clone(),
                dual: y,
                slack,
                lhs,
                rhs: con.rhs,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SolverOptions;
    use crate::solver::{BackendKind, SolveRequest};
    use lp::generator::{self, fixtures};

    #[test]
    fn certifies_wyndor_optimum() {
        let (model, _) = fixtures::wyndor();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let res = SolveRequest::standard(&sf, &opts)
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        certify_optimal(&sf, &res, 1e-8).unwrap();
    }

    #[test]
    fn certifies_random_problems_all_backends() {
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        for seed in 0..3 {
            let model = generator::dense_random(10, 14, seed);
            let sf = StandardForm::<f64>::from_lp(&model).unwrap();
            for kind in [
                BackendKind::CpuDense,
                BackendKind::CpuSparse,
                BackendKind::GpuDense(gpu_sim::DeviceSpec::gtx280()),
            ] {
                let res = SolveRequest::standard(&sf, &opts).on(&kind).run().unwrap();
                certify_optimal(&sf, &res, 1e-7)
                    .unwrap_or_else(|e| panic!("seed {seed} {kind:?}: {e}"));
            }
        }
    }

    #[test]
    fn check_solution_catches_bad_objective() {
        let (model, _) = fixtures::wyndor();
        let mut sol = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        check_solution(&model, &sol, 1e-8).unwrap();
        sol.objective += 1.0;
        assert!(check_solution(&model, &sol, 1e-8).is_err());
    }

    #[test]
    fn check_solution_catches_infeasible_point() {
        let (model, _) = fixtures::wyndor();
        let mut sol = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        sol.x[0] = 100.0;
        assert!(check_solution(&model, &sol, 1e-8).is_err());
    }

    #[test]
    fn wyndor_duals_match_textbook_shadow_prices() {
        // max 3x + 5y; binding rows 2y ≤ 12 and 3x + 2y ≤ 18 carry duals
        // 1.5 and 1; the slack row x ≤ 4 carries 0.
        let (model, _) = fixtures::wyndor();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
        let duals = sol.duals.as_ref().expect("optimal solve reports duals");
        assert!((duals[0] - 0.0).abs() < 1e-8, "{duals:?}");
        assert!((duals[1] - 1.5).abs() < 1e-8, "{duals:?}");
        assert!((duals[2] - 1.0).abs() < 1e-8, "{duals:?}");
        check_complementary_slackness(&model, &sol, 1e-7).unwrap();
    }

    #[test]
    fn duals_survive_scaling_and_give_strong_duality() {
        let model = generator::dense_random(8, 12, 3);
        for scale_on in [false, true] {
            let opts = SolverOptions {
                presolve: false,
                scale: scale_on,
                ..Default::default()
            };
            let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
            let duals = sol.duals.as_ref().expect("duals present");
            // Strong duality at the original level: Σ y_i b_i == objective
            // (all variables have zero lower bounds here, no bound rows bind
            // with nonzero duals in this family... verify via the identity).
            let yb: f64 = model
                .constraints()
                .iter()
                .zip(duals)
                .map(|(c, &y)| y * c.rhs)
                .sum();
            assert!(
                (yb - sol.objective).abs() < 1e-6 * (1.0 + sol.objective.abs()),
                "scale={scale_on}: yᵀb = {yb} vs obj {}",
                sol.objective
            );
            check_complementary_slackness(&model, &sol, 1e-6).unwrap();
        }
    }

    #[test]
    fn complementary_slackness_rejects_corrupted_duals() {
        let (model, _) = fixtures::wyndor();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let mut sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
        // Claim a dual on the non-binding row x ≤ 4 (x* = 2).
        sol.duals.as_mut().unwrap()[0] = 5.0;
        assert!(check_complementary_slackness(&model, &sol, 1e-7).is_err());
    }

    #[test]
    fn verify_error_display_is_stable() {
        // Harness logs grep for these exact strings; keep them byte-stable.
        assert_eq!(
            VerifyError::NotOptimal {
                status: Status::IterationLimit
            }
            .to_string(),
            "result is IterationLimit, not optimal"
        );
        assert_eq!(
            VerifyError::SingularBasis.to_string(),
            "final basis is singular"
        );
        assert_eq!(
            VerifyError::MissingDuals.to_string(),
            "solution carries no duals"
        );
        assert_eq!(
            VerifyError::DualCountMismatch {
                duals: 2,
                constraints: 3
            }
            .to_string(),
            "dual count 2 does not match constraint count 3"
        );
        assert_eq!(
            VerifyError::RowMismatch {
                row: 1,
                lhs: 2.5,
                rhs: 3.0
            }
            .to_string(),
            "row 1: Ax = 2.5 but b = 3"
        );
        assert_eq!(
            VerifyError::NegativeVariable {
                index: 4,
                value: "-0.5".into()
            }
            .to_string(),
            "x[4] = -0.5 violates non-negativity"
        );
    }

    #[test]
    fn non_optimal_statuses_are_not_certified() {
        let (model, _) = fixtures::wyndor();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let mut res = SolveRequest::standard(&sf, &opts)
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        res.status = Status::IterationLimit;
        assert_eq!(
            certify_optimal(&sf, &res, 1e-8),
            Err(VerifyError::NotOptimal {
                status: Status::IterationLimit
            })
        );
    }
}
