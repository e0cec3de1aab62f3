//! Problem scaling.
//!
//! Badly scaled constraint matrices are the main driver of single-precision
//! simplex instability (experiment T3). Geometric-mean scaling operates on a
//! [`StandardForm`] in place: each row, then each column, is divided by
//! `√(min|aᵢⱼ|·max|aᵢⱼ|)`, and the pair of sweeps runs twice.
//!
//! Row scaling multiplies `bᵢ` along; column scaling multiplies `cⱼ` and is
//! recorded in `StandardForm::col_scale` so solutions map back. Artificial
//! and slack columns keep scale 1 so the initial identity basis stays an
//! identity.

use linalg::Scalar;

use crate::standard::{ColKind, StandardForm};

/// Summary statistics of a scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleReport {
    /// max|a| / min-nonzero|a| before scaling.
    pub spread_before: f64,
    /// Same after scaling.
    pub spread_after: f64,
}

fn spread<T: Scalar>(sf: &StandardForm<T>) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for j in 0..sf.num_cols() {
        for i in 0..sf.num_rows() {
            let v = sf.a.get(i, j).to_f64().abs();
            if v > 0.0 {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if hi == 0.0 {
        1.0
    } else {
        hi / lo
    }
}

/// Geometric-mean scale a standard form in place (two row-then-column
/// sweeps). Returns before/after spread statistics.
pub fn scale<T: Scalar>(sf: &mut StandardForm<T>) -> ScaleReport {
    let before = spread(sf);
    for _ in 0..2 {
        scale_rows(sf);
        scale_cols(sf);
    }
    ScaleReport {
        spread_before: before,
        spread_after: spread(sf),
    }
}

fn row_factor<T: Scalar>(sf: &StandardForm<T>, i: usize) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for j in 0..sf.num_cols() {
        // Only structural columns drive the factor; identity columns are
        // already ±1 and must stay usable as a starting basis.
        if !matches!(sf.col_kinds[j], ColKind::Structural) {
            continue;
        }
        let v = sf.a.get(i, j).to_f64().abs();
        if v > 0.0 {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if hi == 0.0 {
        return 1.0;
    }
    let f = (lo * hi).sqrt();
    if f > 0.0 && f.is_finite() {
        f
    } else {
        1.0
    }
}

fn scale_rows<T: Scalar>(sf: &mut StandardForm<T>) {
    for i in 0..sf.num_rows() {
        let f = row_factor(sf, i);
        if (f - 1.0).abs() < 1e-12 {
            continue;
        }
        let inv = T::from_f64(1.0 / f);
        for j in 0..sf.num_cols() {
            if !matches!(sf.col_kinds[j], ColKind::Structural) {
                continue; // keep identity/slack coefficients at ±1
            }
            let v = sf.a.get(i, j) * inv;
            sf.a.set(i, j, v);
        }
        sf.b[i] *= inv;
        sf.row_scale[i] *= f;
    }
}

fn scale_cols<T: Scalar>(sf: &mut StandardForm<T>) {
    for j in 0..sf.num_cols() {
        if !matches!(sf.col_kinds[j], ColKind::Structural) {
            continue;
        }
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..sf.num_rows() {
            let v = sf.a.get(i, j).to_f64().abs();
            if v > 0.0 {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi == 0.0 {
            continue;
        }
        let f = (lo * hi).sqrt();
        if !(f > 0.0) || !f.is_finite() || (f - 1.0).abs() < 1e-12 {
            continue;
        }
        let inv = T::from_f64(1.0 / f);
        for i in 0..sf.num_rows() {
            let v = sf.a.get(i, j) * inv;
            sf.a.set(i, j, v);
        }
        // Column scaled by 1/f means x̃_j = f·x_j … i.e. x_j = x̃_j / f.
        // recover_x multiplies by col_scale, so col_scale picks up 1/f.
        sf.c[j] *= inv;
        sf.col_scale[j] /= f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Rel};
    use crate::standard::StandardForm;

    fn badly_scaled() -> StandardForm<f64> {
        let mut lp = LinearProgram::new("bad-scale");
        let x = lp.add_var_nonneg("x", 1.0);
        let y = lp.add_var_nonneg("y", 1e-4);
        lp.add_constraint("r1", &[(x, 1e6), (y, 2.0)], Rel::Le, 3e6);
        lp.add_constraint("r2", &[(x, 4.0), (y, 5e-5)], Rel::Le, 8.0);
        StandardForm::from_lp(&lp).unwrap()
    }

    #[test]
    fn geometric_mean_reduces_spread() {
        let mut sf = badly_scaled();
        let rep = scale(&mut sf);
        assert!(
            rep.spread_after < rep.spread_before / 100.0,
            "spread {} -> {}",
            rep.spread_before,
            rep.spread_after
        );
    }

    #[test]
    fn identity_columns_are_preserved() {
        let mut sf = badly_scaled();
        scale(&mut sf);
        // Slack columns still exactly ±1 in their row.
        for (j, kind) in sf.col_kinds.clone().iter().enumerate() {
            if let ColKind::Slack(i) = kind {
                assert_eq!(sf.a.get(*i, j), 1.0);
            }
        }
    }

    #[test]
    fn recovery_accounts_for_column_scale() {
        let mut sf = badly_scaled();
        // Pick a feasible standard point before scaling: x̃ = (1, 1, …slack).
        // After scaling, the same *original* point corresponds to scaled
        // values; check the objective is invariant for a fixed original x.
        let x_orig = [1.0, 2.0];
        // Standard x before scaling: x' = x (both vars have zero lower bounds).
        let mut x_std = vec![0.0; sf.num_cols()];
        x_std[0] = x_orig[0];
        x_std[1] = x_orig[1];
        let obj_before = sf.objective_value(&x_std);

        scale(&mut sf);
        // The scaled standard point representing the same original x:
        // x̃_j = x_j / col_scale[j].
        let mut x_scaled = vec![0.0; sf.num_cols()];
        x_scaled[0] = x_orig[0] / sf.col_scale[0];
        x_scaled[1] = x_orig[1] / sf.col_scale[1];
        let rec = sf.recover_x(&x_scaled);
        assert!((rec[0] - x_orig[0]).abs() < 1e-9);
        assert!((rec[1] - x_orig[1]).abs() < 1e-9);
        let obj_after = sf.objective_value(&x_scaled);
        assert!((obj_before - obj_after).abs() < 1e-9);
    }
}
