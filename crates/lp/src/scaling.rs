//! Problem scaling.
//!
//! Badly scaled constraint matrices are the main driver of single-precision
//! simplex instability (experiment T3). Geometric-mean scaling operates on a
//! [`StandardForm`] in place: each row, then each column, is divided by
//! `√(min|aᵢⱼ|·max|aᵢⱼ|)`, and the pair of sweeps runs twice.
//!
//! Row scaling multiplies `bᵢ` along; column scaling multiplies `cⱼ` and is
//! recorded in `StandardForm::col_scale` so solutions map back. Only the
//! structural columns drive and take the factors: the slack, surplus and
//! artificial columns keep their ±1 so the initial identity basis stays an
//! identity.

use linalg::Scalar;

use crate::standard::{ColKind, StandardForm};

/// max|a| / min-nonzero|a| over the stored entries of `A` (1 for an
/// empty matrix): how far scaling has to pull the coefficients together.
pub fn spread<T: Scalar>(sf: &StandardForm<T>) -> f64 {
    let (lo, hi) = extent(sf.a.values.iter().copied());
    if hi == 0.0 {
        1.0
    } else {
        hi / lo
    }
}

/// Geometric-mean scale a standard form in place (two row-then-column
/// sweeps).
pub fn scale<T: Scalar>(sf: &mut StandardForm<T>) {
    for _ in 0..2 {
        scale_rows(sf);
        scale_cols(sf);
    }
}

/// Geometric-mean factor `√(lo·hi)` of the nonzero magnitudes `lo..=hi`
/// with its reciprocal in `T`, or `None` when there are none or the factor
/// is unusable or already 1.
fn factor<T: Scalar>(lo: f64, hi: f64) -> Option<(f64, T)> {
    let f = (lo * hi).sqrt();
    (hi > 0.0 && f > 0.0 && f.is_finite() && (f - 1.0).abs() >= 1e-12)
        .then(|| (f, T::from_f64(1.0 / f)))
}

/// Smallest and largest nonzero magnitude of `values`.
fn extent<T: Scalar>(values: impl Iterator<Item = T>) -> (f64, f64) {
    (values.map(|v| v.to_f64().abs()).filter(|&v| v > 0.0))
        .fold((f64::INFINITY, 0.0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

fn scale_rows<T: Scalar>(sf: &mut StandardForm<T>) {
    let m = sf.num_rows();
    let (a, kinds) = (&mut sf.a, &sf.col_kinds);
    let (mut lo, mut hi) = (vec![f64::INFINITY; m], vec![0.0f64; m]);
    for j in (0..a.cols()).filter(|&j| kinds[j] == ColKind::Structural) {
        for (i, v) in a.col(j) {
            let v = v.to_f64().abs();
            if v > 0.0 {
                lo[i] = lo[i].min(v);
                hi[i] = hi[i].max(v);
            }
        }
    }
    let factors: Vec<Option<(f64, T)>> = lo.iter().zip(&hi).map(|(&l, &h)| factor(l, h)).collect();
    for j in (0..a.cols()).filter(|&j| kinds[j] == ColKind::Structural) {
        for k in a.col_ptr[j] as usize..a.col_ptr[j + 1] as usize {
            if let Some((_, inv)) = factors[a.row_idx[k] as usize] {
                a.values[k] *= inv;
            }
        }
    }
    for (i, fi) in factors.iter().enumerate() {
        if let Some((f, inv)) = *fi {
            sf.b[i] *= inv;
            sf.row_scale[i] *= f;
        }
    }
}

fn scale_cols<T: Scalar>(sf: &mut StandardForm<T>) {
    for j in 0..sf.num_cols() {
        if sf.col_kinds[j] != ColKind::Structural {
            continue;
        }
        let (lo, hi) = extent(sf.a.col(j).map(|(_, v)| v));
        let Some((f, inv)) = factor::<T>(lo, hi) else {
            continue;
        };
        let range = sf.a.col_ptr[j] as usize..sf.a.col_ptr[j + 1] as usize;
        for v in &mut sf.a.values[range] {
            *v *= inv;
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
        let before = spread(&sf);
        scale(&mut sf);
        let after = spread(&sf);
        assert!(after < before / 100.0, "spread {before} -> {after}");
    }

    #[test]
    fn identity_columns_are_preserved() {
        let mut sf = badly_scaled();
        scale(&mut sf);
        // Slack columns still exactly ±1 in their row.
        for (j, kind) in sf.col_kinds.clone().iter().enumerate() {
            if let ColKind::Slack(i) = kind {
                assert_eq!(sf.a.to_dense().get(*i, j), 1.0);
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
