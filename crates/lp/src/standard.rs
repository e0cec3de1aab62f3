//! Conversion of a general-form LP to the computational standard form
//!
//! ```text
//!     min c̃ᵀx̃   s.t.   Ãx̃ = b,  x̃ ≥ 0,  b ≥ 0
//! ```
//!
//! with the classic transformation chain:
//!
//! 1. maximization → minimization (negate the objective, remember the sign);
//! 2. variable bounds → non-negativity: finite lower bounds shift
//!    (`x = x' + l`), upper-bounded-only variables flip (`x = u − x'`), free
//!    variables split (`x = x⁺ − x⁻`), two-sided bounds add a `x' ≤ u − l`
//!    bound row;
//! 3. negative right-hand sides → row negation (flipping `≤`/`≥`);
//! 4. `≤` rows gain a slack column, `≥` rows a surplus column;
//! 5. rows without an identity column (`≥`, `=`) gain an artificial column.
//!
//! The slack columns of `≤` rows plus the artificial columns form a feasible
//! starting basis; when no artificials exist, phase 1 can be skipped — the
//! paper's random dense instances are built to hit exactly that fast path.
//! All bookkeeping needed to map a standard-form point back to the original
//! variables (shifts, flips, splits, scaling) is retained.

use linalg::{CscMatrix, Scalar};

use crate::model::{LinearProgram, Rel, Sense};

/// Role of a standard-form column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Carries (part of) an original variable.
    Structural,
    /// Slack of a `≤` row (identity +1).
    Slack(usize),
    /// Surplus of a `≥` row (coefficient −1).
    Surplus(usize),
    /// Artificial of a `≥`/`=` row (identity +1, phase-1 only).
    Artificial(usize),
}

/// How an original variable is represented by standard-form columns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VarMap {
    /// `x = x'_col + shift`
    Shifted { col: usize, shift: f64 },
    /// `x = shift − x'_col`
    NegShifted { col: usize, shift: f64 },
    /// `x = x⁺_pos − x⁻_neg`
    Split { pos: usize, neg: usize },
}

/// Errors produced during standardization.
#[derive(Debug, Clone, PartialEq)]
pub enum StandardizeError {
    /// A constraint right-hand side is infinite.
    InfiniteRhs(String),
    /// A coefficient or bound is infinite where a finite value is required.
    InfiniteCoefficient(String),
}

impl std::fmt::Display for StandardizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StandardizeError::InfiniteRhs(c) => write!(f, "infinite rhs in constraint {c}"),
            StandardizeError::InfiniteCoefficient(c) => {
                write!(f, "infinite coefficient in constraint {c}")
            }
        }
    }
}

impl std::error::Error for StandardizeError {}

/// The standard-form program plus everything needed to undo the transform.
#[derive(Debug, Clone)]
pub struct StandardForm<T: Scalar> {
    /// Constraint matrix, `m × n` (structural + slack/surplus + artificial),
    /// compressed by column with ascending row indices and no stored zero.
    /// Each slack, surplus and artificial column holds its one ±1 entry.
    pub a: CscMatrix<T>,
    /// Right-hand side, all non-negative.
    pub b: Vec<T>,
    /// Phase-2 objective (zero on slack/surplus/artificial columns).
    pub c: Vec<T>,
    /// Initial basic column for each row (slack or artificial).
    pub basis0: Vec<usize>,
    /// Role of every column.
    pub col_kinds: Vec<ColKind>,
    /// Count of artificial columns (zero ⇒ phase 1 unnecessary).
    pub num_artificials: usize,
    /// Per-row flag: row was negated to make `b ≥ 0` (needed for duals).
    pub row_negated: Vec<bool>,
    /// Column scale factors applied by `scaling` (1.0 = unscaled).
    pub col_scale: Vec<f64>,
    /// Row scale factors applied by `scaling` (1.0 = unscaled); a row
    /// divided by `f` has `row_scale = f`, and its dual multiplies by `1/f`
    /// to map back.
    pub row_scale: Vec<f64>,
    /// How many leading rows correspond to the model's own constraints (the
    /// remainder are bound rows synthesized for two-sided variables).
    pub num_model_rows: usize,
    var_maps: Vec<VarMap>,
    obj_sign: f64,
    obj_constant: f64,
}

impl<T: Scalar> StandardForm<T> {
    /// Rows of the standard form.
    pub fn num_rows(&self) -> usize {
        self.a.rows()
    }

    /// Columns of the standard form.
    pub fn num_cols(&self) -> usize {
        self.a.cols()
    }

    /// True when column `j` is artificial.
    pub fn is_artificial(&self, j: usize) -> bool {
        matches!(self.col_kinds[j], ColKind::Artificial(_))
    }

    /// Index of the first artificial column, if any.
    pub fn first_artificial(&self) -> Option<usize> {
        self.col_kinds
            .iter()
            .position(|k| matches!(k, ColKind::Artificial(_)))
    }

    /// Build the standard form from a general-form program.
    pub fn from_lp(lp: &LinearProgram) -> Result<Self, StandardizeError> {
        let obj_sign = match lp.sense {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };

        // ---- step 1: assign structural columns to variables --------------
        let mut var_maps = Vec::with_capacity(lp.num_vars());
        let mut c_struct: Vec<f64> = Vec::new(); // effective min-objective per column
        let mut bound_rows: Vec<(usize, f64)> = Vec::new(); // (col, ub of shifted var)
        for v in lp.vars() {
            let ce = obj_sign * v.obj;
            let l = v.lower;
            let u = v.upper;
            if l.is_finite() {
                let col = c_struct.len();
                c_struct.push(ce);
                var_maps.push(VarMap::Shifted { col, shift: l });
                if u.is_finite() {
                    bound_rows.push((col, u - l));
                }
            } else if u.is_finite() {
                let col = c_struct.len();
                c_struct.push(-ce);
                var_maps.push(VarMap::NegShifted { col, shift: u });
            } else {
                let pos = c_struct.len();
                c_struct.push(ce);
                let neg = c_struct.len();
                c_struct.push(-ce);
                var_maps.push(VarMap::Split { pos, neg });
            }
        }
        let n_struct = c_struct.len();

        // Objective constant from the substitutions: Σ ce·shift over shifted
        // and neg-shifted variables.
        let mut obj_constant = 0.0;
        for (v, map) in lp.vars().iter().zip(&var_maps) {
            let ce = obj_sign * v.obj;
            match map {
                VarMap::Shifted { shift, .. } => obj_constant += ce * shift,
                VarMap::NegShifted { shift, .. } => obj_constant += ce * shift,
                VarMap::Split { .. } => {}
            }
        }

        // ---- step 2: transform rows into structural-column space ---------
        struct Row<T> {
            coeffs: Vec<(usize, T)>, // by structural column, merged, nonzero
            rel: Rel,
            rhs: f64,
        }
        let mut rows: Vec<Row<T>> = Vec::with_capacity(lp.num_constraints() + bound_rows.len());
        for con in lp.constraints() {
            if !con.rhs.is_finite() {
                return Err(StandardizeError::InfiniteRhs(con.name.clone()));
            }
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(con.coeffs.len());
            let mut rhs = con.rhs;
            for &(vid, a) in &con.coeffs {
                if !a.is_finite() {
                    return Err(StandardizeError::InfiniteCoefficient(con.name.clone()));
                }
                match var_maps[vid.0] {
                    VarMap::Shifted { col, shift } => {
                        coeffs.push((col, a));
                        rhs -= a * shift;
                    }
                    VarMap::NegShifted { col, shift } => {
                        coeffs.push((col, -a));
                        rhs -= a * shift;
                    }
                    VarMap::Split { pos, neg } => {
                        coeffs.push((pos, a));
                        coeffs.push((neg, -a));
                    }
                }
            }
            // Merge repeated columns, summing in declaration order (the
            // sort is stable), and keep the entries that are nonzero in `T`.
            coeffs.sort_by_key(|&(j, _)| j);
            coeffs.dedup_by(|(j, v), (kept, sum)| {
                let repeat = j == kept;
                if repeat {
                    *sum += *v;
                }
                repeat
            });
            rows.push(Row {
                coeffs: (coeffs.into_iter())
                    .map(|(j, v)| (j, T::from_f64(v)))
                    .filter(|&(_, v)| v != T::ZERO)
                    .collect(),
                rel: con.rel,
                rhs,
            });
        }
        for &(col, ub) in &bound_rows {
            rows.push(Row {
                coeffs: vec![(col, T::ONE)],
                rel: Rel::Le,
                rhs: ub,
            });
        }

        // ---- step 3: make rhs non-negative --------------------------------
        let mut row_negated = vec![false; rows.len()];
        for (i, row) in rows.iter_mut().enumerate() {
            if row.rhs < 0.0 {
                row.rhs = -row.rhs;
                for (_, v) in row.coeffs.iter_mut() {
                    *v = -*v;
                }
                row.rel = match row.rel {
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                    Rel::Eq => Rel::Eq,
                };
                row_negated[i] = true;
            }
        }

        // ---- step 4/5: slack, surplus, artificial columns -----------------
        let m = rows.len();
        let n_slack_surplus = rows.iter().filter(|r| r.rel != Rel::Eq).count();
        let n_artificial = rows.iter().filter(|r| r.rel != Rel::Le).count();
        let n_total = n_struct + n_slack_surplus + n_artificial;

        let mut c = vec![T::ZERO; n_total];
        let mut col_kinds = vec![ColKind::Structural; n_total];
        let mut basis0 = vec![usize::MAX; m];
        for (j, &cj) in c_struct.iter().enumerate() {
            c[j] = T::from_f64(cj);
        }

        // Count each column's entries: the structural ones, then one for
        // each unit column.
        let mut col_ptr = vec![0u32; n_total + 1];
        for &(j, _) in rows.iter().flat_map(|r| &r.coeffs) {
            col_ptr[j + 1] += 1;
        }
        col_ptr[n_struct + 1..].fill(1);
        for j in 0..n_total {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n_total] as usize;
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![T::ZERO; nnz];
        let mut cursor = col_ptr.clone();
        let mut put = |i: usize, j: usize, v: T| {
            let k = cursor[j] as usize;
            row_idx[k] = i as u32;
            values[k] = v;
            cursor[j] += 1;
        };
        let mut b = vec![T::ZERO; m];
        let mut next_ss = n_struct;
        let mut next_art = n_struct + n_slack_surplus;
        for (i, row) in rows.iter().enumerate() {
            b[i] = T::from_f64(row.rhs);
            for &(j, v) in &row.coeffs {
                put(i, j, v);
            }
            match row.rel {
                Rel::Le => {
                    put(i, next_ss, T::ONE);
                    col_kinds[next_ss] = ColKind::Slack(i);
                    basis0[i] = next_ss;
                    next_ss += 1;
                }
                Rel::Ge => {
                    put(i, next_ss, -T::ONE);
                    col_kinds[next_ss] = ColKind::Surplus(i);
                    next_ss += 1;
                    put(i, next_art, T::ONE);
                    col_kinds[next_art] = ColKind::Artificial(i);
                    basis0[i] = next_art;
                    next_art += 1;
                }
                Rel::Eq => {
                    put(i, next_art, T::ONE);
                    col_kinds[next_art] = ColKind::Artificial(i);
                    basis0[i] = next_art;
                    next_art += 1;
                }
            }
        }
        let a = CscMatrix::from_parts(m, n_total, col_ptr, row_idx, values);
        debug_assert_eq!(next_ss, n_struct + n_slack_surplus);
        debug_assert_eq!(next_art, n_total);
        debug_assert!(basis0.iter().all(|&j| j != usize::MAX));

        Ok(StandardForm {
            a,
            b,
            c,
            basis0,
            col_kinds,
            num_artificials: n_artificial,
            row_negated,
            col_scale: vec![1.0; n_total],
            row_scale: vec![1.0; m],
            num_model_rows: lp.num_constraints(),
            var_maps,
            obj_sign,
            obj_constant,
        })
    }

    /// Map standard-form duals (`y` with `yᵀB = c_Bᵀ`, one per standard
    /// row) back to the original model's constraints, in declaration order:
    /// undoes row scaling, row negation, and the min/max objective flip.
    /// Bound-row duals (which price variable upper bounds) are dropped.
    pub fn recover_duals(&self, y_std: &[f64]) -> Vec<f64> {
        assert_eq!(y_std.len(), self.num_rows(), "dual dimension mismatch");
        (0..self.num_model_rows)
            .map(|i| {
                let sign = if self.row_negated[i] { -1.0 } else { 1.0 };
                self.obj_sign * sign * y_std[i] / self.row_scale[i]
            })
            .collect()
    }

    /// Map a standard-form point back to the original variables, in
    /// declaration order (undoes scaling, shifts, flips and splits).
    pub fn recover_x(&self, x_std: &[T]) -> Vec<f64> {
        assert_eq!(
            x_std.len(),
            self.num_cols(),
            "standard point dimension mismatch"
        );
        let unscaled = |j: usize| x_std[j].to_f64() * self.col_scale[j];
        self.var_maps
            .iter()
            .map(|map| match *map {
                VarMap::Shifted { col, shift } => unscaled(col) + shift,
                VarMap::NegShifted { col, shift } => shift - unscaled(col),
                VarMap::Split { pos, neg } => unscaled(pos) - unscaled(neg),
            })
            .collect()
    }

    /// Original-sense objective value at a standard-form point.
    ///
    /// Scaling needs no correction here: column scaling multiplies `c̃ⱼ` by
    /// `sⱼ` and divides `x̃ⱼ` by `sⱼ`, so `c̃ᵀx̃` is invariant.
    pub fn objective_value(&self, x_std: &[T]) -> f64 {
        let z_std: f64 = self
            .c
            .iter()
            .zip(x_std)
            .map(|(&cj, &xj)| cj.to_f64() * xj.to_f64())
            .sum();
        self.obj_sign * (z_std + self.obj_constant)
    }

    /// Translate a standard-form minimum `z_std = c̃ᵀx̃` (as reported by a
    /// solver on *scaled* data, already unscaled by construction since
    /// scaling preserves `c̃ᵀx̃`) into the original-sense objective.
    pub fn objective_from_std(&self, z_std: f64) -> f64 {
        self.obj_sign * (z_std + self.obj_constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Rel, Sense};

    fn wyndor() -> LinearProgram {
        let mut lp = LinearProgram::new("wyndor").with_sense(Sense::Max);
        let x = lp.add_var_nonneg("x", 3.0);
        let y = lp.add_var_nonneg("y", 5.0);
        lp.add_constraint("p1", &[(x, 1.0)], Rel::Le, 4.0);
        lp.add_constraint("p2", &[(y, 2.0)], Rel::Le, 12.0);
        lp.add_constraint("p3", &[(x, 3.0), (y, 2.0)], Rel::Le, 18.0);
        lp
    }

    #[test]
    fn all_le_program_needs_no_artificials() {
        let sf = StandardForm::<f64>::from_lp(&wyndor()).unwrap();
        assert_eq!(sf.num_rows(), 3);
        assert_eq!(sf.num_cols(), 2 + 3); // two structural, three slacks
        assert_eq!(sf.num_artificials, 0);
        assert_eq!(sf.basis0, vec![2, 3, 4]);
        // Max sense: standard c is negated.
        assert_eq!(sf.c[0], -3.0);
        assert_eq!(sf.c[1], -5.0);
        // Optimum of the standard form: x=2, y=6, slack3 of p1 = 2.
        let x_std = vec![2.0, 6.0, 2.0, 0.0, 0.0];
        assert_eq!(sf.recover_x(&x_std), vec![2.0, 6.0]);
        assert_eq!(sf.objective_value(&x_std), 36.0);
        assert_eq!(sf.objective_from_std(-36.0), 36.0);
    }

    #[test]
    fn ge_and_eq_rows_get_artificials() {
        let mut lp = LinearProgram::new("two-phase");
        let x = lp.add_var_nonneg("x", 2.0);
        let y = lp.add_var_nonneg("y", 3.0);
        lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Rel::Ge, 4.0);
        lp.add_constraint("c2", &[(x, 1.0), (y, 2.0)], Rel::Eq, 6.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        // Columns: x, y, surplus(c1), art(c1), art(c2).
        assert_eq!(sf.num_cols(), 5);
        assert_eq!(sf.num_artificials, 2);
        assert!(sf.is_artificial(3) && sf.is_artificial(4));
        assert_eq!(sf.first_artificial(), Some(3));
        assert_eq!(sf.basis0, vec![3, 4]);
        assert_eq!(sf.a.to_dense().get(0, 2), -1.0); // surplus
        assert_eq!(sf.a.to_dense().get(0, 3), 1.0);
        assert_eq!(sf.a.to_dense().get(1, 4), 1.0);
    }

    #[test]
    fn negative_rhs_row_is_negated() {
        let mut lp = LinearProgram::new("neg-rhs");
        let x = lp.add_var_nonneg("x", 1.0);
        lp.add_constraint("c", &[(x, -2.0)], Rel::Le, -4.0); // −2x ≤ −4 ⇔ 2x ≥ 4
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        assert!(sf.row_negated[0]);
        assert_eq!(sf.b[0], 4.0);
        assert_eq!(sf.a.to_dense().get(0, 0), 2.0);
        assert_eq!(sf.num_artificials, 1); // became a ≥ row
    }

    #[test]
    fn shifted_lower_bound() {
        // min x with 1 ≤ x ≤ 3 and x + y ≤ 5, y ≥ 0.
        let mut lp = LinearProgram::new("shift");
        let x = lp.add_var("x", 1.0, 3.0, 1.0);
        let y = lp.add_var_nonneg("y", 0.0);
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Rel::Le, 5.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        // Rows: c (rhs 5 − 1 = 4) + bound row x' ≤ 2.
        assert_eq!(sf.num_rows(), 2);
        assert_eq!(sf.b, vec![4.0, 2.0]);
        // x' = 0 recovers x = 1; objective picks up the +1 constant.
        let mut x_std = vec![0.0; sf.num_cols()];
        assert_eq!(sf.recover_x(&x_std)[0], 1.0);
        assert_eq!(sf.objective_value(&x_std), 1.0);
        x_std[0] = 2.0; // x' at its bound → x = 3
        assert_eq!(sf.recover_x(&x_std)[0], 3.0);
    }

    #[test]
    fn upper_bounded_only_variable_is_flipped() {
        // min x, x ≤ 2 (no lower bound): x = 2 − x', minimize 2 − x' →
        // standard c on x' is −1 (unbounded below, as expected).
        let mut lp = LinearProgram::new("flip");
        let x = lp.add_var("x", f64::NEG_INFINITY, 2.0, 1.0);
        lp.add_constraint("c", &[(x, 1.0)], Rel::Le, 2.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        assert_eq!(sf.c[0], -1.0);
        // Row: x ≤ 2 → −x' ≤ 0.
        assert_eq!(sf.b[0], 0.0);
        assert_eq!(sf.a.to_dense().get(0, 0), -1.0);
        // Columns: x' and the row's slack.
        let x_std = vec![1.5, 0.0];
        assert_eq!(sf.recover_x(&x_std)[0], 0.5);
    }

    #[test]
    fn free_variable_is_split() {
        let mut lp = LinearProgram::new("free");
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint("c", &[(x, 1.0)], Rel::Eq, -3.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        // Columns: x⁺, x⁻, artificial. Row negated (rhs −3).
        assert_eq!(sf.num_cols(), 3);
        assert!(sf.row_negated[0]);
        assert_eq!(sf.c[0], 1.0);
        assert_eq!(sf.c[1], -1.0);
        // x⁻ = 3 recovers x = −3.
        let x_std = vec![0.0, 3.0, 0.0];
        assert_eq!(sf.recover_x(&x_std), vec![-3.0]);
        assert_eq!(sf.objective_value(&x_std), -3.0);
    }

    #[test]
    fn fixed_variable_round_trips() {
        let mut lp = LinearProgram::new("fixed");
        let x = lp.add_var("x", 2.0, 2.0, 5.0);
        let y = lp.add_var_nonneg("y", 1.0);
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Rel::Le, 10.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        // Bound row forces x' ≤ 0, i.e. x = 2 exactly.
        let x_std = vec![0.0; sf.num_cols()];
        assert_eq!(sf.recover_x(&x_std)[0], 2.0);
        assert_eq!(sf.objective_value(&x_std), 10.0);
    }

    #[test]
    fn infinite_rhs_is_rejected() {
        let mut lp = LinearProgram::new("bad");
        let x = lp.add_var_nonneg("x", 1.0);
        lp.add_constraint("c", &[(x, 1.0)], Rel::Le, f64::INFINITY);
        assert!(matches!(
            StandardForm::<f64>::from_lp(&lp),
            Err(StandardizeError::InfiniteRhs(_))
        ));
    }

    #[test]
    fn f32_standardization_works() {
        let sf = StandardForm::<f32>::from_lp(&wyndor()).unwrap();
        assert_eq!(sf.c[0], -3.0f32);
        assert_eq!(sf.b, vec![4.0f32, 12.0, 18.0]);
    }

    /// The CSC layout of `A`, column by column, on a model with every row
    /// relation, a negative right-hand side, every bound shape and a
    /// repeated (and a cancelling) variable in a row.
    #[test]
    fn csc_layout_of_every_column_kind() {
        let mut lp = LinearProgram::new("layout");
        let x = lp.add_var_nonneg("x", 1.0);
        let f = lp.add_var("f", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let u = lp.add_var("u", f64::NEG_INFINITY, 5.0, 0.0);
        let t = lp.add_var("t", 1.0, 4.0, 0.0);
        let r0 = [(x, 1.0), (f, 2.0), (u, 1.0), (t, 1.0), (t, -1.0)];
        lp.add_constraint("r0", &r0, Rel::Le, 10.0);
        lp.add_constraint("r1", &[(x, 3.0), (x, 1.0), (t, 1.0)], Rel::Ge, 2.0);
        lp.add_constraint("r2", &[(f, 1.0), (t, -1.0)], Rel::Eq, -6.0);
        lp.add_constraint("r3", &[(x, -1.0), (u, 1.0)], Rel::Le, -7.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();

        // Columns x, f⁺, f⁻, u' = 5 − u, t' = t − 1, then the unit
        // columns; rows r0..r3 and the bound row t' ≤ 3. r2 and r3 are
        // negated, which turns r3 into a ≥ row.
        use ColKind::*;
        let table: [(ColKind, [f64; 5]); 12] = [
            (Structural, [1.0, 4.0, 0.0, 1.0, 0.0]),
            (Structural, [2.0, 0.0, -1.0, 0.0, 0.0]),
            (Structural, [-2.0, 0.0, 1.0, 0.0, 0.0]),
            (Structural, [-1.0, 0.0, 0.0, 1.0, 0.0]),
            (Structural, [0.0, 1.0, 1.0, 0.0, 1.0]),
            (Slack(0), [1.0, 0.0, 0.0, 0.0, 0.0]),
            (Surplus(1), [0.0, -1.0, 0.0, 0.0, 0.0]),
            (Surplus(3), [0.0, 0.0, 0.0, -1.0, 0.0]),
            (Slack(4), [0.0, 0.0, 0.0, 0.0, 1.0]),
            (Artificial(1), [0.0, 1.0, 0.0, 0.0, 0.0]),
            (Artificial(2), [0.0, 0.0, 1.0, 0.0, 0.0]),
            (Artificial(3), [0.0, 0.0, 0.0, 1.0, 0.0]),
        ];
        assert_eq!(sf.b, vec![5.0, 1.0, 5.0, 12.0, 3.0]);
        assert_eq!(sf.row_negated, vec![false, false, true, true, false]);
        assert_eq!(sf.basis0, vec![5, 9, 10, 11, 8]);
        assert_eq!(sf.num_artificials, 3);
        let dense = sf.a.to_dense();
        assert_eq!((dense.rows(), dense.cols()), (5, table.len()));
        for (j, (kind, col)) in table.iter().enumerate() {
            assert_eq!(sf.col_kinds[j], *kind, "kind of column {j}");
            for (i, &v) in col.iter().enumerate() {
                assert_eq!(dense.get(i, j), v, "A[{i}, {j}]");
            }
            let entries: Vec<(usize, f64)> = sf.a.col(j).collect();
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "column {j} rows unsorted"
            );
            assert!(
                entries.iter().all(|&(_, v)| v != 0.0),
                "column {j} stores a zero"
            );
            let unit = match *kind {
                Structural => continue,
                Slack(i) | Artificial(i) => (i, 1.0),
                Surplus(i) => (i, -1.0),
            };
            assert_eq!(entries, vec![unit], "unit column {j}");
            if !matches!(kind, Surplus(_)) {
                assert_eq!(sf.basis0[unit.0], j, "basis0 of row {}", unit.0);
            }
        }

        // Zero is tested after the conversion: an entry that underflows
        // in f32 is not stored.
        let mut tiny = LinearProgram::new("tiny");
        let y = tiny.add_var_nonneg("y", 1.0);
        let z = tiny.add_var_nonneg("z", 1.0);
        tiny.add_constraint("c", &[(y, 1e-60), (z, 1.0)], Rel::Le, 1.0);
        assert_eq!(StandardForm::<f64>::from_lp(&tiny).unwrap().a.nnz(), 3);
        let sf32 = StandardForm::<f32>::from_lp(&tiny).unwrap();
        assert_eq!(sf32.a.nnz(), 2);
        assert_eq!(sf32.a.col(0).count(), 0);
    }

    #[test]
    fn repeated_variable_coefficients_merge() {
        let mut lp = LinearProgram::new("merge");
        let x = lp.add_var_nonneg("x", 1.0);
        lp.add_constraint("c", &[(x, 1.0), (x, 2.0)], Rel::Le, 6.0);
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        assert_eq!(sf.a.to_dense().get(0, 0), 3.0);
    }
}
