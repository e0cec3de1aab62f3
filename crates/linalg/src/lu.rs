//! Sparse LU factorization of a simplex basis (Markowitz + threshold
//! pivoting), the stage-2 basis engine behind
//! `BasisRepresentation::SparseLU`.
//!
//! The explicit inverse is a dense `B⁻¹`, so every FTRAN/BTRAN pays O(m²)
//! even when the basis is 99% slack columns. This module factorizes `B₀` itself:
//!
//! ```text
//! P_r B₀ P_c = L · U
//! ```
//!
//! with `L` unit lower triangular and `U` upper triangular in the
//! elimination ordering, both stored CSC. FTRAN/BTRAN become two sparse
//! triangular solves each — O(nnz(L) + nnz(U) + m) — and the eta chain on
//! top is unchanged, so an iteration costs O(nnz + m·k) against the dense
//! paths' O(m²).
//!
//! Pivot selection is classic Markowitz: at each elimination step pick the
//! active entry minimizing `(r_i − 1)·(c_j − 1)` (the fill-in bound from
//! eliminating on it), restricted to entries passing the *threshold* test
//! `|a_ij| ≥ τ·max|a_*j|` so stability never loses to sparsity outright.
//! Candidates failing the threshold are counted
//! ([`LuStats::markowitz_rejections`]) — the solver surfaces the count so
//! a drifting basis shows up in metrics before it shows up as a singular
//! reinversion. The search scans the few smallest-count active columns
//! (MA48-style bounded search): each step selects the `SEARCH_COLS`
//! least `(count, column)` keys in O(m) and sorts only those, so selection
//! costs O(m) per step without giving up the ordering quality on simplex
//! bases.
//!
//! All elimination arithmetic runs in f64 regardless of the stored scalar
//! (the same policy as the dense Gauss–Jordan reinversion path: a
//! refactorization exists to purge error); the finished factors are then
//! narrowed to `T` once. Ordering is fully deterministic — candidate ties
//! break on (cost, column, row) — so a resumed solve that refactorizes the
//! same basis reproduces the factors bitwise.

use crate::scalar::Scalar;
use crate::sparse::{CooMatrix, CscMatrix};
use std::collections::{BTreeMap, BTreeSet};

/// How many smallest-count active columns each pivot search inspects.
const SEARCH_COLS: usize = 8;

/// Counters from one factorization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LuStats {
    /// Nonzeros of the basis matrix handed to the factorization.
    pub base_nnz: usize,
    /// Nonzeros of the factors: nnz(L) (unit diagonal excluded) +
    /// nnz(U) (diagonal included).
    pub factor_nnz: usize,
    /// `factor_nnz − base_nnz`, floored at zero: the fill-in the Markowitz
    /// ordering failed to avoid.
    pub fill_in: usize,
    /// Pivot candidates rejected by the threshold test `|a| ≥ τ·colmax`.
    pub markowitz_rejections: usize,
    /// Floating-point operations spent eliminating (for cost models).
    pub factor_flops: u64,
}

/// A sparse LU factorization `P_r B P_c = L U` with CSC factors.
///
/// Coordinates: "elimination space" indexes pivots in the order they were
/// chosen; `row_perm[k]`/`col_perm[k]` give the original row/column pivoted
/// at step `k`. `L` is strictly lower triangular in elimination space (the
/// unit diagonal is implicit); `U` is split into its strictly upper part
/// and the dense diagonal `u_diag`.
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar> {
    m: usize,
    /// Strictly lower factor, CSC in elimination space.
    l: CscMatrix<T>,
    /// Strictly upper factor, CSC in elimination space.
    u: CscMatrix<T>,
    /// Diagonal of `U` in elimination space (all nonzero).
    u_diag: Vec<T>,
    /// Elimination step → original row.
    row_perm: Vec<u32>,
    /// Elimination step → original column.
    col_perm: Vec<u32>,
    stats: LuStats,
}

/// Keep the `SEARCH_COLS` least of the `(count, column)` keys, ascending:
/// a linear-time selection, then a sort of only those. The keys are unique
/// (one per column), so this is exactly the head of the fully sorted order.
fn least_keys(keys: &mut Vec<(usize, usize)>) {
    if keys.len() > SEARCH_COLS {
        keys.select_nth_unstable(SEARCH_COLS - 1);
        keys.truncate(SEARCH_COLS);
    }
    keys.sort_unstable();
}

impl<T: Scalar> SparseLu<T> {
    /// Factorize an m×m basis given as sparse columns of `(row, value)`
    /// pairs (rows in any order, no duplicates). `tau` is the threshold-
    /// pivoting parameter in (0, 1]; 0.1 is the classic default. Returns
    /// `None` when the basis is structurally or numerically singular.
    pub fn factorize(m: usize, cols: &[Vec<(usize, f64)>], tau: f64) -> Option<Self> {
        Self::factorize_with(m, cols, tau, least_keys)
    }

    /// [`SparseLu::factorize`] with the candidate-column selection as a
    /// parameter: `select` gets the `(count, column)` key of every active
    /// column and must leave the `SEARCH_COLS` least, ascending.
    fn factorize_with(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        tau: f64,
        select: fn(&mut Vec<(usize, usize)>),
    ) -> Option<Self> {
        assert_eq!(cols.len(), m, "basis must be square");
        let tau = tau.clamp(1e-8, 1.0);
        let mut stats = LuStats::default();

        // Working matrix: rows as ordered maps col → value, plus the
        // column → {rows} structure for Markowitz counts and column scans.
        let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); m];
        let mut col_rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                assert!(i < m, "row index out of range");
                if v != 0.0 {
                    let dup = rows[i].insert(j, v).is_some();
                    assert!(!dup, "duplicate entry in basis column {j}");
                    col_rows[j].insert(i);
                    stats.base_nnz += 1;
                }
            }
        }

        let mut col_active = vec![true; m];
        let mut row_perm = Vec::with_capacity(m);
        let mut col_perm = Vec::with_capacity(m);
        // Factor triplets in (elimination step, original index) coords.
        let mut l_trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut u_trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut u_diag64 = Vec::with_capacity(m);
        let mut active_cols: Vec<usize> = (0..m).collect();
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(m);

        for _step in 0..m {
            // --- Markowitz pivot search over the smallest-count columns.
            active_cols.retain(|&j| col_active[j]);
            order.clear();
            order.extend(active_cols.iter().map(|&j| (col_rows[j].len(), j)));
            select(&mut order);
            // The order is ascending by count: a zero-count *first* column
            // means some active column is zero over the active rows — the
            // remaining submatrix is singular.
            if order.first()?.0 == 0 {
                return None;
            }
            let mut best: Option<(usize, usize, usize)> = None; // (cost, j, i)
            for &(_, j) in &order {
                let cc = col_rows[j].len();
                let colmax = col_rows[j]
                    .iter()
                    .map(|&i| rows[i][&j].abs())
                    .fold(0.0f64, f64::max);
                if colmax == 0.0 {
                    continue;
                }
                for &i in &col_rows[j] {
                    let v = rows[i][&j];
                    if v.abs() < tau * colmax {
                        stats.markowitz_rejections += 1;
                        continue;
                    }
                    let cost = (rows[i].len() - 1) * (cc - 1);
                    let better = match best {
                        None => true,
                        Some((bc, bj, bi)) => (cost, j, i) < (bc, bj, bi),
                    };
                    if better {
                        best = Some((cost, j, i));
                    }
                }
            }
            let (_, pj, pi) = best?;
            let piv = rows[pi][&pj];
            row_perm.push(pi as u32);
            col_perm.push(pj as u32);
            let k = row_perm.len() - 1;
            col_active[pj] = false;

            // --- Emit U row k: the pivot row's surviving entries.
            u_diag64.push(piv);
            for (&c, &v) in &rows[pi] {
                if c != pj {
                    u_trips.push((k, c, v));
                }
                col_rows[c].remove(&pi);
            }

            // --- Eliminate the pivot column from the remaining rows.
            let below: Vec<usize> = col_rows[pj].iter().copied().collect();
            let prow: Vec<(usize, f64)> = rows[pi]
                .iter()
                .filter(|&(&c, _)| c != pj)
                .map(|(&c, &v)| (c, v))
                .collect();
            for i in below {
                let aij = rows[i].remove(&pj).expect("column structure out of sync");
                col_rows[pj].remove(&i);
                let lik = aij / piv;
                stats.factor_flops += 1;
                l_trips.push((k, i, lik));
                for &(c, v) in &prow {
                    stats.factor_flops += 2;
                    match rows[i].entry(c) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            let nv = *e.get() - lik * v;
                            if nv == 0.0 {
                                // Exact cancellation: drop it, or it
                                // haunts the counts as a structural zero.
                                e.remove();
                                col_rows[c].remove(&i);
                            } else {
                                *e.get_mut() = nv;
                            }
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(-lik * v);
                            col_rows[c].insert(i);
                        }
                    }
                }
            }
        }

        // --- Map original indices to elimination positions and build the
        // CSC factors (narrowing f64 → T here, once).
        let mut inv_row = vec![0usize; m];
        let mut inv_col = vec![0usize; m];
        for (k, &r) in row_perm.iter().enumerate() {
            inv_row[r as usize] = k;
        }
        for (k, &c) in col_perm.iter().enumerate() {
            inv_col[c as usize] = k;
        }
        let mut l_coo = CooMatrix::<T>::new(m, m);
        for &(k, i, v) in &l_trips {
            l_coo.push(inv_row[i], k, T::from_f64(v));
        }
        let mut u_coo = CooMatrix::<T>::new(m, m);
        for &(k, c, v) in &u_trips {
            u_coo.push(k, inv_col[c], T::from_f64(v));
        }
        let l = l_coo.to_csr().to_csc();
        let u = u_coo.to_csr().to_csc();
        stats.factor_nnz = l.nnz() + u.nnz() + m;
        stats.fill_in = stats.factor_nnz.saturating_sub(stats.base_nnz);
        Some(SparseLu {
            m,
            l,
            u,
            u_diag: u_diag64.iter().map(|&d| T::from_f64(d)).collect(),
            row_perm,
            col_perm,
            stats,
        })
    }

    /// Dimension.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Factorization counters.
    pub fn stats(&self) -> LuStats {
        self.stats
    }

    /// Strictly lower factor (CSC, elimination space, unit diagonal
    /// implicit).
    pub fn l(&self) -> &CscMatrix<T> {
        &self.l
    }

    /// Strictly upper factor (CSC, elimination space).
    pub fn u(&self) -> &CscMatrix<T> {
        &self.u
    }

    /// Diagonal of `U` in elimination space.
    pub fn u_diag(&self) -> &[T] {
        &self.u_diag
    }

    /// Elimination step → original row.
    pub fn row_perm(&self) -> &[u32] {
        &self.row_perm
    }

    /// Elimination step → original column.
    pub fn col_perm(&self) -> &[u32] {
        &self.col_perm
    }

    /// Flops of one FTRAN or BTRAN through the factors (for cost models).
    pub fn solve_flops(&self) -> u64 {
        2 * (self.l.nnz() + self.u.nnz()) as u64 + 4 * self.m as u64
    }

    /// FTRAN through the factors: `x ← B⁻¹ x`. `scratch` must be length m.
    pub fn ftran_in_place(&self, x: &mut [T], scratch: &mut [T]) {
        let m = self.m;
        assert_eq!(x.len(), m);
        assert_eq!(scratch.len(), m);
        // Permute into elimination space: z_k = x[row_perm[k]].
        for k in 0..m {
            scratch[k] = x[self.row_perm[k] as usize];
        }
        // Forward solve L z = b (unit diagonal), scattering column k.
        for k in 0..m {
            let zk = scratch[k];
            if zk != T::ZERO {
                for (i, v) in self.l.col(k) {
                    scratch[i] -= v * zk;
                }
            }
        }
        // Backward solve U y = z, scattering column j above the diagonal.
        for j in (0..m).rev() {
            let yj = scratch[j] / self.u_diag[j];
            scratch[j] = yj;
            if yj != T::ZERO {
                for (k, v) in self.u.col(j) {
                    scratch[k] -= v * yj;
                }
            }
        }
        // Permute back: x[col_perm[k]] = y_k.
        for k in 0..m {
            x[self.col_perm[k] as usize] = scratch[k];
        }
    }

    /// BTRAN through the factors: `y ← B⁻ᵀ y` (i.e. solve `Bᵀ y = c`).
    /// `scratch` must be length m.
    pub fn btran_in_place(&self, y: &mut [T], scratch: &mut [T]) {
        let m = self.m;
        assert_eq!(y.len(), m);
        assert_eq!(scratch.len(), m);
        // Permute into elimination space: z_k = y[col_perm[k]].
        for k in 0..m {
            scratch[k] = y[self.col_perm[k] as usize];
        }
        // Forward solve Uᵀ z = ĉ, gathering column j below... above the
        // diagonal of U — column j holds U_{k,j}, k < j.
        for j in 0..m {
            let mut acc = scratch[j];
            for (k, v) in self.u.col(j) {
                acc -= v * scratch[k];
            }
            scratch[j] = acc / self.u_diag[j];
        }
        // Backward solve Lᵀ w = z (unit diagonal), gathering column k.
        for k in (0..m).rev() {
            let mut acc = scratch[k];
            for (i, v) in self.l.col(k) {
                acc -= v * scratch[i];
            }
            scratch[k] = acc;
        }
        // Permute back: y[row_perm[k]] = w_k.
        for k in 0..m {
            y[self.row_perm[k] as usize] = scratch[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dense::DenseMatrix;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// A random sparse nonsingular basis: identity + off-diagonal spray.
    fn random_basis(m: usize, extra: usize, seed: &mut u64) -> Vec<Vec<(usize, f64)>> {
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 2.0 + lcg(seed))]).collect();
        for _ in 0..extra {
            let i = (lcg(seed).abs() * m as f64) as usize % m;
            let j = (lcg(seed).abs() * m as f64) as usize % m;
            if i != j && !cols[j].iter().any(|&(r, _)| r == i) {
                cols[j].push((i, 0.5 * lcg(seed)));
            }
        }
        cols
    }

    fn dense_of(cols: &[Vec<(usize, f64)>], m: usize) -> DenseMatrix<f64> {
        let mut d = DenseMatrix::zeros(m, m);
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                d.set(i, j, v);
            }
        }
        d
    }

    #[test]
    fn ftran_btran_match_dense_inverse() {
        let mut seed = 42u64;
        for (m, extra) in [(1usize, 0usize), (6, 10), (24, 60), (48, 160)] {
            let cols = random_basis(m, extra, &mut seed);
            let lu = SparseLu::<f64>::factorize(m, &cols, 0.1).expect("nonsingular");
            let inv = blas::gauss_jordan_invert(&dense_of(&cols, m)).expect("invertible");
            let b: Vec<f64> = (0..m).map(|i| 0.25 + i as f64 * 0.5).collect();
            // FTRAN: x = B⁻¹ b.
            let mut x = b.clone();
            let mut scratch = vec![0.0; m];
            lu.ftran_in_place(&mut x, &mut scratch);
            let mut expect = vec![0.0; m];
            blas::gemv_n(1.0, &inv, &b, 0.0, &mut expect);
            for (a, e) in x.iter().zip(&expect) {
                assert!((a - e).abs() < 1e-9, "ftran {a} vs {e} (m={m})");
            }
            // BTRAN: yᵀ = bᵀ B⁻¹.
            let mut y = b.clone();
            lu.btran_in_place(&mut y, &mut scratch);
            let mut expect_t = vec![0.0; m];
            blas::gemv_t(1.0, &inv, &b, 0.0, &mut expect_t);
            for (a, e) in y.iter().zip(&expect_t) {
                assert!((a - e).abs() < 1e-9, "btran {a} vs {e} (m={m})");
            }
        }
    }

    #[test]
    fn identity_factors_are_empty() {
        let m = 7;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 1.0)]).collect();
        let lu = SparseLu::<f64>::factorize(m, &cols, 0.1).unwrap();
        let s = lu.stats();
        assert_eq!(s.base_nnz, m);
        assert_eq!(s.factor_nnz, m); // just the diagonal of U
        assert_eq!(s.fill_in, 0);
        assert_eq!(s.markowitz_rejections, 0);
        let mut x = vec![3.0; m];
        let mut scratch = vec![0.0; m];
        lu.ftran_in_place(&mut x, &mut scratch);
        assert_eq!(x, vec![3.0; m]);
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Column 1 duplicates column 0 structurally and numerically.
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)]];
        assert!(SparseLu::<f64>::factorize(2, &cols, 0.1).is_none());
        // Structurally empty column.
        let cols2: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0)], vec![]];
        assert!(SparseLu::<f64>::factorize(2, &cols2, 0.1).is_none());
    }

    #[test]
    fn threshold_rejects_tiny_pivots() {
        // Column 0 has a tiny entry in row 0 and a big one in row 1; τ=0.5
        // must reject the tiny candidate (and count it) even though its
        // Markowitz cost is attractive.
        let cols = vec![vec![(0, 1e-9), (1, 1.0)], vec![(0, 1.0), (1, 0.5)]];
        let lu = SparseLu::<f64>::factorize(2, &cols, 0.5).unwrap();
        assert!(lu.stats().markowitz_rejections >= 1);
        // Factors still solve correctly.
        let inv = blas::gauss_jordan_invert(&dense_of(&cols, 2)).unwrap();
        let b = vec![1.0, 2.0];
        let mut x = b.clone();
        let mut scratch = vec![0.0; 2];
        lu.ftran_in_place(&mut x, &mut scratch);
        let mut expect = vec![0.0; 2];
        blas::gemv_n(1.0, &inv, &b, 0.0, &mut expect);
        for (a, e) in x.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-9);
        }
    }

    #[test]
    fn factorization_is_deterministic() {
        let mut s1 = 7u64;
        let cols = random_basis(32, 80, &mut s1);
        let a = SparseLu::<f64>::factorize(32, &cols, 0.1).unwrap();
        let b = SparseLu::<f64>::factorize(32, &cols, 0.1).unwrap();
        assert_eq!(a.row_perm(), b.row_perm());
        assert_eq!(a.col_perm(), b.col_perm());
        assert_eq!(a.l(), b.l());
        assert_eq!(a.u(), b.u());
        assert_eq!(a.stats(), b.stats());
    }

    /// The selection the factorization used before the linear one: sort
    /// every active column's key, keep the head.
    fn full_sort_keys(keys: &mut Vec<(usize, usize)>) {
        keys.sort();
        keys.truncate(SEARCH_COLS);
    }

    fn assert_same_factors(cols: &[Vec<(usize, f64)>], m: usize, tau: f64) {
        let fast = SparseLu::<f64>::factorize(m, cols, tau);
        let reference = SparseLu::<f64>::factorize_with(m, cols, tau, full_sort_keys);
        match (fast, reference) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.row_perm, b.row_perm, "m={m} tau={tau}");
                assert_eq!(a.col_perm, b.col_perm, "m={m} tau={tau}");
                assert_eq!(a.l, b.l);
                assert_eq!(a.u, b.u);
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.u_diag), bits(&b.u_diag));
                assert_eq!(a.stats, b.stats);
            }
            (a, b) => panic!(
                "singularity verdicts differ (m={m}): fast {}, reference {}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    #[test]
    fn least_keys_is_the_head_of_the_sorted_keys() {
        let mut seed = 5u64;
        for len in [0usize, 1, 7, 8, 9, 40, 300] {
            let mut keys: Vec<(usize, usize)> = (0..len)
                .map(|j| ((lcg(&mut seed).abs() * 4.0) as usize, j))
                .collect();
            // Shuffle so column order does not follow key order.
            for i in (1..keys.len()).rev() {
                let k = (lcg(&mut seed).abs() * (i + 1) as f64) as usize % (i + 1);
                keys.swap(i, k);
            }
            let mut reference = keys.clone();
            full_sort_keys(&mut reference);
            least_keys(&mut keys);
            assert_eq!(keys, reference, "len {len}");
        }
    }

    #[test]
    fn linear_selection_reproduces_the_full_sort_factors() {
        let mut seed = 11u64;
        // Identity plus a sparse spray: almost every column has count 1–3,
        // so nearly every step breaks count ties on the column index.
        for (m, extra) in [
            (9usize, 12usize),
            (32, 80),
            (64, 300),
            (150, 600),
            (200, 2000),
        ] {
            for tau in [0.1, 0.5, 1.0] {
                let cols = random_basis(m, extra, &mut seed);
                assert_same_factors(&cols, m, tau);
            }
        }
        // Entries of one magnitude: the Markowitz cost alone decides.
        for m in [16usize, 48] {
            let mut cols = random_basis(m, 4 * m, &mut seed);
            for col in &mut cols {
                for e in col.iter_mut() {
                    e.1 = if e.1 < 0.0 { -1.0 } else { 1.0 };
                }
            }
            assert_same_factors(&cols, m, 0.1);
        }
    }

    #[test]
    fn linear_selection_agrees_on_singular_bases() {
        let mut seed = 3u64;
        for m in [10usize, 40, 120] {
            // A structurally empty column.
            let mut cols = random_basis(m, 3 * m, &mut seed);
            cols[m / 2].clear();
            assert_same_factors(&cols, m, 0.1);
            // Two columns with their one entry in the same row.
            let mut cols = random_basis(m, 2 * m, &mut seed);
            cols[1] = vec![(0, 1.0)];
            cols[2] = vec![(0, -2.0)];
            assert_same_factors(&cols, m, 0.1);
            // A duplicated column.
            let mut cols = random_basis(m, 3 * m, &mut seed);
            cols[m - 1] = cols[0].clone();
            assert_same_factors(&cols, m, 0.1);
        }
    }
}
