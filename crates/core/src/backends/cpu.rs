//! Serial CPU backend — the paper's baseline (the ATLAS role) — over a
//! dense or a CSC column store.
//!
//! Every operation is an honest serial loop over host memory; *modeled*
//! time is charged from [`CpuModel`] (roofline: flops vs. bytes), so the
//! CPU-vs-GPU comparison is machine-independent and calibrated to the
//! paper-era hardware. Wall-clock of these loops is tracked separately by
//! the driver as a secondary metric.
//!
//! The two stores differ only in how `A` is read. Dense (`cpu-dense`)
//! pricing and FTRAN touch every entry of a column; CSC (`cpu-sparse`,
//! extension experiment F5) touches only its nonzeros, so pricing and the
//! FTRAN's `B⁻¹ a_q` cost O(nnz) instead of O(m·n). `B⁻¹` stays dense in
//! both, because the inverse of a sparse basis fills in within a few dozen
//! eta updates, so the O(m²) update still dominates asymptotically; F5
//! measures exactly that effect.

use gpu_sim::SimTime;
use linalg::blas;
use linalg::cpu_model::{CpuClock, CpuModel};
use linalg::{CscMatrix, DenseMatrix, Scalar};

use crate::backend::{Backend, LuReport, RatioOutcome};
use crate::basis::{BasisFactor, ColumnStore, EtaFile};
use crate::error::BackendError;
use crate::options::BasisRepresentation;

/// Serial CPU backend over the column store `C`.
pub struct CpuBackend<T: Scalar, C> {
    /// Full constraint matrix (all columns, including artificials — the
    /// refactorization path needs them).
    a: C,
    b: Vec<T>,
    beta: Vec<T>,
    pi: Vec<T>,
    d: Vec<T>,
    alpha: Vec<T>,
    costs: Vec<T>,
    cb: Vec<T>,
    basic: Vec<bool>,
    basic_of_row: Vec<usize>,
    n_active: usize,
    clock: CpuClock,
    model: CpuModel,
    /// Scratch for the in-place eta update.
    rowp: Vec<T>,
    eta: Vec<T>,
    /// How the basis is held: the explicit inverse `factor.inv`, or
    /// SparseLU's factors of `B₀` with `etas` carrying the pivots since.
    factor: BasisFactor<T>,
    etas: EtaFile<T>,
}

/// Dense serial CPU backend.
pub type CpuDenseBackend<T> = CpuBackend<T, DenseMatrix<T>>;

/// Sparse-pricing (CSC) serial CPU backend.
pub type CpuSparseBackend<T> = CpuBackend<T, CscMatrix<T>>;

impl<T: Scalar, C: ColumnStore<T>> CpuBackend<T, C> {
    /// Build from standard-form data, storing `A` as `C`. `basis0` must be
    /// an identity basis (slacks/artificials), which standard-form
    /// construction guarantees.
    pub fn new(a: &CscMatrix<T>, b: &[T], n_active: usize, basis0: &[usize]) -> Self {
        let a = C::from_csc(a);
        let m = a.rows();
        assert_eq!(b.len(), m, "rhs length mismatch");
        assert!(n_active <= a.cols(), "n_active exceeds column count");
        let mut basic = vec![false; a.cols()];
        for &j in basis0 {
            basic[j] = true;
        }
        CpuBackend {
            a,
            b: b.to_vec(),
            beta: b.to_vec(),
            pi: vec![T::ZERO; m],
            d: vec![T::ZERO; n_active],
            alpha: vec![T::ZERO; m],
            costs: vec![T::ZERO; n_active],
            cb: vec![T::ZERO; m],
            basic,
            basic_of_row: basis0.to_vec(),
            n_active,
            clock: CpuClock::new(),
            factor: BasisFactor::new(m),
            model: CpuModel::core2_era(),
            rowp: vec![T::ZERO; m],
            eta: vec![T::ZERO; m],
            etas: EtaFile::new(),
        }
    }

    fn charge(&self, flops: u64, bytes: u64) {
        self.clock
            .charge(self.model.op_time(flops, bytes, T::IS_F64));
    }

    /// Charge the eta-chain tail of an FTRAN/BTRAN: ~2m flops per eta.
    fn charge_eta_chain(&self) {
        let m = self.m() as u64;
        let k = self.etas.len() as u64;
        if k > 0 {
            self.charge(2 * m * k, m * k * T::BYTES);
        }
    }
}

impl<T: Scalar, C: ColumnStore<T>> Backend<T> for CpuBackend<T, C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn clock(&self) -> SimTime {
        self.clock.elapsed()
    }

    fn m(&self) -> usize {
        self.beta.len()
    }

    fn n_active(&self) -> usize {
        self.n_active
    }

    fn set_phase_costs(&mut self, c: &[T]) -> Result<(), BackendError> {
        assert!(c.len() >= self.n_active, "phase costs too short");
        self.costs.copy_from_slice(&c[..self.n_active]);
        self.charge(0, self.n_active as u64 * T::BYTES);
        Ok(())
    }

    fn set_basic_costs(&mut self, cb: &[T]) -> Result<(), BackendError> {
        self.cb.copy_from_slice(cb);
        Ok(())
    }

    fn compute_btran(&mut self) -> Result<(), BackendError> {
        let m = self.m() as u64;
        match self.factor.rep {
            BasisRepresentation::ExplicitInverse => {
                // π = c_Bᵀ B⁻¹ (a transposed gemv over B⁻¹, dense whatever
                // A's sparsity).
                blas::gemv_t(T::ONE, &self.factor.inv, &self.cb, T::ZERO, &mut self.pi);
                self.charge(2 * m * m, m * m * T::BYTES);
            }
            BasisRepresentation::SparseLU => {
                // π = (c_Bᵀ E_k…E_1) B₀⁻¹ with B₀⁻¹ applied as two sparse
                // triangular solves — O(nnz(L+U)) instead of the m² matvec.
                self.pi.copy_from_slice(&self.cb);
                self.etas.btran_in_place(&mut self.pi);
                self.charge_eta_chain();
                let f = self.factor.lu_btran(&mut self.pi);
                self.charge(f, f * T::BYTES);
            }
        }
        Ok(())
    }

    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError> {
        assert!(start + len <= self.n_active, "pricing window out of range");
        // d_j = c_j − πᵀ a_j over the window.
        let window = start..start + len;
        let d = &mut self.d[window.clone()];
        self.a.col_dots(start, &self.pi, d);
        for (dj, &cj) in d.iter_mut().zip(&self.costs[window.clone()]) {
            *dj = cj - *dj;
        }
        let work: u64 = window.map(|j| self.a.col_len(j)).sum();
        self.charge(2 * work, work * (T::BYTES + C::INDEX_BYTES));
        Ok(())
    }

    fn entering_dantzig_window(
        &mut self,
        tol: T,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, T)>, BackendError> {
        assert!(
            start + len <= self.n_active,
            "selection window out of range"
        );
        let mut best: Option<(usize, T)> = None;
        for (j, &dj) in self.d.iter().enumerate().skip(start).take(len) {
            if self.basic[j] {
                continue;
            }
            if dj < -tol {
                match best {
                    Some((_, bv)) if !(dj < bv) => {}
                    _ => best = Some((j, dj)),
                }
            }
        }
        let n = len as u64;
        self.charge(n, n * T::BYTES);
        Ok(best)
    }

    fn entering_bland(&mut self, tol: T) -> Result<Option<(usize, T)>, BackendError> {
        let res = self
            .d
            .iter()
            .enumerate()
            .find(|&(j, &dj)| !self.basic[j] && dj < -tol)
            .map(|(j, &dj)| (j, dj));
        let n = self.n_active as u64;
        self.charge(n, n * T::BYTES);
        Ok(res)
    }

    fn compute_alpha(&mut self, q: usize) -> Result<(), BackendError> {
        assert!(q < self.n_active, "entering column out of active range");
        let m = self.m() as u64;
        let nnz_q = self.a.col_len(q);
        if self.factor.rep == BasisRepresentation::SparseLU {
            // α = E_k…E_1 B₀⁻¹ a_q: load a_q dense, two sparse triangular
            // solves, then the eta tail — no dense matvec.
            self.a.load_col(q, &mut self.alpha);
            let f = self.factor.lu_ftran(&mut self.alpha);
            self.charge(f + nnz_q, (f + nnz_q) * T::BYTES);
            self.etas.ftran_in_place(&mut self.alpha);
            self.charge_eta_chain();
            return Ok(());
        }
        self.a.ftran(&self.factor.inv, q, &mut self.alpha);
        self.charge(2 * nnz_q * m, nnz_q * m * T::BYTES);
        Ok(())
    }

    fn ratio_test(&mut self, pivot_tol: T) -> Result<RatioOutcome<T>, BackendError> {
        let mut best: Option<(usize, T)> = None;
        for (i, (&a, &b)) in self.alpha.iter().zip(&self.beta).enumerate() {
            if a > pivot_tol {
                let r = if b > T::ZERO { b / a } else { T::ZERO };
                match best {
                    Some((_, br)) if !(r < br) => {}
                    _ => best = Some((i, r)),
                }
            }
        }
        let m = self.m() as u64;
        self.charge(2 * m, 2 * m * T::BYTES);
        Ok(match best {
            None => RatioOutcome::Unbounded,
            Some((p, theta)) => RatioOutcome::Pivot { p, theta },
        })
    }

    fn pivot(&mut self, p: usize, q: usize, theta: T, cost: T) -> Result<(), BackendError> {
        let old = self.basic_of_row[p];
        self.basic[old] = false;
        self.basic[q] = true;
        self.basic_of_row[p] = q;
        self.cb[p] = cost;
        let m = self.m();
        // β update.
        for i in 0..m {
            if i == p {
                self.beta[i] = theta;
            } else {
                self.beta[i] = (self.beta[i] - theta * self.alpha[i]).maxs(T::ZERO);
            }
        }
        if self.factor.rep == BasisRepresentation::SparseLU {
            // Eta-style update: append the eta, leave B₀ untouched — O(m).
            self.etas.push_pivot(p, &self.alpha);
            let mu = m as u64;
            self.charge(4 * mu, 3 * mu * T::BYTES);
            return Ok(());
        }
        // Eta column.
        let ap = self.alpha[p];
        debug_assert!(ap != T::ZERO, "pivot on zero element");
        for i in 0..m {
            self.eta[i] = if i == p {
                T::ONE / ap
            } else {
                -self.alpha[i] / ap
            };
        }
        // Save old row p, then B⁻¹ ← E·B⁻¹ in place, column by column.
        let binv = &mut self.factor.inv;
        for j in 0..m {
            self.rowp[j] = binv.get(p, j);
        }
        for j in 0..m {
            let rpj = self.rowp[j];
            let col = binv.col_mut(j);
            for (i, (b, &ei)) in col.iter_mut().zip(&self.eta).enumerate() {
                let old = if i == p { T::ZERO } else { *b };
                *b = ei.mul_add(rpj, old);
            }
        }
        let mm = (m * m) as u64;
        self.charge(2 * mm + 4 * m as u64, 2 * mm * T::BYTES);
        Ok(())
    }

    fn beta(&mut self) -> Result<Vec<T>, BackendError> {
        self.charge(0, self.m() as u64 * T::BYTES);
        Ok(self.beta.clone())
    }

    fn objective_now(&mut self) -> Result<T, BackendError> {
        let m = self.m() as u64;
        self.charge(2 * m, 2 * m * T::BYTES);
        Ok(blas::dot(&self.cb, &self.beta))
    }

    fn refactorize(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        for &j in &self.basic_of_row {
            self.basic[j] = false;
        }
        for &j in basis {
            self.basic[j] = true;
        }
        self.basic_of_row.copy_from_slice(basis);
        // The chain goes first, even if the factorization below fails: it
        // described pivots on the old basis, and the mirror now holds the
        // new one.
        self.etas.clear();
        let t = self
            .factor
            .refactorize(&self.a, basis, &self.b, &mut self.beta)?;
        self.clock.charge(t);
        Ok(())
    }

    fn alpha_at(&mut self, i: usize) -> Result<T, BackendError> {
        Ok(self.alpha[i])
    }

    fn set_representation(&mut self, rep: BasisRepresentation) {
        debug_assert!(
            self.etas.is_empty(),
            "representation must be chosen before the first pivot"
        );
        self.factor.rep = rep;
    }

    fn representation(&self) -> BasisRepresentation {
        self.factor.rep
    }

    fn eta_chain_len(&self) -> usize {
        self.etas.len()
    }

    fn lu_stats(&self) -> Option<LuReport> {
        self.factor.lu_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard form of: min −3x −5y s.t. x + s1 = 4, 2y + s2 = 12,
    /// 3x + 2y + s3 = 18 (the Wyndor problem, already standardized).
    fn wyndor_std() -> (CscMatrix<f64>, Vec<f64>, Vec<f64>, Vec<usize>) {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        let a = linalg::CsrMatrix::from_dense(&a, 0.0).to_csc();
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![-3.0, -5.0, 0.0, 0.0, 0.0];
        let basis0 = vec![2, 3, 4];
        (a, b, c, basis0)
    }

    #[test]
    fn one_manual_iteration_matches_textbook() {
        let (a, b, c, basis0) = wyndor_std();
        let mut be = CpuDenseBackend::new(&a, &b, 5, &basis0);
        be.set_phase_costs(&c).unwrap();
        let cb: Vec<f64> = basis0.iter().map(|&j| c[j]).collect();
        be.set_basic_costs(&cb).unwrap();
        be.compute_pricing().unwrap();
        // All-slack basis: π = 0, d = c.
        let (q, dq) = be.entering_dantzig(1e-9).unwrap().unwrap();
        assert_eq!(q, 1); // y has the most negative cost −5
        assert_eq!(dq, -5.0);
        be.compute_alpha(q).unwrap();
        // α = a_y = (0, 2, 2).
        match be.ratio_test(1e-9).unwrap() {
            RatioOutcome::Pivot { p, theta } => {
                assert_eq!(p, 1); // 12/2 = 6 < 18/2 = 9
                assert_eq!(theta, 6.0);
                be.pivot(p, q, theta, c[q]).unwrap();
            }
            RatioOutcome::Unbounded => panic!("should pivot"),
        }
        // New β = (4, 6, 6); objective = −30.
        assert_eq!(be.beta().unwrap(), vec![4.0, 6.0, 6.0]);
        assert_eq!(be.objective_now().unwrap(), -30.0);
        assert!(be.clock().as_nanos() > 0.0);
    }

    #[test]
    fn refactorize_identity_basis_is_identity() {
        let (a, b, _c, basis0) = wyndor_std();
        let mut de = CpuDenseBackend::new(&a, &b, 5, &basis0);
        de.refactorize(&basis0).unwrap();
        assert_eq!(de.beta().unwrap(), b);
        let mut sp = CpuSparseBackend::new(&a, &b, 5, &basis0);
        sp.refactorize(&basis0).unwrap();
        assert_eq!(sp.beta().unwrap(), b);
    }

    #[test]
    fn refactorize_detects_singular_basis() {
        let (a, b, _c, _) = wyndor_std();
        let mut be = CpuDenseBackend::new(&a, &b, 5, &[2, 3, 4]);
        // Columns 0 and 0 twice → singular.
        assert_eq!(be.refactorize(&[0, 0, 4]), Err(BackendError::Singular));
    }

    /// A SparseLU reinversion onto a singular basis still drops the eta
    /// chain: the mirror already holds the new basis, which the old etas
    /// do not describe. β keeps its last value.
    #[test]
    fn singular_sparse_lu_reinversion_clears_the_eta_chain() {
        let (a, b, c, basis0) = wyndor_std();
        let mut sp = CpuSparseBackend::new(&a, &b, 5, &basis0);
        let mut de = CpuDenseBackend::new(&a, &b, 5, &basis0);
        for be in [
            &mut sp as &mut dyn Backend<f64>,
            &mut de as &mut dyn Backend<f64>,
        ] {
            be.set_representation(BasisRepresentation::SparseLU);
            be.set_phase_costs(&c).unwrap();
            be.compute_alpha(1).unwrap();
            be.pivot(1, 1, 6.0, c[1]).unwrap();
            assert_eq!(be.eta_chain_len(), 1);
            let beta = be.beta().unwrap();
            assert_eq!(be.refactorize(&[0, 0, 4]), Err(BackendError::Singular));
            assert_eq!(be.eta_chain_len(), 0, "{}", be.name());
            assert_eq!(be.beta().unwrap(), beta);
        }
    }

    #[test]
    fn bland_picks_smallest_index() {
        let (a, b, c, basis0) = wyndor_std();
        let mut be = CpuDenseBackend::new(&a, &b, 5, &basis0);
        be.set_phase_costs(&c).unwrap();
        be.compute_pricing().unwrap();
        let (q, dq) = be.entering_bland(1e-9).unwrap().unwrap();
        assert_eq!(q, 0); // x comes first even though y is more negative
        assert_eq!(dq, -3.0);
    }

    #[test]
    fn sparse_backend_tracks_dense_backend_exactly() {
        let (a, b, c, basis0) = wyndor_std();
        let mut sp = CpuSparseBackend::new(&a, &b, 5, &basis0);
        let mut de = CpuDenseBackend::new(&a, &b, 5, &basis0);
        assert_eq!((sp.name(), de.name()), ("cpu-sparse", "cpu-dense"));
        for be in [
            &mut sp as &mut dyn Backend<f64>,
            &mut de as &mut dyn Backend<f64>,
        ] {
            be.set_phase_costs(&c).unwrap();
            let cb: Vec<f64> = basis0.iter().map(|&j| c[j]).collect();
            be.set_basic_costs(&cb).unwrap();
        }
        // Run two full iterations in lockstep and compare state.
        for _ in 0..2 {
            sp.compute_pricing().unwrap();
            de.compute_pricing().unwrap();
            let es = sp.entering_dantzig(1e-9).unwrap();
            let ed = de.entering_dantzig(1e-9).unwrap();
            assert_eq!(es, ed);
            let Some((q, _)) = es else { break };
            sp.compute_alpha(q).unwrap();
            de.compute_alpha(q).unwrap();
            let rs = sp.ratio_test(1e-9).unwrap();
            let rd = de.ratio_test(1e-9).unwrap();
            assert_eq!(rs, rd);
            let RatioOutcome::Pivot { p, theta } = rs else {
                panic!("bounded problem")
            };
            sp.pivot(p, q, theta, c[q]).unwrap();
            de.pivot(p, q, theta, c[q]).unwrap();
            assert_eq!(sp.beta().unwrap(), de.beta().unwrap());
        }
        assert_eq!(sp.objective_now().unwrap(), de.objective_now().unwrap());
    }
}
