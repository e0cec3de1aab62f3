//! Sparse-pricing CPU backend (extension experiment F5).
//!
//! Stores the constraint matrix in CSC so pricing and FTRAN cost O(nnz)
//! instead of O(m·n) — but keeps `B⁻¹` dense, because the inverse of a
//! sparse basis fills in within a few dozen eta updates (the observation
//! the follow-on sparse-simplex literature, e.g. the thesis citing this
//! paper, keeps rediscovering). The per-iteration O(m²) update therefore
//! still dominates asymptotically; F5 measures exactly that effect.

use gpu_sim::SimTime;
use linalg::blas;
use linalg::cpu_model::{CpuClock, CpuModel};
use linalg::lu::SparseLu;
use linalg::sparse::CscMatrix;
use linalg::{CsrMatrix, DenseMatrix, Scalar};

use crate::backend::{Backend, LuReport, RatioOutcome};
use crate::basis::EtaFile;
use crate::error::BackendError;
use crate::options::BasisRepresentation;

/// Threshold-pivoting parameter for the sparse LU refactorization (the
/// classic Markowitz default).
pub(crate) const LU_TAU: f64 = 0.1;

/// Sparse serial CPU backend.
pub struct CpuSparseBackend<T: Scalar> {
    /// Full matrix in CSC (all columns, artificials included).
    csc: CscMatrix<T>,
    b: Vec<T>,
    binv: DenseMatrix<T>,
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
    rowp: Vec<T>,
    eta: Vec<T>,
    rep: BasisRepresentation,
    etas: EtaFile<T>,
    /// Sparse LU of `B₀` (SparseLU representation only). `None` until the
    /// first refactorization: the initial basis is the identity
    /// (slacks/artificials), so `B₀⁻¹ = I` needs no factors.
    lu: Option<SparseLu<T>>,
    lu_scratch: Vec<T>,
    lu_report: LuReport,
}

impl<T: Scalar> CpuSparseBackend<T> {
    /// Build from a sparse matrix (CSR, converted internally to CSC).
    pub fn new(a: &CsrMatrix<T>, b: &[T], n_active: usize, basis0: &[usize]) -> Self {
        let m = a.rows();
        assert_eq!(b.len(), m, "rhs length mismatch");
        assert!(n_active <= a.cols(), "n_active exceeds column count");
        let mut basic = vec![false; a.cols()];
        for &j in basis0 {
            basic[j] = true;
        }
        CpuSparseBackend {
            csc: a.to_csc(),
            b: b.to_vec(),
            binv: DenseMatrix::identity(m),
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
            model: CpuModel::core2_era(),
            rowp: vec![T::ZERO; m],
            eta: vec![T::ZERO; m],
            rep: BasisRepresentation::ExplicitInverse,
            etas: EtaFile::new(),
            lu: None,
            lu_scratch: vec![T::ZERO; m],
            lu_report: LuReport::default(),
        }
    }

    fn charge(&self, flops: u64, bytes: u64) {
        self.clock
            .charge(self.model.op_time(flops, bytes, T::IS_F64));
    }

    /// Charge the eta-chain tail of an FTRAN/BTRAN: ~2m flops per eta.
    fn charge_eta_chain(&self) {
        let m = self.binv.rows() as u64;
        let k = self.etas.len() as u64;
        if k > 0 {
            self.charge(2 * m * k, m * k * T::BYTES);
        }
    }
}

impl<T: Scalar> Backend<T> for CpuSparseBackend<T> {
    fn name(&self) -> &'static str {
        "cpu-sparse"
    }

    fn clock(&self) -> SimTime {
        self.clock.elapsed()
    }

    fn m(&self) -> usize {
        self.binv.rows()
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
        match self.rep {
            BasisRepresentation::ExplicitInverse => {
                // π = c_Bᵀ B⁻¹ — dense, B⁻¹ fills in regardless of A's sparsity.
                blas::gemv_t(T::ONE, &self.binv, &self.cb, T::ZERO, &mut self.pi);
                self.charge(2 * m * m, m * m * T::BYTES);
            }
            BasisRepresentation::SparseLU => {
                // π = (c_Bᵀ E_k…E_1) B₀⁻¹ with B₀⁻¹ applied as two sparse
                // triangular solves — O(nnz(L+U)) instead of the m² matvec.
                self.pi.copy_from_slice(&self.cb);
                self.etas.btran_in_place(&mut self.pi);
                self.charge_eta_chain();
                if let Some(lu) = &self.lu {
                    lu.btran_in_place(&mut self.pi, &mut self.lu_scratch);
                }
                let f = self.lu.as_ref().map_or(0, |lu| lu.solve_flops());
                self.charge(f, f * T::BYTES);
            }
        }
        Ok(())
    }

    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError> {
        assert!(start + len <= self.n_active, "pricing window out of range");
        // Sparse pricing: d_j = c_j − π·a_j at O(nnz_j) each.
        let mut window_nnz = 0u64;
        for j in start..start + len {
            self.d[j] = self.costs[j] - self.csc.col_dot(j, &self.pi);
            window_nnz += (self.csc.col_ptr[j + 1] - self.csc.col_ptr[j]) as u64;
        }
        self.charge(2 * window_nnz, window_nnz * (T::BYTES + 4));
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
        for v in self.alpha.iter_mut() {
            *v = T::ZERO;
        }
        if self.rep == BasisRepresentation::SparseLU {
            // α = E_k…E_1 B₀⁻¹ a_q: scatter a_q dense, two sparse
            // triangular solves, then the eta tail — no dense matvec.
            let mut nnz_q = 0u64;
            for (r, v) in self.csc.col(q) {
                self.alpha[r] = v;
                nnz_q += 1;
            }
            if let Some(lu) = &self.lu {
                lu.ftran_in_place(&mut self.alpha, &mut self.lu_scratch);
            }
            let f = self.lu.as_ref().map_or(0, |lu| lu.solve_flops());
            self.charge(f + nnz_q, (f + nnz_q) * T::BYTES);
            self.etas.ftran_in_place(&mut self.alpha);
            self.charge_eta_chain();
            return Ok(());
        }
        // α = B⁻¹ a_q = Σ_k v_k · B⁻¹[:, r_k] over a_q's nonzeros.
        let mut nnz_q = 0u64;
        for (r, v) in self.csc.col(q) {
            blas::axpy(v, self.binv.col(r), &mut self.alpha);
            nnz_q += 1;
        }
        let m = self.m() as u64;
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
        for i in 0..m {
            if i == p {
                self.beta[i] = theta;
            } else {
                self.beta[i] = (self.beta[i] - theta * self.alpha[i]).maxs(T::ZERO);
            }
        }
        if self.rep == BasisRepresentation::SparseLU {
            // Append to the eta file instead of the O(m²) in-place update.
            self.etas.push_pivot(p, &self.alpha);
            let mu = m as u64;
            self.charge(4 * mu, 3 * mu * T::BYTES);
            return Ok(());
        }
        let ap = self.alpha[p];
        debug_assert!(ap != T::ZERO, "pivot on zero element");
        for i in 0..m {
            self.eta[i] = if i == p {
                T::ONE / ap
            } else {
                -self.alpha[i] / ap
            };
        }
        for j in 0..m {
            self.rowp[j] = self.binv.get(p, j);
        }
        for j in 0..m {
            let rpj = self.rowp[j];
            let col = self.binv.col_mut(j);
            for (i, (bb, &ei)) in col.iter_mut().zip(&self.eta).enumerate() {
                let old = if i == p { T::ZERO } else { *bb };
                *bb = ei.mul_add(rpj, old);
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
        self.etas.clear();
        let m = self.m();
        for &j in &self.basic_of_row {
            self.basic[j] = false;
        }
        for &j in basis {
            self.basic[j] = true;
        }
        self.basic_of_row.copy_from_slice(basis);
        if self.rep == BasisRepresentation::SparseLU {
            // Factorize B₀ itself (Markowitz + threshold pivoting) instead
            // of forming the dense inverse — the factors stay sparse where
            // the inverse would fill in.
            let cols: Vec<Vec<(usize, f64)>> = basis
                .iter()
                .map(|&j| self.csc.col(j).map(|(i, v)| (i, v.to_f64())).collect())
                .collect();
            let lu = SparseLu::<T>::factorize(m, &cols, LU_TAU).ok_or(BackendError::Singular)?;
            let s = lu.stats();
            self.lu_report.fill_in = self.lu_report.fill_in.max(s.fill_in as u64);
            self.lu_report.refactor_nnz = self.lu_report.refactor_nnz.max(s.factor_nnz as u64);
            self.lu_report.markowitz_rejections += s.markowitz_rejections as u64;
            self.beta.copy_from_slice(&self.b);
            lu.ftran_in_place(&mut self.beta, &mut self.lu_scratch);
            for v in self.beta.iter_mut() {
                *v = v.maxs(T::ZERO);
            }
            let flops = s.factor_flops + lu.solve_flops();
            self.lu = Some(lu);
            // Factorization runs in f64 host-side like the dense path.
            self.clock
                .charge(self.model.op_time(flops, flops * 8, true));
            return Ok(());
        }
        let mut bmat = DenseMatrix::<f64>::zeros(m, m);
        for (r, &j) in basis.iter().enumerate() {
            for (i, v) in self.csc.col(j) {
                bmat.set(i, r, v.to_f64());
            }
        }
        let inv = linalg::blas::gauss_jordan_invert(&bmat).ok_or(BackendError::Singular)?;
        for j in 0..m {
            for i in 0..m {
                self.binv.set(i, j, T::from_f64(inv.get(i, j)));
            }
        }
        blas::gemv_n(T::ONE, &self.binv, &self.b, T::ZERO, &mut self.beta);
        for v in self.beta.iter_mut() {
            *v = v.maxs(T::ZERO);
        }
        // Priced identically to the dense backends (f64 host reinversion).
        let m3 = (m as u64).pow(3);
        self.clock.charge(
            self.model
                .op_time(2 * m3, (m as u64 * m as u64) * 8 * 3, true),
        );
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
        self.rep = rep;
    }

    fn representation(&self) -> BasisRepresentation {
        self.rep
    }

    fn eta_chain_len(&self) -> usize {
        self.etas.len()
    }

    fn lu_stats(&self) -> Option<LuReport> {
        (self.rep == BasisRepresentation::SparseLU && self.lu.is_some()).then_some(self.lu_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::CpuDenseBackend;

    fn wyndor_dense() -> (DenseMatrix<f64>, Vec<f64>, Vec<f64>, Vec<usize>) {
        let a = DenseMatrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        (
            a,
            vec![4.0, 12.0, 18.0],
            vec![-3.0, -5.0, 0.0, 0.0, 0.0],
            vec![2, 3, 4],
        )
    }

    #[test]
    fn sparse_backend_tracks_dense_backend_exactly() {
        let (a, b, c, basis0) = wyndor_dense();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let mut sp = CpuSparseBackend::new(&csr, &b, 5, &basis0);
        let mut de = CpuDenseBackend::new(&a, &b, 5, &basis0);
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

    #[test]
    fn sparse_refactorize_matches_identity_start() {
        let (a, b, _c, basis0) = wyndor_dense();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let mut sp = CpuSparseBackend::new(&csr, &b, 5, &basis0);
        sp.refactorize(&basis0).unwrap();
        assert_eq!(sp.beta().unwrap(), b);
    }
}
