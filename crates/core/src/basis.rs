//! The host basis factor and the eta file.
//!
//! `BasisFactor` is the one host reinversion: every backend that rebuilds
//! its basis on the host (the CPU backend, the GPU backend's fallback and
//! SparseLU paths, and each mega-batch lane) gathers `B = A[:, basis]` from
//! a [`ColumnStore`], factors it in f64, installs `B⁻¹` (or SparseLU's
//! factors) and the clamped `β = max(B⁻¹b, 0)`, and is charged one modeled
//! CPU time for it. `basis_lu` is the dense LU of the same gather, which
//! the warm-start probe and the terminal polish and duals solve with.
//!
//! The eta file holds the pivots since the last refactorization, kept as a
//! chain of elementary matrices on top of the factored basis `B₀`.
//!
//! [`crate::BasisRepresentation::SparseLU`] refactorizes `B₀ = L U` at
//! every reinversion and records each pivot since as one *eta vector*
//! instead of updating anything in place:
//!
//! ```text
//! B_k⁻¹ = E_k · E_{k-1} · … · E_1 · B₀⁻¹
//! ```
//!
//! where each `E` is the identity with column `p` replaced by the eta
//! vector `η` built from the pivot's FTRAN column `α`:
//!
//! ```text
//! η_p = 1/α_p        η_i = −α_i/α_p   (i ≠ p)
//! ```
//!
//! FTRAN (`x ← B⁻¹ a`) becomes the two triangular solves against `B₀`
//! followed by the etas applied oldest-first; BTRAN (`yᵀ ← cᵀ B⁻¹`) applies
//! them newest-first, each as a single dot product, then the solves. Both
//! cost O(m) per eta, with the chain length `k` bounded by the reinversion
//! cadence. The chain is cleared (folded into fresh factors) at every
//! refactorization, which is also what keeps checkpoint boundaries pure
//! functions of the basis: a snapshot never has to serialize the chain.

use gpu_sim::SimTime;
use linalg::blas::{self, DenseLu};
use linalg::{CpuModel, CscMatrix, DenseMatrix, Scalar, SparseLu};

use crate::backend::LuReport;
use crate::error::BackendError;
use crate::options::BasisRepresentation;

/// Threshold-pivoting parameter for the sparse LU refactorization (the
/// classic Markowitz default).
const LU_TAU: f64 = 0.1;

/// A column view of the constraint matrix `A` (all columns, artificials
/// included): what a basis factor gathers from, and everything the CPU
/// backend's per-iteration work reads of `A`.
pub trait ColumnStore<T: Scalar> {
    /// Report name of the CPU backend over this store.
    const NAME: &'static str;
    /// Bytes of index data the store reads per stored entry.
    const INDEX_BYTES: u64;
    /// The store's image of the standard form's `A`.
    fn from_csc(a: &CscMatrix<T>) -> Self;
    /// Row count `m`.
    fn rows(&self) -> usize;
    /// Column count.
    fn cols(&self) -> usize;
    /// Entries stored for column `j` (the modeled work of touching it).
    fn col_len(&self, j: usize) -> u64;
    /// Column `j`'s nonzeros as `(row, value)`.
    fn col_nonzeros(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_;
    /// Write column `j` into the dense `out` (length `m`).
    fn load_col(&self, j: usize, out: &mut [T]);
    /// `out[k] = πᵀ a_{first+k}` over a window of columns, each summed in
    /// [`blas::dot`]'s order.
    fn col_dots(&self, first: usize, pi: &[T], out: &mut [T]);
    /// Explicit-inverse FTRAN: `alpha = B⁻¹ a_q`.
    fn ftran(&self, binv: &DenseMatrix<T>, q: usize, alpha: &mut [T]);
}

impl<T: Scalar> ColumnStore<T> for DenseMatrix<T> {
    const NAME: &'static str = "cpu-dense";
    const INDEX_BYTES: u64 = 0;

    fn from_csc(a: &CscMatrix<T>) -> Self {
        a.to_dense()
    }

    fn rows(&self) -> usize {
        DenseMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }

    fn col_len(&self, _j: usize) -> u64 {
        DenseMatrix::rows(self) as u64
    }

    fn col_nonzeros(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        self.col(j)
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != T::ZERO)
            .map(|(i, &v)| (i, v))
    }

    fn load_col(&self, j: usize, out: &mut [T]) {
        out.copy_from_slice(self.col(j));
    }

    fn col_dots(&self, first: usize, pi: &[T], out: &mut [T]) {
        blas::col_dots(self, first, pi, out);
    }

    fn ftran(&self, binv: &DenseMatrix<T>, q: usize, alpha: &mut [T]) {
        blas::gemv_n(T::ONE, binv, self.col(q), T::ZERO, alpha);
    }
}

impl<T: Scalar> ColumnStore<T> for CscMatrix<T> {
    const NAME: &'static str = "cpu-sparse";
    const INDEX_BYTES: u64 = 4;

    fn from_csc(a: &CscMatrix<T>) -> Self {
        a.clone()
    }

    fn rows(&self) -> usize {
        CscMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CscMatrix::cols(self)
    }

    fn col_len(&self, j: usize) -> u64 {
        (self.col_ptr[j + 1] - self.col_ptr[j]) as u64
    }

    fn col_nonzeros(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        self.col(j)
    }

    fn load_col(&self, j: usize, out: &mut [T]) {
        out.fill(T::ZERO);
        for (i, v) in self.col(j) {
            out[i] = v;
        }
    }

    fn col_dots(&self, first: usize, pi: &[T], out: &mut [T]) {
        for (j, o) in (first..).zip(out) {
            *o = self.col_dot(j, pi);
        }
    }

    fn ftran(&self, binv: &DenseMatrix<T>, q: usize, alpha: &mut [T]) {
        // α = Σ_k v_k · B⁻¹[:, r_k] over a_q's nonzeros.
        alpha.fill(T::ZERO);
        for (r, v) in self.col(q) {
            blas::axpy(v, binv.col(r), alpha);
        }
    }
}

/// `B = A[:, basis]` in f64.
fn gather<T: Scalar, C: ColumnStore<T>>(a: &C, basis: &[usize]) -> DenseMatrix<f64> {
    let m = a.rows();
    let mut bmat = DenseMatrix::zeros(m, m);
    let mut col = vec![T::ZERO; m];
    for (r, &j) in basis.iter().enumerate() {
        a.load_col(j, &mut col);
        for (o, v) in bmat.col_mut(r).iter_mut().zip(&col) {
            *o = v.to_f64();
        }
    }
    bmat
}

/// Dense f64 LU of the basis `A[:, basis]`, for host solves against a
/// basis the solver does not iterate on: the warm-start feasibility probe,
/// and the terminal polish and duals, which share one factorization.
/// `None` when the basis is numerically singular.
pub(crate) fn basis_lu<T: Scalar, C: ColumnStore<T>>(
    a: &C,
    basis: &[usize],
) -> Option<DenseLu<f64>> {
    DenseLu::factor(&gather(a, basis))
}

/// The host factorization of the basis, rebuilt by every host reinversion
/// under the solve's [`BasisRepresentation`]: the f64 Gauss–Jordan inverse
/// (narrowed to `T`) for the explicit inverse, or SparseLU's factors of
/// `B₀`. Reinversion runs in f64 whatever `T` is, because it exists to
/// purge accumulated error.
pub(crate) struct BasisFactor<T: Scalar> {
    pub(crate) rep: BasisRepresentation,
    /// `B⁻¹` after the last explicit reinversion. Starts as the identity
    /// of the slack/artificial basis for a backend that iterates on it,
    /// and empty for one that keeps `B⁻¹` on the device.
    pub(crate) inv: DenseMatrix<T>,
    /// SparseLU's factors of `B₀`; `None` while `B₀` is still the identity
    /// start basis.
    lu: Option<SparseLu<T>>,
    scratch: Vec<T>,
    report: LuReport,
    /// Prices the reinversion on the host CPU.
    model: CpuModel,
}

impl<T: Scalar> BasisFactor<T> {
    /// A factor of the identity basis whose explicit inverse has `m` rows,
    /// priced on the paper-era CPU model.
    pub(crate) fn new(m: usize) -> Self {
        BasisFactor {
            rep: BasisRepresentation::ExplicitInverse,
            inv: DenseMatrix::identity(m),
            lu: None,
            scratch: vec![T::ZERO; m],
            report: LuReport::default(),
            model: CpuModel::core2_era(),
        }
    }

    /// SparseLU's factors of `B₀`, once a factorization has run.
    pub(crate) fn lu(&self) -> Option<&SparseLu<T>> {
        self.lu.as_ref()
    }

    /// `x ← B₀⁻¹ x` through the SparseLU factors (the identity before the
    /// first factorization). Returns the modeled flops.
    pub(crate) fn lu_ftran(&mut self, x: &mut [T]) -> u64 {
        self.lu.as_ref().map_or(0, |lu| {
            lu.ftran_in_place(x, &mut self.scratch);
            lu.solve_flops()
        })
    }

    /// `yᵀ ← yᵀ B₀⁻¹` through the SparseLU factors. Returns the modeled
    /// flops.
    pub(crate) fn lu_btran(&mut self, y: &mut [T]) -> u64 {
        self.lu.as_ref().map_or(0, |lu| {
            lu.btran_in_place(y, &mut self.scratch);
            lu.solve_flops()
        })
    }

    /// The SparseLU counters, once a SparseLU factorization has run.
    pub(crate) fn lu_stats(&self) -> Option<LuReport> {
        (self.rep == BasisRepresentation::SparseLU && self.lu.is_some()).then_some(self.report)
    }

    /// Factor `B = A[:, basis]`, install `B⁻¹` (or the factors) and
    /// `beta = max(B⁻¹b, 0)`, and return the modeled host time, which the
    /// caller charges to its own clock. A singular basis leaves the
    /// installed factor untouched.
    pub(crate) fn refactorize<C: ColumnStore<T>>(
        &mut self,
        a: &C,
        basis: &[usize],
        b: &[T],
        beta: &mut [T],
    ) -> Result<SimTime, BackendError> {
        let m = a.rows();
        let (flops, bytes) = match self.rep {
            BasisRepresentation::SparseLU => {
                let cols: Vec<Vec<(usize, f64)>> = basis
                    .iter()
                    .map(|&j| a.col_nonzeros(j).map(|(i, v)| (i, v.to_f64())).collect())
                    .collect();
                let lu =
                    SparseLu::<T>::factorize(m, &cols, LU_TAU).ok_or(BackendError::Singular)?;
                let s = lu.stats();
                self.report.fill_in = self.report.fill_in.max(s.fill_in as u64);
                self.report.refactor_nnz = self.report.refactor_nnz.max(s.factor_nnz as u64);
                self.report.markowitz_rejections += s.markowitz_rejections as u64;
                self.scratch.resize(m, T::ZERO);
                beta.copy_from_slice(b);
                lu.ftran_in_place(beta, &mut self.scratch);
                let f = s.factor_flops + lu.solve_flops();
                self.lu = Some(lu);
                (f, f * 8)
            }
            BasisRepresentation::ExplicitInverse => {
                let inv =
                    blas::gauss_jordan_invert(&gather(a, basis)).ok_or(BackendError::Singular)?;
                if self.inv.rows() != m {
                    self.inv = DenseMatrix::zeros(m, m);
                }
                for (o, &v) in self.inv.as_mut_slice().iter_mut().zip(inv.as_slice()) {
                    *o = T::from_f64(v);
                }
                blas::gemv_n(T::ONE, &self.inv, b, T::ZERO, beta);
                let m = m as u64;
                (2 * m.pow(3), 24 * m * m)
            }
        };
        for v in beta.iter_mut() {
            *v = v.maxs(T::ZERO);
        }
        Ok(self.model.op_time(flops, bytes, true))
    }
}

/// One elementary (eta) matrix: identity with column `p` replaced by `eta`.
#[derive(Debug, Clone)]
pub struct Eta<T> {
    /// The pivot row this eta transforms.
    pub p: usize,
    /// The full eta column: `eta[p] = 1/α_p`, `eta[i] = −α_i/α_p` else.
    pub eta: Vec<T>,
    /// Whether every entry of `eta` is finite, cached at push time. A
    /// non-finite eta (a NaN-poisoned pivot column) must poison every
    /// vector it touches so the driver's corruption detection can trip and
    /// reinvert — the FTRAN fast path may only skip finite etas.
    pub finite: bool,
}

/// The eta chain accumulated since the last refactorization.
#[derive(Debug, Clone, Default)]
pub struct EtaFile<T> {
    etas: Vec<Eta<T>>,
}

impl<T: Scalar> EtaFile<T> {
    /// Empty chain.
    pub fn new() -> Self {
        EtaFile { etas: Vec::new() }
    }

    /// Append the eta built from a pivot at row `p` with FTRAN column
    /// `alpha` (the driver guarantees `alpha[p]` is bounded away from 0 by
    /// the pivot tolerance).
    pub fn push_pivot(&mut self, p: usize, alpha: &[T]) {
        let inv = T::ONE / alpha[p];
        let mut eta: Vec<T> = alpha.iter().map(|&a| -(a * inv)).collect();
        eta[p] = inv;
        let finite = eta.iter().all(|e| e.is_finite());
        self.etas.push(Eta { p, eta, finite });
    }

    /// FTRAN tail: apply the chain oldest-first to `x` (which already holds
    /// `B₀⁻¹ a`). ~2m flops per eta. The `xp == 0` skip is bitwise-neutral
    /// only for finite etas; a NaN-poisoned eta is applied unconditionally
    /// (`NaN · 0 = NaN`) so corruption propagates into the iterate instead
    /// of being masked until some later nonzero `x_p` exposes it.
    pub fn ftran_in_place(&self, x: &mut [T]) {
        for Eta { p, eta, finite } in &self.etas {
            let xp = x[*p];
            if xp != T::ZERO || !finite {
                for (xi, ei) in x.iter_mut().zip(eta) {
                    *xi += *ei * xp;
                }
            }
            x[*p] = eta[*p] * xp;
        }
    }

    /// BTRAN head: apply the chain newest-first to `y` (afterwards the
    /// caller applies `B₀⁻¹` from the left). Each eta changes only
    /// `y_p`, to `⟨y, η⟩`. ~2m flops per eta.
    pub fn btran_in_place(&self, y: &mut [T]) {
        for Eta { p, eta, .. } in self.etas.iter().rev() {
            y[*p] = y.iter().zip(eta).map(|(&yi, &ei)| yi * ei).sum();
        }
    }

    /// Drop the chain (the caller just refactorized `B₀`).
    pub fn clear(&mut self) {
        self.etas.clear();
    }

    /// Chain length (pivots since the last refactorization).
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// True when no pivot has happened since the last refactorization.
    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// The etas, oldest first.
    pub fn etas(&self) -> &[Eta<T>] {
        &self.etas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveRequest, SolverOptions, Status};
    use lp::{generator, StandardForm};

    /// A sparse standard form and the optimal basis of its solve: a
    /// nontrivial basis whose dense store holds zeros the CSC store drops.
    fn sparse_fixture() -> (StandardForm<f64>, Vec<usize>) {
        let sf = StandardForm::<f64>::from_lp(&generator::sparse_random(24, 36, 0.15, 5)).unwrap();
        let res = SolveRequest::standard(&sf, &SolverOptions::default())
            .run()
            .unwrap();
        assert_eq!(res.status, Status::Optimal);
        assert!(
            res.basis.iter().any(|&j| j < 36),
            "a structural column is basic"
        );
        (sf, res.basis)
    }

    /// A factor under `rep` built from store `a`, its modeled time and β.
    type Built = (BasisFactor<f64>, SimTime, Vec<f64>);

    fn build<C: ColumnStore<f64>>(
        a: &C,
        sf: &StandardForm<f64>,
        basis: &[usize],
        rep: BasisRepresentation,
    ) -> Built {
        let m = sf.num_rows();
        let mut f = BasisFactor::new(m);
        f.rep = rep;
        let mut beta = vec![0.0; m];
        let t = f.refactorize(a, basis, &sf.b, &mut beta).unwrap();
        (f, t, beta)
    }

    /// The factor built from the dense store and from the CSC store of the
    /// same matrix, under `rep`.
    fn factor_both_stores(rep: BasisRepresentation) -> (Built, Built) {
        let (sf, basis) = sparse_fixture();
        let dense = sf.a.to_dense();
        let csc = &sf.a;
        assert!(csc.values.iter().all(|&v| v != 0.0), "no stored zeros");
        assert!(csc.values.len() < dense.rows() * dense.cols());
        (
            build(&dense, &sf, &basis, rep),
            build(csc, &sf, &basis, rep),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sparse_lu_factor_is_store_independent() {
        let ((fd, td, bd), (fs, ts, bs)) = factor_both_stores(BasisRepresentation::SparseLU);
        let report = fd.lu_stats().expect("a SparseLU factorization ran");
        assert!(report.refactor_nnz > 0);
        assert_eq!(Some(report), fs.lu_stats());
        assert_eq!(bits(&bd), bits(&bs));
        assert_eq!(td, ts);
    }

    #[test]
    fn explicit_inverse_is_store_independent() {
        let ((fd, td, bd), (fs, ts, bs)) = factor_both_stores(BasisRepresentation::ExplicitInverse);
        assert_eq!(fd.lu_stats(), None);
        assert_eq!(bits(fd.inv.as_slice()), bits(fs.inv.as_slice()));
        assert_eq!(bits(&bd), bits(&bs));
        assert_eq!(td, ts);
    }

    #[test]
    fn singular_basis_leaves_the_factor_installed() {
        let (sf, basis) = sparse_fixture();
        for rep in [
            BasisRepresentation::ExplicitInverse,
            BasisRepresentation::SparseLU,
        ] {
            let (mut f, _, mut beta) = build(&sf.a, &sf, &basis, rep);
            let (stats, inv, kept) = (f.lu_stats(), f.inv.clone(), beta.clone());
            let mut twice = basis.clone();
            twice[1] = twice[0];
            let err = f.refactorize(&sf.a, &twice, &sf.b, &mut beta);
            assert_eq!(err, Err(BackendError::Singular));
            assert_eq!((f.lu_stats(), f.inv, beta), (stats, inv, kept), "{rep:?}");
        }
    }

    /// Dense m×m row-major matvec for the reference explicit inverse.
    fn matvec(a: &[f64], x: &[f64], m: usize) -> Vec<f64> {
        (0..m)
            .map(|i| (0..m).map(|j| a[i * m + j] * x[j]).sum())
            .collect()
    }

    /// Explicit rank-1 update `B⁻¹ ← E·B⁻¹` — the reference the eta chain
    /// must reproduce.
    fn explicit_update(binv: &mut [f64], p: usize, alpha: &[f64], m: usize) {
        let piv = alpha[p];
        for j in 0..m {
            binv[p * m + j] /= piv;
        }
        for i in 0..m {
            if i != p {
                let f = alpha[i];
                for j in 0..m {
                    binv[i * m + j] -= f * binv[p * m + j];
                }
            }
        }
    }

    #[test]
    fn eta_chain_matches_explicit_inverse_on_ftran_and_btran() {
        let m = 5;
        // B₀⁻¹ = I; run three synthetic pivots through both representations.
        let mut binv: Vec<f64> = (0..m * m)
            .map(|k| if k % (m + 1) == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut file = EtaFile::<f64>::new();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for step in 0..3 {
            let p = step % m;
            // A pivot column as the driver sees it: α = B_prev⁻¹ a_q.
            let mut alpha: Vec<f64> = (0..m).map(|_| rand()).collect();
            alpha[p] = 1.5 + step as f64 * 0.25;
            explicit_update(&mut binv, p, &alpha, m);
            file.push_pivot(p, &alpha);
        }
        assert_eq!(file.len(), 3);
        let x: Vec<f64> = (0..m).map(|i| 0.3 + i as f64).collect();
        // FTRAN parity.
        let explicit_f = matvec(&binv, &x, m);
        let mut pf = x.clone(); // B₀⁻¹ = I, so the matvec head is x itself
        file.ftran_in_place(&mut pf);
        for (a, b) in explicit_f.iter().zip(&pf) {
            assert!((a - b).abs() < 1e-12, "ftran {a} vs {b}");
        }
        // BTRAN parity: yᵀB⁻¹ vs eta chain then (identity) matvec.
        let explicit_b: Vec<f64> = (0..m)
            .map(|j| (0..m).map(|i| x[i] * binv[i * m + j]).sum())
            .collect();
        let mut pb = x.clone();
        file.btran_in_place(&mut pb);
        for (a, b) in explicit_b.iter().zip(&pb) {
            assert!((a - b).abs() < 1e-12, "btran {a} vs {b}");
        }
        file.clear();
        assert!(file.is_empty());
    }

    #[test]
    fn nan_poisoned_eta_propagates_through_zero_fast_path() {
        // A pivot column carrying a NaN builds a NaN-poisoned eta. The
        // regression: with x[p] == 0 the fast path used to skip the eta
        // entirely, so FTRAN returned a clean vector and the corruption
        // stayed masked instead of propagating for the driver's
        // reinversion policy to heal.
        let p = 1;
        let mut alpha = vec![0.5, 2.0, -1.0, 0.25];
        alpha[2] = f64::NAN;
        let mut file = EtaFile::<f64>::new();
        file.push_pivot(p, &alpha);
        assert!(!file.etas()[0].finite);
        let mut x = vec![1.0, 0.0, 3.0, -2.0]; // x[p] == 0: the fast path
        file.ftran_in_place(&mut x);
        assert!(
            x.iter().any(|v| v.is_nan()),
            "NaN-poisoned eta must poison the FTRAN result, got {x:?}"
        );
        // Finite etas keep the bitwise fast path: x[p] == 0 leaves the
        // other components untouched.
        let mut clean = EtaFile::<f64>::new();
        clean.push_pivot(p, &[0.5, 2.0, -1.0, 0.25]);
        assert!(clean.etas()[0].finite);
        let mut y = vec![1.0, 0.0, 3.0, -2.0];
        clean.ftran_in_place(&mut y);
        assert_eq!(&y[..1], &[1.0]);
        assert_eq!(&y[2..], &[3.0, -2.0]);
    }
}
