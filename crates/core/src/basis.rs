//! The eta file: the pivots since the last refactorization, kept as a
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

use linalg::Scalar;

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
