//! Dense continuous-time Markov chains with an exact transient solver:
//! the expected occupancy over a horizon is read off one matrix
//! exponential of a block matrix (Van Loan's construction), computed by
//! scaling and squaring a Taylor polynomial.

/// A CTMC over `n` states given by its generator matrix `Q` (row-major):
/// `q[i][j]` is the transition rate `i -> j` for `i != j`, and each
/// diagonal entry is minus the row's off-diagonal sum.
#[derive(Clone, Debug)]
pub struct Ctmc {
    n: usize,
    q: Vec<f64>,
}

impl Ctmc {
    /// Builds a chain from off-diagonal rates; diagonals are derived.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is not `n × n` or contains negative
    /// off-diagonal entries.
    pub fn from_rates(n: usize, rates: &[f64]) -> Self {
        assert_eq!(rates.len(), n * n, "rate matrix must be n*n");
        let mut q = rates.to_vec();
        for i in 0..n {
            let mut sum = 0.0;
            for j in 0..n {
                if i != j {
                    assert!(q[i * n + j] >= 0.0, "negative rate");
                    sum += q[i * n + j];
                }
            }
            q[i * n + i] = -sum;
        }
        Ctmc { n, q }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rate `i -> j`.
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.q[i * self.n + j]
    }

    /// Expected fraction of `[0, horizon]` spent in each state, starting
    /// from distribution `pi0`: `π₀ · ∫₀ᵀ e^{Qt} dt / T`.
    ///
    /// The integral is the top-right block of `exp(T·[[Q, I], [0, 0]])`
    /// (Van Loan, "Computing integrals involving the matrix exponential",
    /// IEEE TAC 1978). Its cost grows with the logarithm of the largest
    /// rate times the horizon, not with their product.
    pub fn occupancy(&self, pi0: &[f64], horizon: f64) -> Vec<f64> {
        assert_eq!(pi0.len(), self.n);
        assert!(horizon > 0.0);
        let (n, dim) = (self.n, 2 * self.n);
        let mut a = vec![0.0; dim * dim];
        for i in 0..n {
            for j in 0..n {
                a[i * dim + j] = horizon * self.q[i * n + j];
            }
            a[i * dim + n + i] = horizon;
        }
        let e = expm(&a, n);
        (0..n).map(|j| (0..n).map(|i| pi0[i] * e[i * dim + n + j]).sum::<f64>() / horizon).collect()
    }
}

/// `exp(a)` for `a = T·[[Q, I], [0, 0]]`, row-major `2n × 2n`, by scaling
/// and squaring: halve `a` until `‖a‖∞ ≤ ½`, sum its degree-18 Taylor
/// polynomial (the first omitted term is below `½¹⁹/19! ≈ 1.6·10⁻²³`),
/// and square the sum back up.
fn expm(a: &[f64], n: usize) -> Vec<f64> {
    let dim = 2 * n;
    let norm =
        a.chunks(dim).map(|row| row.iter().map(|x| x.abs()).sum::<f64>()).fold(0.0, f64::max);
    let (mut scale, mut squarings) = (1.0, 0);
    while norm * scale > 0.5 {
        scale /= 2.0;
        squarings += 1;
    }
    let a: Vec<f64> = a.iter().map(|x| x * scale).collect();
    let identity: Vec<f64> = (0..dim * dim).map(|k| f64::from(k % (dim + 1) == 0)).collect();
    // Horner: I + a(I + a/2(I + … (I + a/18))).
    let mut e = identity.clone();
    for k in (1..=18).rev() {
        e = matmul(&a, &e, dim);
        for (x, id) in e.iter_mut().zip(&identity) {
            *x = *x / f64::from(k) + id;
        }
    }
    for _ in 0..squarings {
        e = matmul(&e, &e, dim);
        // The top-left block is e^{Qt}, whose rows sum to exactly 1
        // because Q's rows sum to 0. A stiff chain squares some 30 times,
        // and rounding would move each row's sum by ~2^squarings·ε; set
        // the diagonal again from the off-diagonal entries.
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| e[i * dim + j]).sum();
            e[i * dim + i] = 1.0 - off;
        }
    }
    e
}

/// The product of two row-major `dim × dim` matrices.
fn matmul(x: &[f64], y: &[f64], dim: usize) -> Vec<f64> {
    let mut z = vec![0.0; dim * dim];
    for (zrow, xrow) in z.chunks_mut(dim).zip(x.chunks(dim)) {
        for (xik, yrow) in xrow.iter().zip(y.chunks(dim)) {
            for (zij, ykj) in zrow.iter_mut().zip(yrow) {
                *zij += xik * ykj;
            }
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state up/down chain with known availability.
    fn updown(fail: f64, repair: f64) -> Ctmc {
        Ctmc::from_rates(2, &[0.0, fail, repair, 0.0])
    }

    #[test]
    fn diagonal_is_negative_row_sum() {
        let c = updown(0.5, 2.0);
        assert!((c.rate(0, 0) + 0.5).abs() < 1e-12);
        assert!((c.rate(1, 1) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn long_horizon_occupancy_approaches_steady_state() {
        let c = updown(0.5, 2.0);
        let occ = c.occupancy(&[1.0, 0.0], 1000.0);
        assert!((occ[0] - 0.8).abs() < 0.01, "{occ:?}");
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_horizon_occupancy_stays_near_initial_state() {
        let c = updown(0.001, 0.001);
        let occ = c.occupancy(&[1.0, 0.0], 1.0);
        assert!(occ[0] > 0.999, "{occ:?}");
    }

    #[test]
    fn occupancy_sums_to_one() {
        let c = Ctmc::from_rates(
            3,
            &[
                0.0, 0.3, 0.1, //
                2.0, 0.0, 0.0, //
                0.5, 0.0, 0.0,
            ],
        );
        for t in [0.1, 1.0, 10.0, 500.0] {
            let occ = c.occupancy(&[1.0, 0.0, 0.0], t);
            let sum: f64 = occ.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "t={t}: {occ:?}");
        }
    }

    #[test]
    fn transient_matches_analytic_two_state() {
        // For an up/down chain starting up, expected up-occupancy over
        // [0,T] is a/(a+b) + b/(a+b)^2/T * (1 - exp(-(a+b)T)) with
        // a=repair, b=fail. The second case is HAFT's stiffest: repair
        // in 2.5 µs over an hour.
        for (fail, repair, t) in [(0.7, 1.3, 3.0), (0.67, 4e5, 3600.0)] {
            let c = updown(fail, repair);
            let s = fail + repair;
            let expected = repair / s + fail / (s * s * t) * (1.0 - (-s * t).exp());
            let occ = c.occupancy(&[1.0, 0.0], t);
            assert!((occ[0] - expected).abs() < 1e-12, "{} vs {}", occ[0], expected);
            assert!((occ[1] - (1.0 - expected)).abs() < 1e-12, "{occ:?}");
        }
    }

    #[test]
    #[should_panic(expected = "rate matrix must be n*n")]
    fn wrong_size_panics() {
        Ctmc::from_rates(2, &[0.0, 1.0]);
    }
}
