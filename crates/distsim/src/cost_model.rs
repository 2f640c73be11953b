//! The running-time model `M(I, I_m, O_m) = β₀ + β₁·I + β₂·I_m + β₃·O_m`.
//!
//! Following Li et al. [24] (and Section 2 of the band-join paper), join time is modeled
//! as a piecewise-linear function of the total shuffled input `I`, the input of the most
//! loaded worker `I_m`, and the output of the most loaded worker `O_m`. The coefficients
//! are obtained by linear regression over a calibration benchmark run offline once per
//! cluster; on the paper's cluster `β₂/β₃ ≈ 4`.

/// One calibration observation: features `(I, I_m, O_m)` plus the measured join time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Total input including duplicates.
    pub total_input: f64,
    /// Input of the most loaded worker.
    pub max_input: f64,
    /// Output of the most loaded worker.
    pub max_output: f64,
    /// Measured (or simulated) join time in seconds.
    pub join_seconds: f64,
}

/// The fitted linear running-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-job overhead (seconds).
    pub beta0: f64,
    /// Cost per shuffled input tuple.
    pub beta1: f64,
    /// Cost per input tuple on the most loaded worker.
    pub beta2: f64,
    /// Cost per output tuple on the most loaded worker.
    pub beta3: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Unit-free defaults with the paper's β₂/β₃ ≈ 4 ratio; suitable whenever only
        // relative comparisons matter.
        CostModel {
            beta0: 0.0,
            beta1: 1.0,
            beta2: 4.0,
            beta3: 1.0,
        }
    }
}

impl CostModel {
    /// Predicted join time for the given `(I, I_m, O_m)`.
    #[inline]
    pub fn predict(&self, total_input: f64, max_input: f64, max_output: f64) -> f64 {
        self.beta0 + self.beta1 * total_input + self.beta2 * max_input + self.beta3 * max_output
    }

    /// Fit the model to calibration data by ordinary least squares (normal equations,
    /// solved by Gaussian elimination with partial pivoting). Negative coefficients are
    /// clamped to zero — a negative per-tuple cost is physically meaningless and only
    /// arises from collinear calibration data.
    ///
    /// Returns `None` if fewer than four points are supplied or the system is singular.
    pub fn fit(points: &[CalibrationPoint]) -> Option<CostModel> {
        if points.len() < 4 {
            return None;
        }
        // Design matrix columns: [1, I, Im, Om].
        let mut xtx = [[0.0f64; 4]; 4];
        let mut xty = [0.0f64; 4];
        for p in points {
            let row = [1.0, p.total_input, p.max_input, p.max_output];
            for i in 0..4 {
                xty[i] += row[i] * p.join_seconds;
                for j in 0..4 {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        let beta = solve4(xtx, xty)?;
        Some(CostModel {
            beta0: beta[0].max(0.0),
            beta1: beta[1].max(0.0),
            beta2: beta[2].max(0.0),
            beta3: beta[3].max(0.0),
        })
    }
}

/// Solve a 4×4 linear system by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // index arithmetic across two rows of `a`
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // Pivot.
        let pivot = (col..4).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in col + 1..4 {
            let factor = a[row][col] / a[col][col];
            for k in col..4 {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut sum = b[row];
        for k in row + 1..4 {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Mean of `|predict − join_seconds| / join_seconds` over `points`.
    fn mean_relative_error(model: &CostModel, points: &[CalibrationPoint]) -> f64 {
        let error = |p: &CalibrationPoint| {
            let predicted = model.predict(p.total_input, p.max_input, p.max_output);
            (predicted - p.join_seconds).abs() / p.join_seconds
        };
        points.iter().map(error).sum::<f64>() / points.len() as f64
    }

    #[test]
    fn default_has_paper_ratio() {
        let m = CostModel::default();
        assert!((m.beta2 / m.beta3 - 4.0).abs() < 1e-12);
        assert_eq!(m.predict(10.0, 5.0, 2.0), 10.0 + 20.0 + 2.0);
    }

    #[test]
    fn fit_recovers_exact_linear_model() {
        let truth = CostModel {
            beta0: 30.0,
            beta1: 0.5,
            beta2: 2.0,
            beta3: 0.25,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let points: Vec<CalibrationPoint> = (0..50)
            .map(|_| {
                let i = rng.gen_range(1e5..1e6);
                let im = rng.gen_range(1e3..1e5);
                let om = rng.gen_range(0.0..1e5);
                CalibrationPoint {
                    total_input: i,
                    max_input: im,
                    max_output: om,
                    join_seconds: truth.predict(i, im, om),
                }
            })
            .collect();
        let fitted = CostModel::fit(&points).expect("fit must succeed");
        assert!((fitted.beta0 - truth.beta0).abs() < 1e-6 * truth.beta0.max(1.0));
        assert!((fitted.beta1 - truth.beta1).abs() < 1e-8);
        assert!((fitted.beta2 - truth.beta2).abs() < 1e-8);
        assert!((fitted.beta3 - truth.beta3).abs() < 1e-8);
        assert!(mean_relative_error(&fitted, &points) < 1e-9);
    }

    #[test]
    fn fit_with_noise_stays_close() {
        let truth = CostModel {
            beta0: 10.0,
            beta1: 1.0,
            beta2: 4.0,
            beta3: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let points: Vec<CalibrationPoint> = (0..200)
            .map(|_| {
                let i = rng.gen_range(1e4..1e6);
                let im = i / rng.gen_range(5.0..50.0);
                let om = rng.gen_range(0.0..2e5);
                let noise = 1.0 + rng.gen_range(-0.05..0.05);
                CalibrationPoint {
                    total_input: i,
                    max_input: im,
                    max_output: om,
                    join_seconds: truth.predict(i, im, om) * noise,
                }
            })
            .collect();
        let fitted = CostModel::fit(&points).unwrap();
        assert!(mean_relative_error(&fitted, &points) < 0.06);
        assert!((fitted.beta2 / fitted.beta3 - 4.0).abs() < 1.0);
    }

    #[test]
    fn fit_requires_enough_points() {
        assert!(CostModel::fit(&[]).is_none());
        let p = CalibrationPoint {
            total_input: 1.0,
            max_input: 1.0,
            max_output: 1.0,
            join_seconds: 1.0,
        };
        assert!(CostModel::fit(&[p, p, p]).is_none());
    }

    #[test]
    fn singular_design_matrix_is_rejected() {
        // All points identical → singular normal equations.
        let p = CalibrationPoint {
            total_input: 10.0,
            max_input: 5.0,
            max_output: 1.0,
            join_seconds: 3.0,
        };
        assert!(CostModel::fit(&[p; 8]).is_none());
    }

    #[test]
    fn solver_handles_permuted_pivot() {
        // A system that requires pivoting (zero on the diagonal).
        let a = [
            [0.0, 2.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 3.0],
            [0.0, 0.0, 4.0, 0.0],
        ];
        let b = [2.0, 1.0, 9.0, 8.0];
        let x = solve4(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
        assert!((x[3] - 3.0).abs() < 1e-12);
    }
}
