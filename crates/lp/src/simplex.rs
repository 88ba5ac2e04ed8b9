//! A dense two-phase primal simplex solver over exact rationals.
//!
//! Solves `min c·x  s.t.  A x ≥ b,  x ≥ 0` — the shape of the fractional
//! edge cover LP. Bland's pivoting rule guarantees termination (no cycling);
//! arithmetic is exact, so there are no tolerance parameters.

use crate::rational::{Overflow, Rational};

/// Errors from the simplex solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Exact arithmetic overflowed `i128` (practically unreachable for edge
    /// cover LPs; surfaced instead of silently losing precision).
    Overflow,
    /// Malformed input (dimension mismatch).
    Shape(String),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible linear program"),
            LpError::Unbounded => write!(f, "unbounded linear program"),
            LpError::Overflow => write!(f, "rational arithmetic overflow"),
            LpError::Shape(s) => write!(f, "malformed linear program: {s}"),
        }
    }
}

impl std::error::Error for LpError {}

impl From<Overflow> for LpError {
    fn from(_: Overflow) -> Self {
        LpError::Overflow
    }
}

/// A linear program `min c·x  s.t.  A x ≥ b,  x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<Rational>,
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The optimal objective value.
    pub objective: Rational,
    /// The value of each variable.
    pub values: Vec<Rational>,
}

impl LinearProgram {
    /// Creates a program with `num_vars` variables minimizing `objective·x`.
    pub fn minimize(objective: Vec<Rational>) -> LinearProgram {
        LinearProgram {
            num_vars: objective.len(),
            objective,
            rows: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Adds the constraint `row · x ≥ rhs`.
    pub fn add_ge_constraint(&mut self, row: Vec<Rational>, rhs: Rational) -> Result<(), LpError> {
        if row.len() != self.num_vars {
            return Err(LpError::Shape(format!(
                "constraint has {} coefficients, expected {}",
                row.len(),
                self.num_vars
            )));
        }
        self.rows.push(row);
        self.rhs.push(rhs);
        Ok(())
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Solves the program exactly.
    pub fn solve(&self) -> Result<Solution, LpError> {
        Tableau::new(self)?.solve()
    }
}

/// Dense simplex tableau.
///
/// Column layout: `n` structural vars, `m` surplus vars (one per `≥` row),
/// `m` artificial vars, then the RHS column. Rows: `m` constraints.
struct Tableau {
    n: usize,
    m: usize,
    /// `m` rows × (n + 2m + 1) columns.
    a: Vec<Vec<Rational>>,
    /// Basis variable (column index) of each row.
    basis: Vec<usize>,
    objective: Vec<Rational>,
}

impl Tableau {
    #[allow(clippy::needless_range_loop)] // dense tableau initialization
    fn new(lp: &LinearProgram) -> Result<Tableau, LpError> {
        let n = lp.num_vars;
        let m = lp.rows.len();
        let width = n + 2 * m + 1;
        let mut a = vec![vec![Rational::ZERO; width]; m];
        let mut basis = vec![0usize; m];
        for i in 0..m {
            // Normalize to rhs ≥ 0: row·x ≥ rhs with rhs < 0 is implied by
            // x ≥ 0 only if row has no negative entries... we keep it exact:
            // multiply by -1 turning it into ≤, i.e. -row·x + s = -rhs.
            let negate = lp.rhs[i].is_negative();
            for j in 0..n {
                a[i][j] = if negate {
                    lp.rows[i][j].neg()
                } else {
                    lp.rows[i][j]
                };
            }
            // Surplus (for ≥, subtract) or slack (for flipped ≤, add).
            a[i][n + i] = if negate {
                Rational::ONE
            } else {
                Rational::ONE.neg()
            };
            // Artificial variable.
            a[i][n + m + i] = Rational::ONE;
            a[i][width - 1] = if negate { lp.rhs[i].neg() } else { lp.rhs[i] };
            basis[i] = n + m + i;
        }
        Ok(Tableau {
            n,
            m,
            a,
            basis,
            objective: lp.objective.clone(),
        })
    }

    fn width(&self) -> usize {
        self.n + 2 * self.m + 1
    }

    /// Reduced cost row for a given objective over columns `0..limit`,
    /// computed as `c_j - c_B · B⁻¹ A_j` (prices derived from the tableau).
    fn reduced_costs(&self, cost: &[Rational], limit: usize) -> Result<Vec<Rational>, LpError> {
        let mut red = vec![Rational::ZERO; limit];
        for (j, r) in red.iter_mut().enumerate() {
            let mut acc = cost.get(j).copied().unwrap_or(Rational::ZERO);
            for i in 0..self.m {
                let cb = cost.get(self.basis[i]).copied().unwrap_or(Rational::ZERO);
                if !cb.is_zero() && !self.a[i][j].is_zero() {
                    acc = acc.checked_sub(&cb.checked_mul(&self.a[i][j])?)?;
                }
            }
            *r = acc;
        }
        Ok(red)
    }

    #[allow(clippy::needless_range_loop)] // dense tableau indexing
    fn pivot(&mut self, row: usize, col: usize) -> Result<(), LpError> {
        let w = self.width();
        let p = self.a[row][col];
        debug_assert!(!p.is_zero());
        let inv = p.recip();
        for j in 0..w {
            self.a[row][j] = self.a[row][j].checked_mul(&inv)?;
        }
        for i in 0..self.m {
            if i == row || self.a[i][col].is_zero() {
                continue;
            }
            let f = self.a[i][col];
            for j in 0..w {
                if !self.a[row][j].is_zero() {
                    let delta = f.checked_mul(&self.a[row][j])?;
                    self.a[i][j] = self.a[i][j].checked_sub(&delta)?;
                }
            }
        }
        self.basis[row] = col;
        Ok(())
    }

    /// Runs simplex iterations minimizing `cost` over columns `0..limit`
    /// (Bland's rule). Returns `Err(Unbounded)` if unbounded.
    fn optimize(&mut self, cost: &[Rational], limit: usize) -> Result<(), LpError> {
        loop {
            let red = self.reduced_costs(cost, limit)?;
            // Bland: entering variable = smallest index with negative
            // reduced cost.
            let Some(col) = (0..limit).find(|&j| red[j].is_negative()) else {
                return Ok(());
            };
            // Ratio test; Bland tie-break on smallest basis index.
            let w = self.width();
            let mut best: Option<(usize, Rational)> = None;
            for i in 0..self.m {
                if self.a[i][col].is_positive() {
                    let ratio = self.a[i][w - 1].checked_div(&self.a[i][col])?;
                    let better = match &best {
                        None => true,
                        Some((bi, br)) => {
                            ratio < *br || (ratio == *br && self.basis[i] < self.basis[*bi])
                        }
                    };
                    if better {
                        best = Some((i, ratio));
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col)?;
        }
    }

    #[allow(clippy::needless_range_loop)] // dense tableau indexing
    fn solve(mut self) -> Result<Solution, LpError> {
        let (n, m) = (self.n, self.m);
        let w = self.width();

        if m > 0 {
            // Phase 1: minimize the sum of artificials over all columns.
            let mut phase1_cost = vec![Rational::ZERO; n + 2 * m];
            for c in phase1_cost.iter_mut().skip(n + m) {
                *c = Rational::ONE;
            }
            self.optimize(&phase1_cost, n + m)?; // artificials may not re-enter
            let infeas: Rational = {
                let mut acc = Rational::ZERO;
                for i in 0..m {
                    if self.basis[i] >= n + m {
                        acc = acc.checked_add(&self.a[i][w - 1])?;
                    }
                }
                acc
            };
            if infeas.is_positive() {
                return Err(LpError::Infeasible);
            }
            // Drive any remaining zero-valued artificials out of the basis.
            for i in 0..m {
                if self.basis[i] >= n + m {
                    if let Some(col) = (0..n + m).find(|&j| !self.a[i][j].is_zero()) {
                        self.pivot(i, col)?;
                    }
                    // Otherwise the row is all-zero (redundant constraint);
                    // the artificial stays basic at value 0, harmless.
                }
            }
        }

        // Phase 2: minimize the true objective over structural + surplus.
        let mut cost = vec![Rational::ZERO; n + 2 * m];
        cost[..n].copy_from_slice(&self.objective);
        self.optimize(&cost, n + m)?;

        let mut values = vec![Rational::ZERO; n];
        for i in 0..m {
            if self.basis[i] < n {
                values[self.basis[i]] = self.a[i][w - 1];
            }
        }
        let mut objective = Rational::ZERO;
        for j in 0..n {
            if !values[j].is_zero() {
                objective = objective.checked_add(&self.objective[j].checked_mul(&values[j])?)?;
            }
        }
        Ok(Solution { objective, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn trivial_single_variable() {
        // min x s.t. x >= 3
        let mut lp = LinearProgram::minimize(vec![r(1)]);
        lp.add_ge_constraint(vec![r(1)], r(3)).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, r(3));
        assert_eq!(s.values, vec![r(3)]);
    }

    #[test]
    fn two_variable_cover() {
        // min x + y s.t. x + y >= 1, x >= 0, y >= 0 → 1
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_ge_constraint(vec![r(1), r(1)], r(1)).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, r(1));
    }

    #[test]
    fn triangle_cover_is_three_halves() {
        // Variables = three edges of the triangle; constraint per vertex.
        // Each vertex is covered by exactly two edges.
        let mut lp = LinearProgram::minimize(vec![r(1), r(1), r(1)]);
        lp.add_ge_constraint(vec![r(1), r(0), r(1)], r(1)).unwrap(); // vertex a: edges R,T
        lp.add_ge_constraint(vec![r(1), r(1), r(0)], r(1)).unwrap(); // vertex b: edges R,S
        lp.add_ge_constraint(vec![r(0), r(1), r(1)], r(1)).unwrap(); // vertex c: edges S,T
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, Rational::new(3, 2));
        for v in &s.values {
            assert_eq!(*v, Rational::new(1, 2));
        }
    }

    #[test]
    fn infeasible_detected() {
        // min x s.t. -x ≥ 1 with x ≥ 0 is infeasible... -x >= 1 → x <= -1.
        let mut lp = LinearProgram::minimize(vec![r(1)]);
        lp.add_ge_constraint(vec![r(-1)], r(1)).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x ≥ 0 (no upper bound) → unbounded.
        let mut lp = LinearProgram::minimize(vec![r(-1)]);
        lp.add_ge_constraint(vec![r(1)], r(0)).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_handled_by_flip() {
        // min x s.t. x ≥ -5 → optimum 0.
        let mut lp = LinearProgram::minimize(vec![r(1)]);
        lp.add_ge_constraint(vec![r(1)], r(-5)).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, r(0));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        assert!(lp.add_ge_constraint(vec![r(1)], r(1)).is_err());
    }

    #[test]
    fn redundant_constraints_ok() {
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_ge_constraint(vec![r(1), r(1)], r(1)).unwrap();
        lp.add_ge_constraint(vec![r(1), r(1)], r(1)).unwrap();
        lp.add_ge_constraint(vec![r(2), r(2)], r(2)).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, r(1));
    }

    #[test]
    fn fractional_optimum_exact() {
        // min x+y s.t. 2x+y >= 2, x+2y >= 2 → x=y=2/3, objective 4/3.
        let mut lp = LinearProgram::minimize(vec![r(1), r(1)]);
        lp.add_ge_constraint(vec![r(2), r(1)], r(2)).unwrap();
        lp.add_ge_constraint(vec![r(1), r(2)], r(2)).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, Rational::new(4, 3));
    }

    #[test]
    fn zero_constraints_means_zero() {
        let lp = LinearProgram::minimize(vec![r(1), r(1)]);
        let s = lp.solve().unwrap();
        assert_eq!(s.objective, r(0));
    }
}
