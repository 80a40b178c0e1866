//! Sparse basis factorization: product-form eta file with a sparse
//! Gauss–Jordan base.
//!
//! The revised simplex needs two linear-algebra primitives per iteration:
//! `ftran` (`w = B⁻¹ a_j`, the entering column's image) and `btran`
//! (`y' = z' B⁻¹`, duals and pivot rows). The previous engine kept a dense
//! `m × m` basis inverse — `O(m²)` per pivot update, `O(m³)` per
//! refactorization, and every `ftran`/`btran` touched all `m²` entries.
//! This module replaces it with the classic *product form of the inverse*:
//!
//! ```text
//! B⁻¹ = E_k · … · E_1        (applied to a permuted identity)
//! ```
//!
//! where each `E_i` is an *eta matrix* — identity except in one column —
//! stored sparsely in one contiguous arena. The base etas come from a
//! sparse Gauss–Jordan pass over the basis columns (partial pivoting,
//! deterministic ties); each simplex pivot appends one more eta in `O(nnz)`
//! instead of rewriting a dense inverse. `ftran` skips every eta whose
//! pivot entry is zero in the running vector — on the slack-heavy bases
//! XPlain's small LPs produce, most are.
//!
//! Bookkeeping: position `k` of the basis is pinned to pivot row
//! `row_of_pos[k]` at factorization time and *keeps* that row across
//! updates (the entering column inherits the leaving position's row). A
//! row-space vector `v = apply(etas, x)` therefore carries the basic value
//! of position `k` at component `row_of_pos[k]`.

/// One eta matrix: identity except column `pivot_row`.
///
/// Applying it to `v` sets `v[pivot_row] *= pivot_inv` and then subtracts
/// `entry · v[pivot_row]` from every off-pivot row in `[start, end)` of the
/// shared arena.
#[derive(Debug, Clone, Copy)]
struct Eta {
    /// Arena range of the off-pivot `(row, value)` entries.
    start: u32,
    end: u32,
    pivot_row: u32,
    /// `1 / pivot`, stored inverted so application multiplies.
    pivot_inv: f64,
}

/// A product-form factorization of the current basis matrix.
///
/// Rebuilt in place ([`Factorization::rebuild`]): the eta arena, the
/// permutation and the build scratch keep their capacity across
/// refactorizations, so a long-lived solver session stops allocating
/// once its buffers have grown to the largest basis it has seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factorization {
    m: usize,
    /// Pivot row assigned to each basis position (a permutation of `0..m`).
    row_of_pos: Vec<usize>,
    /// Off-pivot eta entries, all etas back to back (cache-friendly: one
    /// linear scan per `ftran`/`btran`, no per-eta allocation).
    nz: Vec<(u32, f64)>,
    etas: Vec<Eta>,
    /// Number of *update* etas appended since the base build — the
    /// refactorization cadence counter (the old `pivots_since_refactor`).
    updates: usize,
    /// Build scratch: rows already pivoted on.
    pivoted: Vec<bool>,
    /// Build scratch: the dense working column.
    w: Vec<f64>,
}

/// Smallest pivot magnitude accepted while building the base.
const BUILD_TOL: f64 = 1e-9;

impl Factorization {
    /// Factorize the basis whose columns are `cols[k]` (sparse
    /// `(row, value)` lists). Returns `None` if the matrix is singular.
    #[cfg(test)]
    pub fn build(m: usize, cols: &[&[(usize, f64)]]) -> Option<Factorization> {
        let mut f = Factorization::default();
        f.rebuild(m, |k| cols[k]).then_some(f)
    }

    /// Refactorize in place: the basis has `m` positions and position
    /// `k`'s column is `col(k)` (a sparse `(row, value)` list). Returns
    /// `false` if the matrix is singular, leaving the factorization
    /// unusable until the next successful rebuild.
    pub fn rebuild<'c>(&mut self, m: usize, col: impl Fn(usize) -> &'c [(usize, f64)]) -> bool {
        self.m = m;
        self.updates = 0;
        self.row_of_pos.clear();
        self.nz.clear();
        self.nz.reserve(4 * m);
        self.etas.clear();
        self.etas.reserve(2 * m);
        let mut pivoted = std::mem::take(&mut self.pivoted);
        let mut w = std::mem::take(&mut self.w);
        pivoted.clear();
        pivoted.resize(m, false);
        w.clear();
        w.resize(m, 0.0);
        let mut ok = true;
        for k in 0..m {
            // w = (E_{k-1} … E_1) a_{B(k)}
            for x in w.iter_mut() {
                *x = 0.0;
            }
            for &(r, v) in col(k) {
                w[r] += v;
            }
            self.apply(&mut w);
            // Partial pivoting over not-yet-pivoted rows; ties break to the
            // smallest row index (deterministic).
            let mut r_best = usize::MAX;
            let mut p_best = 0.0f64;
            for (r, &wr) in w.iter().enumerate() {
                if !pivoted[r] && wr.abs() > p_best {
                    p_best = wr.abs();
                    r_best = r;
                }
            }
            if p_best < BUILD_TOL {
                ok = false;
                break;
            }
            self.push_eta(&w, r_best);
            pivoted[r_best] = true;
            self.row_of_pos.push(r_best);
        }
        self.pivoted = pivoted;
        self.w = w;
        ok
    }

    /// Store one eta from the dense working column `w` with pivot `row`.
    fn push_eta(&mut self, w: &[f64], row: usize) {
        let start = self.nz.len() as u32;
        for (r, &v) in w.iter().enumerate() {
            if r != row && v != 0.0 {
                self.nz.push((r as u32, v));
            }
        }
        self.etas.push(Eta {
            start,
            end: self.nz.len() as u32,
            pivot_row: row as u32,
            pivot_inv: 1.0 / w[row],
        });
    }

    /// Append the update eta for a pivot: position `leave_pos` leaves, and
    /// `w_pos` is the entering column's image in *position space*
    /// (`w_pos[k]` = component of `B⁻¹ a_q` at basis position `k`).
    pub fn push_update(&mut self, w_pos: &[f64], leave_pos: usize) {
        let start = self.nz.len() as u32;
        for (k, &v) in w_pos.iter().enumerate() {
            if k != leave_pos && v != 0.0 {
                self.nz.push((self.row_of_pos[k] as u32, v));
            }
        }
        self.etas.push(Eta {
            start,
            end: self.nz.len() as u32,
            pivot_row: self.row_of_pos[leave_pos] as u32,
            pivot_inv: 1.0 / w_pos[leave_pos],
        });
        self.updates += 1;
    }

    /// Become an exact copy of `other`'s factorization (the build scratch
    /// is not copied), reusing this one's buffers: allocation-free once
    /// they have grown to `other`'s size.
    pub fn copy_from(&mut self, other: &Factorization) {
        self.m = other.m;
        self.row_of_pos.clone_from(&other.row_of_pos);
        self.nz.clone_from(&other.nz);
        self.etas.clone_from(&other.etas);
        self.updates = other.updates;
    }

    /// Update etas appended since the base build.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Basis size this factorization was built for.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// The pivot row of basis position `k`.
    #[inline]
    pub fn row_of_pos(&self, k: usize) -> usize {
        self.row_of_pos[k]
    }

    /// `v ← B⁻¹ v` in row space (apply every eta, in order). Etas whose
    /// pivot component is zero are skipped wholesale — the dominant case on
    /// sparse right-hand sides like an entering column.
    pub fn apply(&self, v: &mut [f64]) {
        for eta in &self.etas {
            let r = eta.pivot_row as usize;
            let vr = v[r];
            if vr == 0.0 {
                continue;
            }
            let t = vr * eta.pivot_inv;
            v[r] = t;
            for &(row, val) in &self.nz[eta.start as usize..eta.end as usize] {
                v[row as usize] -= val * t;
            }
        }
    }

    /// `v ← (B⁻¹)' v` in row space (transposed etas, reverse order). Used
    /// for duals (`y = (B⁻¹)' c_B`-scatter) and pivot rows
    /// (`ρ = (B⁻¹)' e_r`).
    pub fn apply_transposed(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let r = eta.pivot_row as usize;
            let mut dot = 0.0;
            for &(row, val) in &self.nz[eta.start as usize..eta.end as usize] {
                dot += val * v[row as usize];
            }
            let vr = v[r];
            if vr == 0.0 && dot == 0.0 {
                continue;
            }
            v[r] = (vr - dot) * eta.pivot_inv;
        }
    }

    /// Total stored eta entries (diagnostic; drives nothing today — the
    /// refactorization trigger is the update count, matching the previous
    /// engine's cadence).
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.nz.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference dense solve of `B x = b` for cross-checking.
    fn dense_solve(m: usize, cols: &[&[(usize, f64)]], b: &[f64]) -> Vec<f64> {
        let mut a = vec![0.0; m * (m + 1)];
        for (k, col) in cols.iter().enumerate() {
            for &(r, v) in *col {
                a[r * (m + 1) + k] += v;
            }
        }
        for (r, &bv) in b.iter().enumerate() {
            a[r * (m + 1) + m] = bv;
        }
        for c in 0..m {
            let piv = (c..m)
                .max_by(|&x, &y| {
                    a[x * (m + 1) + c]
                        .abs()
                        .partial_cmp(&a[y * (m + 1) + c].abs())
                        .unwrap()
                })
                .unwrap();
            if piv != c {
                for k in 0..=m {
                    a.swap(c * (m + 1) + k, piv * (m + 1) + k);
                }
            }
            let inv = 1.0 / a[c * (m + 1) + c];
            for k in 0..=m {
                a[c * (m + 1) + k] *= inv;
            }
            for r in 0..m {
                if r != c {
                    let f = a[r * (m + 1) + c];
                    if f != 0.0 {
                        for k in 0..=m {
                            a[r * (m + 1) + k] -= f * a[c * (m + 1) + k];
                        }
                    }
                }
            }
        }
        (0..m).map(|r| a[r * (m + 1) + m]).collect()
    }

    fn check_roundtrip(m: usize, cols: Vec<Vec<(usize, f64)>>, b: Vec<f64>) {
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let f = Factorization::build(m, &refs).expect("nonsingular");
        let mut v = b.clone();
        f.apply(&mut v);
        // x[k] lives at row row_of_pos[k].
        let x: Vec<f64> = (0..m).map(|k| v[f.row_of_pos(k)]).collect();
        let expect = dense_solve(m, &refs, &b);
        for k in 0..m {
            assert!((x[k] - expect[k]).abs() < 1e-9, "{x:?} vs {expect:?}");
        }
    }

    #[test]
    fn identity_basis() {
        let cols: Vec<Vec<(usize, f64)>> = (0..4).map(|k| vec![(k, 1.0)]).collect();
        check_roundtrip(4, cols, vec![3.0, -1.0, 0.5, 2.0]);
    }

    #[test]
    fn permuted_scaled_diagonal() {
        let cols = vec![vec![(2, 2.0)], vec![(0, -1.0)], vec![(1, 4.0)]];
        check_roundtrip(3, cols, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_small_matrix() {
        let cols = vec![
            vec![(0, 2.0), (1, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 3.0)],
            vec![(0, 1.0), (2, 4.0)],
        ];
        check_roundtrip(3, cols, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn singular_detected() {
        let cols = [vec![(0, 1.0), (1, 1.0)], vec![(0, 2.0), (1, 2.0)]];
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        assert!(Factorization::build(2, &refs).is_none());
    }

    #[test]
    fn transposed_solves_bt() {
        // apply_transposed(v) must equal (B⁻¹)' v: check via B' y = z.
        let cols = [
            vec![(0, 3.0), (2, 1.0)],
            vec![(1, 2.0), (0, 1.0)],
            vec![(2, 5.0), (1, -1.0)],
        ];
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let f = Factorization::build(3, &refs).unwrap();
        // z in position space scattered to rows, as the dual computation does.
        let c_b = [1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        for k in 0..3 {
            y[f.row_of_pos(k)] = c_b[k];
        }
        f.apply_transposed(&mut y);
        // Check y' a_{B(k)} == c_b[k].
        for (k, col) in refs.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, v)| y[r] * v).sum();
            assert!((dot - c_b[k]).abs() < 1e-9, "pos {k}: {dot} vs {}", c_b[k]);
        }
    }

    #[test]
    fn update_replaces_column() {
        // Start from a 3x3 basis, pivot a new column into position 1, and
        // verify ftran against a dense solve of the updated basis.
        let cols = [
            vec![(0, 1.0)],
            vec![(1, 2.0), (0, 1.0)],
            vec![(2, 1.0), (1, 1.0)],
        ];
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut f = Factorization::build(3, &refs).unwrap();
        let entering: Vec<(usize, f64)> = vec![(0, 1.0), (1, 1.0)];
        // Position-space image of the entering column.
        let mut v = vec![0.0; 3];
        for &(r, val) in &entering {
            v[r] += val;
        }
        f.apply(&mut v);
        let w_pos: Vec<f64> = (0..3).map(|k| v[f.row_of_pos(k)]).collect();
        f.push_update(&w_pos, 1);
        assert_eq!(f.updates(), 1);
        assert!(f.nnz() > 0);

        let new_cols = [cols[0].clone(), entering, cols[2].clone()];
        let new_refs: Vec<&[(usize, f64)]> = new_cols.iter().map(|c| c.as_slice()).collect();
        let b = vec![4.0, 5.0, 6.0];
        let mut u = b.clone();
        f.apply(&mut u);
        let x: Vec<f64> = (0..3).map(|k| u[f.row_of_pos(k)]).collect();
        let expect = dense_solve(3, &new_refs, &b);
        for k in 0..3 {
            assert!((x[k] - expect[k]).abs() < 1e-9, "{x:?} vs {expect:?}");
        }
    }
}
