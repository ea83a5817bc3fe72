//! Regression trees with second-order (Newton) split finding — the base
//! learner of the gradient-boosted ensemble.
//!
//! Split quality follows the XGBoost objective: with gradient sum `G` and
//! hessian sum `H` per side and L2 leaf regularization `lambda`, a split's
//! gain is `0.5 * (G_L^2/(H_L+λ) + G_R^2/(H_R+λ) − G^2/(H+λ)) − γ` and the
//! optimal leaf weight is `−G/(H+λ)`.
//!
//! Two split searches share the gain arithmetic:
//!
//! * **exact greedy** ([`RegressionTree::fit_threaded`]) enumerates every
//!   boundary between sorted feature values — the paper's ~150-row
//!   modeling population always takes this path, preserving the seed
//!   behaviour bit for bit. Each candidate feature's rows are sorted once
//!   per tree (or once per boosted fit, see [`SortedColumns`]); every split
//!   then keeps those orders current with an `O(rows)` stable partition per
//!   feature, so no node ever sorts. A stable partition of a stably sorted
//!   sequence is the stable sort of the partitioned rows, so each node
//!   scans the same tie order a per-node sort would;
//! * **histogram** ([`RegressionTree::fit_binned`]) scans the ≤256
//!   pre-binned value buckets of a [`TrainingBins`](crate::flat::TrainingBins):
//!   an `O(rows)` accumulate + `O(bins)` scan per feature and node, with no
//!   per-feature order to maintain. The ensemble trainers switch to it only
//!   past a row-count guard (see `gbt::HIST_MIN_ROWS`), so small fits are
//!   untouched.

use crate::flat::TrainingBins;
use crate::matrix::DenseMatrix;

/// Structural hyperparameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum hessian sum per child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (λ).
    pub lambda: f64,
    /// Minimum gain to accept a split (γ).
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 4, min_child_weight: 1.0, lambda: 1.0, gamma: 0.0 }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Split { feature: u32, threshold: f64, left: u32, right: u32 },
    Leaf { value: f64 },
}

/// A trained regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// Total split gain attributed to each feature (importance).
    gains: Vec<f64>,
}

/// Column-major copy of a training matrix plus, per column, every row id
/// in ascending value order (a stable sort, so ties keep row-id order).
/// Built once per exact-greedy boosted fit and shared by every round that
/// trains on all rows in ascending order — the exact search's counterpart
/// of [`TrainingBins`].
pub(crate) struct SortedColumns {
    n_rows: usize,
    values: Vec<f64>,
    orders: Vec<u32>,
}

impl SortedColumns {
    pub(crate) fn build(x: &DenseMatrix) -> Self {
        let all_cols: Vec<usize> = (0..x.n_cols()).collect();
        let all_rows: Vec<usize> = (0..x.n_rows()).collect();
        let values = column_major(x, &all_cols);
        let columns: Vec<&[f64]> = values.chunks_exact(x.n_rows()).collect();
        let orders = sorted_orders(&columns, &all_rows);
        SortedColumns { n_rows: x.n_rows(), values, orders }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n_rows..(f + 1) * self.n_rows]
    }

    fn order(&self, f: usize) -> &[u32] {
        &self.orders[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Columns `features` of `x`, each `x.n_rows()` long, back to back.
fn column_major(x: &DenseMatrix, features: &[usize]) -> Vec<f64> {
    assert!(u32::try_from(x.n_rows()).is_ok(), "exact split search indexes rows as u32");
    let mut values = Vec::with_capacity(features.len() * x.n_rows());
    for &f in features {
        values.extend((0..x.n_rows()).map(|r| x.get(r, f)));
    }
    values
}

/// One segment per column: `rows` stably sorted by that column's values.
fn sorted_orders(columns: &[&[f64]], rows: &[usize]) -> Vec<u32> {
    let mut orders = Vec::with_capacity(columns.len() * rows.len());
    for col in columns {
        let start = orders.len();
        orders.extend(rows.iter().map(|&r| r as u32));
        orders[start..].sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
    }
    orders
}

/// How a builder finds a node's best split.
enum Search<'a> {
    /// Exact greedy over presorted candidate columns. `columns[j]` holds
    /// the values of candidate `features[j]` indexed by row id; segment
    /// `j` of `orders` (each `rows.len()` long) lists the tree's rows in
    /// ascending order of that column, and every node owns the same
    /// `[lo, hi)` range of each segment as of `rows`.
    Exact { columns: Vec<&'a [f64]>, orders: Vec<u32> },
    /// Histogram sweep over pre-binned columns.
    Histogram(&'a TrainingBins),
}

struct Builder<'a> {
    x: &'a DenseMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    features: &'a [usize],
    params: TreeParams,
    /// Worker cap for the per-feature split search (1 = sequential).
    threads: usize,
    search: Search<'a>,
    /// The tree's rows; each node owns a contiguous range, in the order
    /// the stable partitions left them.
    rows: Vec<usize>,
    /// Left-child membership by row id, set only while a split reorders
    /// the exact search's segments.
    in_left: Vec<bool>,
    /// Scratch for the stable partitions.
    row_buf: Vec<usize>,
    order_buf: Vec<u32>,
    nodes: Vec<Node>,
    gains: Vec<f64>,
}

/// Minimum row count, and minimum `rows × features` work, before the split
/// search fans out across the pool: below these, thread startup costs more
/// than the scan itself (the paper's ~150-row modeling population always
/// stays sequential).
const PAR_SPLIT_MIN_ROWS: usize = 1024;
const PAR_SPLIT_MIN_WORK: usize = 16_384;

impl RegressionTree {
    /// Fits a tree to the current gradients/hessians over the rows `rows`
    /// of `x`, considering only the columns in `features` (column
    /// subsampling is the caller's job). Sequential split search; see
    /// [`RegressionTree::fit_threaded`] for the pooled variant.
    pub fn fit(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        RegressionTree::fit_threaded(x, grad, hess, rows, features, params, 1)
    }

    /// As [`RegressionTree::fit`], with the per-feature split search fanned
    /// out over at most `threads` pool workers on nodes large enough to
    /// amortize the fan-out. The chosen split is bit-identical to the
    /// sequential search for every thread count: per-feature scans are
    /// independent and the winning split is reduced in feature order with
    /// the same strict-improvement tie-break.
    pub fn fit_threaded(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
        threads: usize,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        let values = column_major(x, features);
        let columns: Vec<&[f64]> = values.chunks_exact(x.n_rows()).collect();
        let orders = sorted_orders(&columns, rows);
        let search = Search::Exact { columns, orders };
        Builder::new(x, grad, hess, features, params, threads, search).fit(rows)
    }

    /// As [`RegressionTree::fit_threaded`] over every row of `x` in
    /// ascending order, taking the root's per-feature orders from `sorted`
    /// (built once per fit from the same `x`) instead of sorting them.
    pub(crate) fn fit_presorted(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        features: &[usize],
        params: TreeParams,
        threads: usize,
        sorted: &SortedColumns,
    ) -> Self {
        assert_eq!(sorted.n_rows, x.n_rows(), "sorted columns must cover the training matrix");
        let columns = features.iter().map(|&f| sorted.column(f)).collect();
        let orders = features.iter().flat_map(|&f| sorted.order(f)).copied().collect();
        let search = Search::Exact { columns, orders };
        let rows: Vec<usize> = (0..x.n_rows()).collect();
        Builder::new(x, grad, hess, features, params, threads, search).fit(&rows)
    }

    /// As [`RegressionTree::fit_threaded`], but finds splits by sweeping
    /// the per-feature histograms of `bins` instead of scanning sorted
    /// feature values: one `O(rows)` accumulation pass plus an `O(bins)`
    /// boundary scan per feature. Candidate thresholds are the
    /// bin cuts, so the fitted tree is a (deterministic) approximation of
    /// the exact-greedy one; predictions of the *same* fitted tree remain
    /// bit-identical across thread counts because per-bin accumulation
    /// visits rows in list order and the winning feature is reduced in
    /// feature order, exactly like the exact path.
    #[allow(clippy::too_many_arguments)] // mirrors fit_threaded + the bin table
    pub fn fit_binned(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
        threads: usize,
        bins: &TrainingBins,
    ) -> Self {
        assert_eq!(bins.n_rows(), x.n_rows(), "bins must cover the training matrix");
        let search = Search::Histogram(bins);
        Builder::new(x, grad, hess, features, params, threads, search).fit(rows)
    }

    /// Predicted value for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut n = 0u32;
        loop {
            match self.nodes[n as usize] {
                Node::Leaf { value } => return value,
                Node::Split { feature, threshold, left, right } => {
                    n = if row[feature as usize] <= threshold { left } else { right };
                }
            }
        }
    }

    /// Per-feature accumulated split gain.
    pub fn feature_gains(&self) -> &[f64] {
        &self.gains
    }

    /// Node count (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node pool, for compilation into the branchless kernel
    /// (`flat::FlatForest` re-encodes these into its SoA layout).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Depth of the tree (diagnostics; 0 = single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], n: u32) -> usize {
            match nodes[n as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, left).max(rec(nodes, right)),
            }
        }
        rec(&self.nodes, 0)
    }
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl<'a> Builder<'a> {
    fn new(
        x: &'a DenseMatrix,
        grad: &'a [f64],
        hess: &'a [f64],
        features: &'a [usize],
        params: TreeParams,
        threads: usize,
        search: Search<'a>,
    ) -> Self {
        assert_eq!(grad.len(), x.n_rows());
        assert_eq!(hess.len(), x.n_rows());
        Builder {
            x,
            grad,
            hess,
            features,
            params,
            threads: threads.max(1),
            search,
            rows: Vec::new(),
            in_left: Vec::new(),
            row_buf: Vec::new(),
            order_buf: Vec::new(),
            nodes: Vec::new(),
            gains: vec![0.0; x.n_cols()],
        }
    }

    fn fit(mut self, rows: &[usize]) -> RegressionTree {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        self.rows = rows.to_vec();
        if matches!(self.search, Search::Exact { .. }) {
            self.in_left = vec![false; self.x.n_rows()];
        }
        self.build(0, rows.len(), 0);
        RegressionTree { nodes: self.nodes, gains: self.gains }
    }

    /// Builds the subtree over `rows[lo..hi]`, returning its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let (g_sum, h_sum) = self.sums(&self.rows[lo..hi]);
        let leaf_value = -g_sum / (h_sum + self.params.lambda);

        if depth >= self.params.max_depth || hi - lo < 2 {
            return self.push(Node::Leaf { value: leaf_value });
        }
        let Some(best) = self.best_split(lo, hi, g_sum, h_sum) else {
            return self.push(Node::Leaf { value: leaf_value });
        };

        self.gains[best.feature] += best.gain;
        // Partition rows in place around the threshold.
        let x = self.x;
        let n_left = partition(&mut self.rows[lo..hi], &mut self.row_buf, |&r| {
            x.get(r, best.feature) <= best.threshold
        });
        debug_assert!(n_left > 0 && n_left < hi - lo, "split must separate rows");
        // Carry every feature's order into the children, unless both
        // children are leaves and never scan again.
        if let Search::Exact { orders, .. } = &mut self.search {
            if depth + 1 < self.params.max_depth {
                let left_rows = &self.rows[lo..lo + n_left];
                for &r in left_rows {
                    self.in_left[r] = true;
                }
                let in_left = &self.in_left;
                for segment in orders.chunks_exact_mut(self.rows.len()) {
                    let k = partition(&mut segment[lo..hi], &mut self.order_buf, |&r| {
                        in_left[r as usize]
                    });
                    debug_assert_eq!(k, n_left);
                }
                for &r in left_rows {
                    self.in_left[r] = false;
                }
            }
        }
        let slot = self.push(Node::Split {
            feature: best.feature as u32,
            threshold: best.threshold,
            left: 0,
            right: 0,
        });
        let mid = lo + n_left;
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        if let Node::Split { left: l, right: r, .. } = &mut self.nodes[slot as usize] {
            *l = left;
            *r = right;
        }
        slot
    }

    fn push(&mut self, n: Node) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn sums(&self, rows: &[usize]) -> (f64, f64) {
        let mut g = 0.0;
        let mut h = 0.0;
        for &r in rows {
            g += self.grad[r];
            h += self.hess[r];
        }
        (g, h)
    }

    fn best_split(&self, lo: usize, hi: usize, g_sum: f64, h_sum: f64) -> Option<BestSplit> {
        let rows = &self.rows[lo..hi];
        let fan_out = self.threads > 1
            && rows.len() >= PAR_SPLIT_MIN_ROWS
            && rows.len() * self.features.len() >= PAR_SPLIT_MIN_WORK;

        let scan = |j: usize, f: usize| match &self.search {
            Search::Histogram(b) => self.scan_feature_hist(b, f, rows, g_sum, h_sum),
            Search::Exact { columns, orders } => {
                let segment = &orders[j * self.rows.len()..][lo..hi];
                self.scan_feature(f, columns[j], segment, g_sum, h_sum)
            }
        };
        let per_feature: Vec<Option<BestSplit>> = if fan_out {
            domd_runtime::par_map(self.threads, self.features, |j, &f| scan(j, f))
        } else {
            self.features.iter().enumerate().map(|(j, &f)| scan(j, f)).collect()
        };

        // Reduce in feature order with the same strict-improvement rule as
        // the flat sequential scan (earliest feature wins ties), so the
        // pooled and sequential searches pick the identical split.
        let mut best: Option<BestSplit> = None;
        for cand in per_feature.into_iter().flatten() {
            if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
                best = Some(cand);
            }
        }
        best
    }

    /// Exact greedy scan of feature `f`, returning its best admissible
    /// split. `column` holds the feature's values by row id and `order`
    /// is the node's rows in ascending value order.
    fn scan_feature(
        &self,
        f: usize,
        column: &[f64],
        order: &[u32],
        g_sum: f64,
        h_sum: f64,
    ) -> Option<BestSplit> {
        let lambda = self.params.lambda;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<BestSplit> = None;

        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..order.len() - 1 {
            let r = order[w] as usize;
            gl += self.grad[r];
            hl += self.hess[r];
            let Some(threshold) = split_threshold(column[r], column[order[w + 1] as usize])
            else {
                continue;
            };
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            // Child support: hessian mass (XGBoost semantics) *or*
            // sample count (LightGBM's min_child_samples). Robust
            // losses have near-zero hessians on large residuals; a
            // hessian-only constraint would forbid every split that
            // isolates the outlier group, structurally preventing
            // pseudo-Huber/Huber from ever fitting a heavy tail.
            let nl = (w + 1) as f64;
            let nr = (order.len() - w - 1) as f64;
            let mcw = self.params.min_child_weight;
            if (hl < mcw && nl < mcw) || (hr < mcw && nr < mcw) {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                - self.params.gamma;
            if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(BestSplit { feature: f, threshold, gain });
            }
        }
        best
    }

    /// Histogram scan of a single feature: one pass over `rows`
    /// accumulating per-bin gradient/hessian/count, then a prefix sweep
    /// over bin boundaries. A candidate threshold is the cut value itself
    /// (not a midpoint): `code(x) <= b ⟺ x <= cut(f, b)`, so the in-place
    /// partition in `build` separates exactly the rows whose mass the
    /// gain was computed from.
    fn scan_feature_hist(
        &self,
        bins: &TrainingBins,
        f: usize,
        rows: &[usize],
        g_sum: f64,
        h_sum: f64,
    ) -> Option<BestSplit> {
        let n_cuts = bins.n_cuts(f);
        if n_cuts == 0 {
            return None; // constant feature: nothing to separate
        }
        let codes = bins.codes(f);
        let nb = n_cuts + 1;
        let mut g = vec![0.0; nb];
        let mut h = vec![0.0; nb];
        let mut cnt = vec![0usize; nb];
        for &r in rows {
            let b = codes[r] as usize;
            g[b] += self.grad[r];
            h[b] += self.hess[r];
            cnt[b] += 1;
        }

        let lambda = self.params.lambda;
        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<BestSplit> = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        let mut nl = 0usize;
        for b in 0..n_cuts {
            gl += g[b];
            hl += h[b];
            nl += cnt[b];
            if nl == 0 {
                continue; // no rows at or below this cut yet
            }
            let nr = rows.len() - nl;
            if nr == 0 {
                break; // every remaining boundary leaves the right side empty
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            // Same OR'd support rule as the exact scan above: hessian mass
            // or sample count must clear min_child_weight on each side.
            let mcw = self.params.min_child_weight;
            if (hl < mcw && (nl as f64) < mcw) || (hr < mcw && (nr as f64) < mcw) {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                - self.params.gamma;
            if gain > 0.0 && best.as_ref().is_none_or(|cur| gain > cur.gain) {
                best = Some(BestSplit { feature: f, threshold: bins.cut(f, b), gain });
            }
        }
        best
    }
}

/// The threshold of the exact-search boundary between adjacent sorted
/// values `v <= v_next`, or `None` when no `x <= t` rule separates them.
///
/// The midpoint generalizes better than the left value itself, but it
/// must lie in `[v, v_next)` for `x <= t` to send `v` left and `v_next`
/// right. It does not when the sum overflows to `±inf`, when `v_next` is
/// `+inf`, or when `v` and `v_next` are adjacent floats and the midpoint
/// rounds up to `v_next` (0.3 next to 0.30000000000000004); those
/// boundaries split at `t = v`. Equal values cannot be separated, and
/// neither can a NaN next to anything: its midpoint is NaN.
fn split_threshold(v: f64, v_next: f64) -> Option<f64> {
    let mid = 0.5 * (v + v_next);
    if v == v_next || mid.is_nan() {
        None
    } else if v <= mid && mid < v_next {
        Some(mid)
    } else {
        Some(v)
    }
}

/// Stable in-place partition; returns the number of elements satisfying
/// `pred` (moved to the front). `buf` is reusable scratch.
fn partition<T: Copy, F: Fn(&T) -> bool>(xs: &mut [T], buf: &mut Vec<T>, pred: F) -> usize {
    buf.clear();
    let mut k = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs[k] = xs[i];
            k += 1;
        } else {
            buf.push(xs[i]);
        }
    }
    xs[k..].copy_from_slice(buf);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits a tree to plain squared loss over targets `y` (grad = pred−y
    /// with pred = 0, hess = 1), the simplest regression reduction.
    fn fit_plain(x: &DenseMatrix, y: &[f64], params: TreeParams) -> RegressionTree {
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..y.len()).collect();
        let feats: Vec<usize> = (0..x.n_cols()).collect();
        RegressionTree::fit(x, &grad, &hess, &rows, &feats, params)
    }

    #[test]
    fn partition_stable() {
        let mut v = [5, 2, 8, 1, 9, 4];
        let k = partition(&mut v, &mut Vec::new(), |&x| x < 5);
        assert_eq!(k, 3);
        assert_eq!(&v[..3], &[2, 1, 4]);
        assert_eq!(&v[3..], &[5, 8, 9]);
    }

    #[test]
    fn single_leaf_predicts_regularized_mean() {
        let x = DenseMatrix::from_rows(vec![0.0, 1.0, 2.0, 3.0], 4, 1);
        let y = [10.0, 10.0, 10.0, 10.0];
        let t = fit_plain(&x, &y, TreeParams { max_depth: 0, lambda: 0.0, ..Default::default() });
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_row(&[0.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_shrinks_leaves() {
        let x = DenseMatrix::from_rows(vec![0.0, 1.0], 2, 1);
        let y = [10.0, 10.0];
        let t = fit_plain(&x, &y, TreeParams { max_depth: 0, lambda: 2.0, ..Default::default() });
        // -G/(H+λ) = 20/(2+2) = 5.
        assert!((t.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_step_function() {
        let x = DenseMatrix::from_rows((0..20).map(|i| i as f64).collect(), 20, 1);
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { -5.0 } else { 5.0 }).collect();
        let t = fit_plain(&x, &y, TreeParams { max_depth: 2, lambda: 0.0, min_child_weight: 1.0, gamma: 0.0 });
        assert!(t.depth() >= 1);
        assert!((t.predict_row(&[3.0]) + 5.0).abs() < 0.5);
        assert!((t.predict_row(&[15.0]) - 5.0).abs() < 0.5);
        // All gain sits on the single feature.
        assert!(t.feature_gains()[0] > 0.0);
    }

    #[test]
    fn splits_on_informative_feature_only() {
        // Feature 0 is noise, feature 1 defines the target.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i * 7 % 11) as f64, if i % 2 == 0 { 0.0 } else { 1.0 }])
            .collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let y: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { -3.0 } else { 3.0 }).collect();
        let t = fit_plain(&x, &y, TreeParams { max_depth: 1, ..Default::default() });
        assert_eq!(t.depth(), 1);
        assert!(t.feature_gains()[1] > 0.0);
        assert_eq!(t.feature_gains()[0], 0.0);
        assert!((t.predict_row(&[5.0, 0.0]) + 3.0).abs() < 0.5);
        assert!((t.predict_row(&[5.0, 1.0]) - 3.0).abs() < 0.5);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let x = DenseMatrix::from_rows((0..10).map(|i| i as f64).collect(), 10, 1);
        // Tiny signal: gain exists but is small.
        let y: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 0.1 }).collect();
        let strict = fit_plain(&x, &y, TreeParams { gamma: 10.0, ..Default::default() });
        assert_eq!(strict.n_nodes(), 1, "gamma must prune the weak split");
        let loose = fit_plain(&x, &y, TreeParams { gamma: 0.0, lambda: 0.0, ..Default::default() });
        assert!(loose.n_nodes() > 1);
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let x = DenseMatrix::from_rows((0..6).map(|i| i as f64).collect(), 6, 1);
        let y = [0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        let t = fit_plain(
            &x,
            &y,
            TreeParams { min_child_weight: 2.0, max_depth: 3, lambda: 0.0, gamma: 0.0 },
        );
        // The lone outlier cannot be isolated: every leaf holds >= 2 rows.
        // Its best cut is 4-2 or similar, so the prediction at the outlier
        // is pulled toward its neighbour.
        assert!(t.predict_row(&[5.0]) < 100.0);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = DenseMatrix::from_rows(vec![3.0; 8], 8, 1);
        let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let t = fit_plain(&x, &y, TreeParams::default());
        assert_eq!(t.n_nodes(), 1, "no separable values => leaf");
    }

    /// The sort-per-node exact-greedy builder that the presorted search
    /// replaced, kept (sequential) as the differential oracle.
    struct ReferenceBuilder<'a> {
        x: &'a DenseMatrix,
        grad: &'a [f64],
        hess: &'a [f64],
        features: &'a [usize],
        params: TreeParams,
        nodes: Vec<Node>,
        gains: Vec<f64>,
    }

    impl ReferenceBuilder<'_> {
        fn build(&mut self, rows: &mut [usize], depth: usize) -> u32 {
            let (g_sum, h_sum) = self.sums(rows);
            let leaf_value = -g_sum / (h_sum + self.params.lambda);

            if depth >= self.params.max_depth || rows.len() < 2 {
                return self.push(Node::Leaf { value: leaf_value });
            }
            let Some(best) = self.best_split(rows, g_sum, h_sum) else {
                return self.push(Node::Leaf { value: leaf_value });
            };

            self.gains[best.feature] += best.gain;
            let mid = partition(rows, &mut Vec::new(), |&r| {
                self.x.get(r, best.feature) <= best.threshold
            });
            let slot = self.push(Node::Split {
                feature: best.feature as u32,
                threshold: best.threshold,
                left: 0,
                right: 0,
            });
            let (l_rows, r_rows) = rows.split_at_mut(mid);
            let left = self.build(l_rows, depth + 1);
            let right = self.build(r_rows, depth + 1);
            if let Node::Split { left: l, right: r, .. } = &mut self.nodes[slot as usize] {
                *l = left;
                *r = right;
            }
            slot
        }

        fn push(&mut self, n: Node) -> u32 {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }

        fn sums(&self, rows: &[usize]) -> (f64, f64) {
            let mut g = 0.0;
            let mut h = 0.0;
            for &r in rows {
                g += self.grad[r];
                h += self.hess[r];
            }
            (g, h)
        }

        fn best_split(&self, rows: &[usize], g_sum: f64, h_sum: f64) -> Option<BestSplit> {
            let mut order: Vec<usize> = Vec::with_capacity(rows.len());
            let mut best: Option<BestSplit> = None;
            for &f in self.features {
                if let Some(cand) = self.scan_feature(f, rows, g_sum, h_sum, &mut order) {
                    if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
                        best = Some(cand);
                    }
                }
            }
            best
        }

        fn scan_feature(
            &self,
            f: usize,
            rows: &[usize],
            g_sum: f64,
            h_sum: f64,
            order: &mut Vec<usize>,
        ) -> Option<BestSplit> {
            let lambda = self.params.lambda;
            let parent_score = g_sum * g_sum / (h_sum + lambda);
            let mut best: Option<BestSplit> = None;

            order.clear();
            order.extend_from_slice(rows);
            order.sort_by(|&a, &b| self.x.get(a, f).total_cmp(&self.x.get(b, f)));

            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..order.len() - 1 {
                let r = order[w];
                gl += self.grad[r];
                hl += self.hess[r];
                // The one deviation from the replaced code: the boundary
                // rule is the production scan's own `split_threshold`, so
                // no boundary that moves no row is a candidate.
                let Some(threshold) = split_threshold(self.x.get(r, f), self.x.get(order[w + 1], f))
                else {
                    continue;
                };
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                let nl = (w + 1) as f64;
                let nr = (order.len() - w - 1) as f64;
                let mcw = self.params.min_child_weight;
                if (hl < mcw && nl < mcw) || (hr < mcw && nr < mcw) {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit { feature: f, threshold, gain });
                }
            }
            best
        }
    }

    fn reference_fit(
        x: &DenseMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> RegressionTree {
        let mut b = ReferenceBuilder {
            x,
            grad,
            hess,
            features,
            params,
            nodes: Vec::new(),
            gains: vec![0.0; x.n_cols()],
        };
        b.build(&mut rows.to_vec(), 0);
        RegressionTree { nodes: b.nodes, gains: b.gains }
    }

    fn assert_bit_identical(got: &RegressionTree, want: &RegressionTree, ctx: &str) {
        assert_eq!(got.nodes.len(), want.nodes.len(), "node count, {ctx}");
        for (i, (a, b)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            let same = match (*a, *b) {
                (Node::Leaf { value: va }, Node::Leaf { value: vb }) => va.to_bits() == vb.to_bits(),
                (
                    Node::Split { feature: fa, threshold: ta, left: la, right: ra },
                    Node::Split { feature: fb, threshold: tb, left: lb, right: rb },
                ) => fa == fb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
                _ => false,
            };
            assert!(same, "node {i} differs ({a:?} vs {b:?}), {ctx}");
        }
        let bits = |t: &RegressionTree| t.gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "feature gains, {ctx}");
    }

    /// A seeded matrix built to stress tie handling: small integer value
    /// sets, ±0.0, NaN, a constant column and a continuous one, cycled
    /// over `n_cols`; plus gradients and (partly tiny) hessians.
    fn tie_heavy_problem(n: usize, n_cols: usize, seed: u64) -> (DenseMatrix, Vec<f64>, Vec<f64>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * n_cols);
        for _ in 0..n {
            for c in 0..n_cols {
                data.push(match c % 6 {
                    0 => rng.gen_range(0..3) as f64,
                    1 => [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                    2 => {
                        if rng.gen_bool(0.2) {
                            f64::NAN
                        } else {
                            rng.gen_range(0..5) as f64
                        }
                    }
                    3 => 7.0,
                    4 => rng.gen_range(-1.0..1.0),
                    _ => rng.gen_range(0..12) as f64 * 0.5,
                });
            }
        }
        let grad = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let hess = (0..n).map(|_| if rng.gen_bool(0.3) { 1e-3 } else { rng.gen_range(0.5..2.0) }).collect();
        (DenseMatrix::from_rows(data, n, n_cols), grad, hess)
    }

    /// The presorted builder (per-tree orders, and the per-fit
    /// [`SortedColumns`] where the tree trains on every row in ascending
    /// order) must reproduce the sort-per-node oracle to the bit.
    fn check_against_reference(n: usize, n_cols: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let (x, grad, hess) = tie_heavy_problem(n, n_cols, seed);
        let sorted = SortedColumns::build(&x);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let all_rows: Vec<usize> = (0..n).collect();
        let mut shuffled = all_rows.clone();
        shuffled.shuffle(&mut rng);
        shuffled.truncate(n * 7 / 10);
        let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let all_cols: Vec<usize> = (0..n_cols).collect();
        let mut col_subset = all_cols.clone();
        col_subset.shuffle(&mut rng);
        col_subset.truncate(n_cols * 2 / 3);
        col_subset.sort_unstable();

        for (row_mode, rows) in
            [("all rows", &all_rows), ("subsample", &shuffled), ("bootstrap", &bootstrap)]
        {
            for (col_mode, cols) in [("all cols", &all_cols), ("col subset", &col_subset)] {
                for max_depth in 0..=6 {
                    for min_child_weight in [0.0, 1.0, 4.0, 25.0] {
                        let params = TreeParams { max_depth, min_child_weight, lambda: 1.0, gamma: 0.0 };
                        let want = reference_fit(&x, &grad, &hess, rows, cols, params);
                        for threads in [1, 2] {
                            let ctx = format!(
                                "n {n}, seed {seed}, {row_mode}, {col_mode}, depth {max_depth}, \
                                 mcw {min_child_weight}, threads {threads}"
                            );
                            let got =
                                RegressionTree::fit_threaded(&x, &grad, &hess, rows, cols, params, threads);
                            assert_bit_identical(&got, &want, &ctx);
                            if row_mode == "all rows" {
                                let got = RegressionTree::fit_presorted(
                                    &x, &grad, &hess, cols, params, threads, &sorted,
                                );
                                assert_bit_identical(&got, &want, &format!("presorted, {ctx}"));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn presorted_search_matches_sort_per_node_oracle_small() {
        for seed in 0..4 {
            check_against_reference(150, 12, seed);
        }
    }

    #[test]
    fn presorted_search_matches_sort_per_node_oracle_fan_out() {
        // ≥ PAR_SPLIT_MIN_ROWS rows and ≥ PAR_SPLIT_MIN_WORK cells, so the
        // threads = 2 fits take the pooled per-feature scan.
        check_against_reference(1100, 18, 9);
    }

    #[test]
    fn nan_boundaries_are_not_split_candidates() {
        // The NaN rows carry the strongest signal, but a midpoint with NaN
        // cannot isolate them under `x <= t`, so the split must fall
        // between finite values.
        let x = DenseMatrix::from_rows(vec![1.0, 2.0, f64::NAN, f64::NAN, 3.0, 1.0], 6, 1);
        let grad = [-1.0, -1.0, 5.0, 5.0, -1.0, -1.0];
        let hess = [1.0; 6];
        let params = TreeParams { max_depth: 1, min_child_weight: 0.0, ..Default::default() };
        let t = RegressionTree::fit(&x, &grad, &hess, &[0, 1, 2, 3, 4, 5], &[0], params);
        match t.nodes[0] {
            Node::Split { threshold, .. } => assert!(threshold.is_finite(), "{threshold}"),
            Node::Leaf { .. } => panic!("finite values are separable"),
        }
    }

    #[test]
    fn boundaries_whose_midpoint_leaves_the_gap_split_at_the_left_value() {
        // Each column's two values hold opposite gradients. A threshold of
        // `v_next` or `+inf` would keep every row left; the split must
        // separate them at `t = v`.
        let adjacent = 0.30000000000000004;
        assert_eq!(0.5 * (0.3 + adjacent), adjacent, "the midpoint rounds up");
        for (v, v_next) in [(0.3, adjacent), (1.0, f64::INFINITY), (1e308, 1.7e308)] {
            let x = DenseMatrix::from_rows(vec![v, v, v_next, v_next], 4, 1);
            let grad = [-1.0, -1.0, 1.0, 1.0];
            let params = TreeParams { max_depth: 1, min_child_weight: 0.0, ..Default::default() };
            let t = RegressionTree::fit(&x, &grad, &[1.0; 4], &[0, 1, 2, 3], &[0], params);
            match t.nodes[0] {
                Node::Split { threshold, .. } => assert_eq!(threshold, v, "{v} | {v_next}"),
                Node::Leaf { .. } => panic!("{v} | {v_next} is separable"),
            }
            assert!(t.predict_row(&[v]) > 0.0 && t.predict_row(&[v_next]) < 0.0, "{v} | {v_next}");
        }
    }

    #[test]
    fn respects_feature_subset() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (29 - i) as f64]).collect();
        let x = DenseMatrix::from_vec_of_rows(&rows);
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; 30];
        let all: Vec<usize> = (0..30).collect();
        let t = RegressionTree::fit(&x, &grad, &hess, &all, &[1], TreeParams::default());
        assert_eq!(t.feature_gains()[0], 0.0, "feature 0 was not offered");
        assert!(t.feature_gains()[1] > 0.0);
    }
}

// --- persistence -----------------------------------------------------------

#[allow(clippy::items_after_test_module)] // persistence lives with its type
impl RegressionTree {
    /// Serializes the tree (see `crate::persist` for the format contract).
    pub fn write_text(&self, out: &mut String) {
        use crate::persist::{fmt_f64, put_line};
        put_line(out, "tree", &[self.nodes.len().to_string(), self.gains.len().to_string()]);
        for n in &self.nodes {
            match *n {
                Node::Leaf { value } => put_line(out, "L", &[fmt_f64(value)]),
                Node::Split { feature, threshold, left, right } => put_line(
                    out,
                    "S",
                    &[
                        feature.to_string(),
                        fmt_f64(threshold),
                        left.to_string(),
                        right.to_string(),
                    ],
                ),
            }
        }
        put_line(out, "gains", &self.gains.iter().map(|g| fmt_f64(*g)).collect::<Vec<_>>());
    }

    /// Parses a tree previously written by [`RegressionTree::write_text`].
    pub fn read_text(r: &mut crate::persist::Reader<'_>) -> Result<Self, crate::persist::PersistError> {
        let head = r.tagged("tree")?;
        let head = r.exactly(&head, 2)?;
        let n_nodes: usize = r.parse(head[0], "node count")?;
        let n_gains: usize = r.parse(head[1], "gain count")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let l = r.line()?;
            let toks: Vec<&str> = l.split_whitespace().collect();
            match toks.first() {
                Some(&"L") => {
                    let t = r.exactly(&toks[1..], 1)?;
                    nodes.push(Node::Leaf { value: r.parse(t[0], "leaf value")? });
                }
                Some(&"S") => {
                    let t = r.exactly(&toks[1..], 4)?;
                    let feature: u32 = r.parse(t[0], "feature")?;
                    let threshold: f64 = r.parse(t[1], "threshold")?;
                    let left: u32 = r.parse(t[2], "left")?;
                    let right: u32 = r.parse(t[3], "right")?;
                    if left as usize >= n_nodes || right as usize >= n_nodes {
                        return Err(r.err("child index out of range"));
                    }
                    nodes.push(Node::Split { feature, threshold, left, right });
                }
                _ => return Err(r.err("expected node line (L or S)")),
            }
        }
        if nodes.is_empty() {
            return Err(r.err("tree must have at least one node"));
        }
        let toks = r.tagged("gains")?;
        let toks = r.exactly(&toks, n_gains)?;
        let gains: Vec<f64> = r.parse_all(toks, "gain")?;
        Ok(RegressionTree { nodes, gains })
    }
}
