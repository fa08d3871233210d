//! MINC maximum-likelihood inference of per-edge pass rates
//! (Cáceres, Duffield, Horowitz, Towsley; adapted to striped unicast).
//!
//! For each logical node *k*, let γ_k be the probability that at least one
//! leaf in *k*'s subtree acknowledges a stripe, and let A_k be the
//! cumulative pass probability from the root to *k*. Under independent
//! per-edge Bernoulli loss, the MLE satisfies, at every branching node,
//!
//! ```text
//! 1 − γ_k / A_k = Π_{j ∈ children(k)} (1 − γ_j / A_k)
//! ```
//!
//! which is solved by bisection. Leaves take Â_leaf = γ̂_leaf directly, the
//! root has A = 1 by definition, and per-edge rates follow as
//! α_k = A_k / A_parent(k).
//!
//! Loss on a shared segment below the root with no branching cannot be
//! separated from its continuation; the logical-tree collapse already
//! merges such segments into single edges, so every estimated edge is
//! identifiable (up to the conventions documented on
//! [`infer_pass_rates`]).
//!
//! # Kernel layout (DESIGN.md §16)
//!
//! The bottom-up γ̂ pass is bit-packed SoA: per-leaf stripe outcomes are
//! transposed once into `u64` bitmasks (one bit per stripe, 64 stripes per
//! block), the tree shape is flattened once per shape into a post-order
//! node list with a CSR child table ([`InferScratch`] caches it across
//! calls), and the per-node "any leaf in subtree acked" indicator becomes
//! a word-wide OR over child rows followed by a popcount. OR is exactly
//! the "any" fold, so the integer ack counts — and γ̂ and everything
//! downstream — equal the per-stripe scalar recurrence bit for bit; the
//! test module keeps that recurrence as the oracle. One packed body
//! serves both estimators, monomorphised over the record's cell type:
//! `bool` (complete records, no unknown plane) and `Option<bool>`
//! (partial records). [`infer_pass_rates_batch`] /
//! [`infer_pass_rates_tolerant_batch`] amortize the shape flattening and
//! buffer reuse across all records of a verdict window.

use std::fmt;

use crate::error::TomographyError;
use crate::probe::{PartialProbeRecord, ProbeRecord};
use crate::tree::LogicalTree;

/// Estimated pass rates for every logical edge of a tree.
#[derive(Clone, Debug, PartialEq)]
pub struct PassRates {
    /// Cumulative root→node pass probability, per node.
    cumulative: Vec<f64>,
    /// Per-edge pass rate (`edge` = child node − 1).
    alpha: Vec<f64>,
}

impl PassRates {
    /// The estimated pass rate of logical edge `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_pass_rate(&self, edge: usize) -> f64 {
        self.alpha[edge]
    }

    /// Cumulative root→node pass probability.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn cumulative(&self, node: usize) -> f64 {
        self.cumulative[node]
    }
}

/// Errors from inference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InferError {
    /// The probe record's leaf count does not match the tree.
    LeafMismatch {
        /// Leaves in the tree.
        tree: usize,
        /// Leaves in the record.
        record: usize,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::LeafMismatch { tree, record } => write!(
                f,
                "probe record has {record} leaves but the tree has {tree}"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// Reusable working memory for the MINC estimator.
///
/// Inference runs once per (host, window) in the simulator and thousands of
/// times per experiment sweep. A scratch value owns the estimator's
/// buffers *and* the flattened tree shape, so repeated calls stop hitting
/// both the allocator and the pointer-chasing tree walk:
///
/// * **Shape cache.** The post-order node list, a CSR child table in
///   post-position space, and the per-position leaf assignment are
///   computed once per tree *shape* and revalidated by an exact O(nodes)
///   structural comparison on every call — reusing one scratch across
///   different trees is always correct, merely fastest when consecutive
///   calls share a shape (as the per-host DST loop and the experiment
///   sweeps do).
/// * **Bit planes.** Per-node stripe indicators live in flat `u64`
///   blocks (64 stripes each), resized but never reallocated once warm.
///   The per-leaf rows are the record's own planes, read in place.
///
/// Using a scratch value never changes results: the `_batch` entry points
/// are bit-identical, record by record, to [`infer_pass_rates`], which
/// runs the same kernel on a fresh scratch.
#[derive(Default)]
pub struct InferScratch {
    /// Encoded shape of the cached tree (empty = nothing cached).
    shape_sig: Vec<u32>,
    /// Scratch for the candidate signature of the incoming tree.
    sig_tmp: Vec<u32>,
    /// Post-order traversal of the cached tree (node ids).
    order: Vec<usize>,
    /// Node id at each post position (`order` as u32).
    post: Vec<u32>,
    /// Post position of each node id.
    pos_of: Vec<u32>,
    /// CSR offsets into `kids`, one slot per post position (+1).
    kids_off: Vec<u32>,
    /// Children as post positions (always < the parent's position).
    kids: Vec<u32>,
    /// Per post position: leaf index + 1, or 0 when not a leaf.
    leaf_of_pos: Vec<u32>,
    /// Per-node subtree-ack bitmask rows (post-position-major).
    node_ack: Vec<u64>,
    /// Per-node unknown bitmask rows (partial records only).
    node_unk: Vec<u64>,
    /// Per-node informative-stripe counts (γ̂ denominators).
    informative: Vec<u64>,
    /// Per-node γ̂ estimates.
    gamma: Vec<f64>,
    /// Per-leaf direct-stream ack rates.
    leaf_rates: Vec<f64>,
    /// DFS stack for the traversals.
    stack: Vec<usize>,
    /// Effective children γ's for one bisection solve.
    child_gammas: Vec<f64>,
}

impl InferScratch {
    /// Flattens `tree` into the SoA shape cache unless the cached shape
    /// already matches it exactly (structural comparison, not identity).
    fn ensure_shape(&mut self, tree: &LogicalTree) {
        encode_shape(tree, &mut self.sig_tmp);
        if !self.shape_sig.is_empty() && self.sig_tmp == self.shape_sig {
            return;
        }
        std::mem::swap(&mut self.shape_sig, &mut self.sig_tmp);

        post_order_into(tree, &mut self.order, &mut self.stack);
        let n_nodes = tree.num_nodes();
        self.pos_of.clear();
        self.pos_of.resize(n_nodes, 0);
        for (i, &node) in self.order.iter().enumerate() {
            self.pos_of[node] = i as u32;
        }
        self.post.clear();
        self.post.extend(self.order.iter().map(|&n| n as u32));
        self.kids_off.clear();
        self.kids.clear();
        self.leaf_of_pos.clear();
        self.kids_off.push(0);
        for &node in &self.order {
            for &c in tree.children(node) {
                self.kids.push(self.pos_of[c]);
            }
            self.kids_off.push(self.kids.len() as u32);
            self.leaf_of_pos
                .push(tree.leaf_at(node).map(|l| l as u32 + 1).unwrap_or(0));
        }
    }
}

impl std::fmt::Debug for InferScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferScratch")
            .field("capacity_nodes", &self.gamma.capacity())
            .finish()
    }
}

/// Exact structural encoding of a tree shape: node count, leaf count,
/// then per node its child list and leaf assignment. Two trees encode
/// equally iff every accessor the estimator consults agrees.
fn encode_shape(tree: &LogicalTree, out: &mut Vec<u32>) {
    out.clear();
    out.push(tree.num_nodes() as u32);
    out.push(tree.num_leaves() as u32);
    for node in 0..tree.num_nodes() {
        let kids = tree.children(node);
        out.push(kids.len() as u32);
        out.extend(kids.iter().map(|&c| c as u32));
        out.push(tree.leaf_at(node).map(|l| l as u32 + 1).unwrap_or(0));
    }
}

/// Runs the MINC estimator over a tree and its probe record.
///
/// Conventions for degenerate cases:
///
/// * A subtree that never acknowledged anything (γ̂ = 0) gets cumulative
///   rate 0; edges *below* a dead segment are reported with pass rate 1
///   (no evidence of additional loss — loss cannot be localised below a
///   dead shared segment).
/// * If the bisection bracket degenerates because of sampling noise
///   (γ̂_k ≈ combined children), the cumulative rate clamps to 1.
///
/// # Errors
///
/// Returns [`InferError::LeafMismatch`] if the record does not match the
/// tree.
pub fn infer_pass_rates(
    tree: &LogicalTree,
    record: &ProbeRecord,
) -> Result<PassRates, InferError> {
    let _span = concilium_obs::span("tomo.infer");
    let mut scratch = InferScratch::default();
    scratch.ensure_shape(tree);
    scratch.strict(tree, record)
}

/// Runs the MINC estimator over every record of a verdict window in one
/// call, amortizing the tree flattening and buffer reuse across stripesets
/// (the DST inner loop and the `fig4`/`fig5` experiments call this).
///
/// Per-record results are bit-identical to calling [`infer_pass_rates`]
/// on each record in order — including per-record errors, which do not
/// disturb the other entries.
pub fn infer_pass_rates_batch(
    tree: &LogicalTree,
    records: &[ProbeRecord],
    scratch: &mut InferScratch,
) -> Vec<Result<PassRates, InferError>> {
    let _span = concilium_obs::span("tomo.infer");
    scratch.ensure_shape(tree);
    records.iter().map(|record| scratch.strict(tree, record)).collect()
}

/// Runs the MINC estimator over *partial* probe records, one call per
/// verdict window, discounting indeterminate feedback instead of
/// misreading it as loss.
///
/// A stripe is *informative* for a logical node only when the feedback
/// of **every** leaf in the node's subtree is known; any missing cell
/// makes the stripe indeterminate there and it is excluded from that
/// node's estimate entirely. γ̂_k is then the acked fraction of the
/// informative stripes.
///
/// Excluding whole stripes (rather than, say, treating "no *visible*
/// ack" as loss, or discounting only stripes with no known ack) is what
/// keeps the estimate unbiased: censoring is independent of probe fate,
/// so the informative subset is a uniform sample of all stripes. Any
/// per-cell mixing rule conditions on the outcomes themselves —
/// stripes that arrived are more likely to have had an ack censored —
/// and skews γ̂ upward. The price is data: a subtree spanning `m`
/// leaves keeps `(1 − c)^m` of its stripes under per-cell censoring
/// rate `c`. On a fully known record this reduces exactly to
/// [`infer_pass_rates`].
///
/// # Errors
///
/// Per record, each without disturbing the others:
/// [`TomographyError::LeafMismatch`] when the record does not match the
/// tree, and [`TomographyError::NoInformativeStripes`] when every stripe
/// of some node is indeterminate — so much feedback is missing that no
/// estimate exists; callers should treat this like an unprobed link, not
/// as evidence either way.
pub fn infer_pass_rates_tolerant_batch(
    tree: &LogicalTree,
    records: &[PartialProbeRecord],
    scratch: &mut InferScratch,
) -> Vec<Result<PassRates, TomographyError>> {
    let _span = concilium_obs::span("tomo.infer");
    scratch.ensure_shape(tree);
    records.iter().map(|record| scratch.tolerant(tree, record)).collect()
}

fn check_leaves(tree: &LogicalTree, record_leaves: usize) -> Result<(), InferError> {
    if record_leaves == tree.num_leaves() {
        Ok(())
    } else {
        Err(InferError::LeafMismatch { tree: tree.num_leaves(), record: record_leaves })
    }
}

/// The per-record estimators. Both assume the shape cache matches `tree`.
impl InferScratch {
    fn strict(&mut self, tree: &LogicalTree, record: &ProbeRecord) -> Result<PassRates, InferError> {
        check_leaves(tree, record.num_leaves())?;
        self.pack_gammas(record.ack_plane(), None, record.num_stripes());
        Ok(self.solve(tree))
    }

    fn tolerant(
        &mut self,
        tree: &LogicalTree,
        record: &PartialProbeRecord,
    ) -> Result<PassRates, TomographyError> {
        check_leaves(tree, record.num_leaves())?;
        let (ack, unknown) = record.planes();
        self.pack_gammas(ack, Some(unknown), record.num_stripes());
        // A leaf with no known cell starves its own node, so this scan
        // also covers the per-leaf rates.
        if let Some(node) = self.informative.iter().position(|&n| n == 0) {
            return Err(TomographyError::NoInformativeStripes { node });
        }
        Ok(self.solve(tree))
    }

    /// The bit-packed bottom-up pass: fills `gamma` and `informative` per
    /// node and `leaf_rates` per leaf from one record's leaf-major planes
    /// (one row of `⌈stripes / 64⌉` words per leaf, at least one stripe):
    /// the ack plane, plus the unknown plane of a partial record.
    ///
    /// Unknown-ness ORs upward like acks do; the ack plane may carry set
    /// bits in unknown positions (a known-acked grandchild under an
    /// indeterminate child), but those positions are masked out of every
    /// count, so the integer (acked, informative) pairs match the
    /// per-stripe recurrence exactly. A node or leaf with no informative
    /// stripe gets NaN.
    fn pack_gammas(&mut self, leaf_ack: &[u64], leaf_unk: Option<&[u64]>, stripes: usize) {
        let n_nodes = self.post.len();
        let blocks = stripes.div_ceil(64);

        // Bottom-up subtree-OR, 64 stripes per word: a node's row is the
        // OR of its children's rows and its own leaf row.
        self.node_ack.clear();
        self.node_ack.resize(n_nodes * blocks, 0);
        if leaf_unk.is_some() {
            self.node_unk.clear();
            self.node_unk.resize(n_nodes * blocks, 0);
        }
        self.gamma.clear();
        self.gamma.resize(n_nodes, 0.0);
        self.informative.clear();
        self.informative.resize(n_nodes, 0);
        for i in 0..n_nodes {
            let kids = &self.kids[self.kids_off[i] as usize..self.kids_off[i + 1] as usize];
            let leaf_row = match self.leaf_of_pos[i] {
                0 => None,
                leaf_plus_one => Some((leaf_plus_one - 1) as usize * blocks),
            };
            let row = i * blocks..(i + 1) * blocks;
            or_subtree(&mut self.node_ack, leaf_ack, row.clone(), kids, leaf_row);
            if let Some(leaf_unk) = leaf_unk {
                or_subtree(&mut self.node_unk, leaf_unk, row.clone(), kids, leaf_row);
            }
            let unk = leaf_unk.map(|_| &self.node_unk[row.clone()]);
            let (acked, informative) = count_row(&self.node_ack[row], unk, stripes);
            let node = self.post[i] as usize;
            self.gamma[node] = acked as f64 / informative as f64;
            self.informative[node] = informative;
        }

        // Per-leaf direct-stream rates over the known cells only.
        self.leaf_rates.clear();
        for (leaf, ack) in leaf_ack.chunks_exact(blocks).enumerate() {
            let unk = leaf_unk.map(|plane| &plane[leaf * blocks..][..blocks]);
            let (acks, known) = count_row(ack, unk, stripes);
            self.leaf_rates.push(acks as f64 / known as f64);
        }
    }

    fn solve(&mut self, tree: &LogicalTree) -> PassRates {
        solve_from_gammas(
            tree,
            &self.gamma,
            &self.leaf_rates,
            &mut self.stack,
            &mut self.child_gammas,
        )
    }
}

/// ORs into `plane[row]` the rows of the node's children (post positions,
/// all below `row`) and its own row of `leaf_plane`, if it is a leaf.
fn or_subtree(
    plane: &mut [u64],
    leaf_plane: &[u64],
    row: std::ops::Range<usize>,
    kids: &[u32],
    leaf_row: Option<usize>,
) {
    let blocks = row.len();
    let (lower, upper) = plane.split_at_mut(row.start);
    let dst = &mut upper[..blocks];
    let child_rows = kids.iter().map(|&c| &lower[c as usize * blocks..][..blocks]);
    for src in child_rows.chain(leaf_row.map(|l| &leaf_plane[l..][..blocks])) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }
}

/// `(acked, known)` stripe counts of one bit row. With no unknown plane
/// every stripe is known; with one, unknown positions leave both counts.
fn count_row(ack: &[u64], unk: Option<&[u64]>, stripes: usize) -> (u64, u64) {
    let ones = |w: u64| u64::from(w.count_ones());
    let Some(unk) = unk else {
        return (ack.iter().map(|&w| ones(w)).sum(), stripes as u64);
    };
    // `!unknown` sets the slack bits of the last block; mask them out.
    let tail_mask: u64 = if stripes.is_multiple_of(64) { !0 } else { (1u64 << (stripes % 64)) - 1 };
    let last = ack.len() - 1;
    let mut acked = 0;
    let mut known_total = 0;
    for (b, (&a, &u)) in ack.iter().zip(unk).enumerate() {
        let known = !u & if b == last { tail_mask } else { !0 };
        known_total += ones(known);
        acked += ones(a & known);
    }
    (acked, known_total)
}

/// The shared top-down half of the estimator: cumulative rates by
/// bisection, then per-edge α = A_child / A_parent with the dead-segment
/// convention.
fn solve_from_gammas(
    tree: &LogicalTree,
    gamma: &[f64],
    leaf_rates: &[f64],
    stack: &mut Vec<usize>,
    child_gammas: &mut Vec<f64>,
) -> PassRates {
    let n_nodes = tree.num_nodes();
    // `cumulative` and `alpha` are the *result*, owned by the returned
    // `PassRates`; only the traversal stack and bisection inputs are scratch.
    let mut cumulative = vec![f64::NAN; n_nodes];
    cumulative[0] = 1.0;
    stack.clear();
    stack.push(0usize);
    while let Some(node) = stack.pop() {
        for &child in tree.children(node) {
            cumulative[child] = estimate_cumulative(tree, gamma, leaf_rates, child, child_gammas);
            stack.push(child);
        }
    }

    let mut alpha = vec![1.0; tree.num_edges()];
    stack.clear();
    stack.push(0usize);
    while let Some(node) = stack.pop() {
        for &child in tree.children(node) {
            let a_parent = cumulative[node];
            let a_child = cumulative[child];
            alpha[child - 1] = if a_parent <= 0.0 {
                1.0 // unidentifiable below a dead segment
            } else {
                (a_child / a_parent).clamp(0.0, 1.0)
            };
            stack.push(child);
        }
    }

    PassRates { cumulative, alpha }
}

/// Estimates A_k for a non-root node.
fn estimate_cumulative(
    tree: &LogicalTree,
    gamma: &[f64],
    leaf_rates: &[f64],
    node: usize,
    child_gammas: &mut Vec<f64>,
) -> f64 {
    let g_k = gamma[node];
    if g_k <= 0.0 {
        return 0.0;
    }
    // Effective children γ's: child subtrees, plus the node's own direct
    // observation stream when it is itself a leaf with children.
    child_gammas.clear();
    child_gammas.extend(tree.children(node).iter().map(|&c| gamma[c]));
    if let Some(leaf) = tree.leaf_at(node) {
        if !tree.children(node).is_empty() {
            child_gammas.push(leaf_rates[leaf]);
        } else {
            // Pure leaf: Â = γ̂ directly.
            return g_k;
        }
    }
    if child_gammas.len() < 2 {
        // Single effective child: its subtree's γ equals ours, the edge is
        // unidentifiable here; defer to the child (handled because the
        // child will estimate against the same cumulative value). Treat A
        // as the best available bound: γ_k itself.
        return g_k.clamp(0.0, 1.0);
    }

    // Solve h(A) = γ_k/A − 1 + Π (1 − γ_j/A) = 0 on (γ_k, 1].
    let h = |a: f64| {
        g_k / a - 1.0 + child_gammas.iter().map(|&g| 1.0 - g / a).product::<f64>()
    };
    let mut lo = g_k.min(1.0);
    let mut hi = 1.0;
    if h(hi) >= 0.0 {
        return 1.0; // noise: subtree looks lossless above k
    }
    // h(lo+) ≥ 0 analytically; nudge off the singularity.
    lo += 1e-12;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if h(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Post-order traversal (children before parents) into a reused buffer.
///
/// `stack` encodes the "expanded" bit in the high bit of the node index so
/// the same `Vec<usize>` scratch serves both this and the top-down solve.
fn post_order_into(tree: &LogicalTree, order: &mut Vec<usize>, stack: &mut Vec<usize>) {
    const EXPANDED: usize = 1 << (usize::BITS - 1);
    order.clear();
    order.reserve(tree.num_nodes());
    stack.clear();
    stack.push(0usize);
    while let Some(entry) = stack.pop() {
        if entry & EXPANDED != 0 {
            order.push(entry & !EXPANDED);
        } else {
            stack.push(entry | EXPANDED);
            for &c in tree.children(entry) {
                stack.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::simulate_stripes;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{Id, LinkId, RouterId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One partial record through the batch entry point on a fresh scratch.
    fn tolerant_one(
        tree: &LogicalTree,
        record: &PartialProbeRecord,
    ) -> Result<PassRates, TomographyError> {
        let mut scratch = InferScratch::default();
        infer_pass_rates_tolerant_batch(tree, std::slice::from_ref(record), &mut scratch).remove(0)
    }

    /// `record` with every ack of leaf 0 lost.
    fn starve_leaf_0(record: &ProbeRecord) -> PartialProbeRecord {
        let rows = (0..record.num_stripes())
            .map(|s| {
                (0..record.num_leaves())
                    .map(|l| (l > 0).then(|| record.received(s, l)))
                    .collect()
            })
            .collect();
        PartialProbeRecord::try_new(rows).unwrap()
    }

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    /// Root → branch (link 0) → {leaf1 (link 1), leaf2 (link 2)}.
    fn y_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3], &[0, 2])),
            ],
        )
        .unwrap()
        .logical()
    }

    /// A three-level tree with 4 leaves.
    fn deep_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2, 4], &[0, 1, 3])),
                (Id::from_u64(2), p(&[0, 1, 2, 5], &[0, 1, 4])),
                (Id::from_u64(3), p(&[0, 1, 3, 6], &[0, 2, 5])),
                (Id::from_u64(4), p(&[0, 1, 3, 7], &[0, 2, 6])),
            ],
        )
        .unwrap()
        .logical()
    }

    fn edge_by_links(tree: &LogicalTree, links: &[u32]) -> usize {
        let want: Vec<LinkId> = links.iter().copied().map(LinkId).collect();
        (0..tree.num_edges())
            .find(|&e| tree.edge_links(e) == want.as_slice())
            .expect("edge exists")
    }

    /// A node's view of one stripe under partial feedback: fully known (with
    /// the subtree-ack indicator) or indeterminate because some leaf's cell is
    /// missing. The packed kernel represents the same tri-state as an
    /// (ack, unknown) bit pair.
    #[derive(Clone, Copy, PartialEq)]
    enum StripeView {
        Known {
            acked: bool,
        },
        Indeterminate,
    }

    /// The scalar strict estimator — the oracle the packed kernel must match
    /// bit for bit: γ̂ by walking every stripe through the tree, one `bool`
    /// per node.
    fn infer_pass_rates_reference(
        tree: &LogicalTree,
        record: &ProbeRecord,
    ) -> Result<PassRates, InferError> {
        if record.num_leaves() != tree.num_leaves() {
            return Err(InferError::LeafMismatch {
                tree: tree.num_leaves(),
                record: record.num_leaves(),
            });
        }
        let n_nodes = tree.num_nodes();
        let stripes = record.num_stripes();

        // γ̂_k: fraction of stripes where any leaf in k's subtree acked.
        // Computed bottom-up per stripe with an explicit post-order.
        let mut order = Vec::new();
        let mut stack = Vec::new();
        post_order_into(tree, &mut order, &mut stack);
        let mut acked = vec![0u64; n_nodes];
        let mut seen = vec![false; n_nodes];
        for s in 0..stripes {
            for &node in &order {
                let mut any = tree
                    .leaf_at(node)
                    .map(|leaf| record.received(s, leaf))
                    .unwrap_or(false);
                if !any {
                    any = tree.children(node).iter().any(|&c| seen[c]);
                }
                seen[node] = any;
                if any {
                    acked[node] += 1;
                }
            }
        }
        let gamma: Vec<f64> = acked.iter().map(|&c| c as f64 / stripes as f64).collect();
        let leaf_rates: Vec<f64> =
            (0..tree.num_leaves()).map(|l| record.leaf_ack_rate(l)).collect();

        let mut child_gammas = Vec::new();
        Ok(solve_from_gammas(tree, &gamma, &leaf_rates, &mut stack, &mut child_gammas))
    }

    /// The scalar tolerant estimator, oracle for the partial-record instance
    /// of the packed kernel.
    fn infer_pass_rates_tolerant_reference(
        tree: &LogicalTree,
        record: &PartialProbeRecord,
    ) -> Result<PassRates, TomographyError> {
        if record.num_leaves() != tree.num_leaves() {
            return Err(TomographyError::LeafMismatch {
                tree: tree.num_leaves(),
                record: record.num_leaves(),
            });
        }
        let n_nodes = tree.num_nodes();
        let stripes = record.num_stripes();
        let mut order = Vec::new();
        let mut stack = Vec::new();
        post_order_into(tree, &mut order, &mut stack);

        let mut acked = vec![0u64; n_nodes];
        let mut informative = vec![0u64; n_nodes];
        let mut state = vec![StripeView::Indeterminate; n_nodes];
        for s in 0..stripes {
            for &node in &order {
                let own = tree.leaf_at(node).map(|leaf| record.outcome(s, leaf));
                let mut any_ack = own == Some(Some(true));
                let mut any_unknown = own == Some(None);
                for &c in tree.children(node) {
                    match state[c] {
                        StripeView::Known { acked: true } => any_ack = true,
                        StripeView::Known { acked: false } => {}
                        StripeView::Indeterminate => any_unknown = true,
                    }
                }
                state[node] = if any_unknown {
                    StripeView::Indeterminate
                } else {
                    StripeView::Known { acked: any_ack }
                };
                if let StripeView::Known { acked: a } = state[node] {
                    informative[node] += 1;
                    acked[node] += u64::from(a);
                }
            }
        }
        let mut gamma = vec![0.0; n_nodes];
        for node in 0..n_nodes {
            if informative[node] == 0 {
                return Err(TomographyError::NoInformativeStripes { node });
            }
            gamma[node] = acked[node] as f64 / informative[node] as f64;
        }

        // Per-leaf direct-stream rates over the known cells only.
        let mut leaf_rates = vec![0.0; tree.num_leaves()];
        for (leaf, rate) in leaf_rates.iter_mut().enumerate() {
            let mut acks = 0u64;
            let mut known = 0u64;
            for s in 0..stripes {
                match record.outcome(s, leaf) {
                    Some(true) => {
                        acks += 1;
                        known += 1;
                    }
                    Some(false) => known += 1,
                    None => {}
                }
            }
            if known == 0 {
                return Err(TomographyError::NoInformativeStripes {
                    node: tree.leaf_node(leaf),
                });
            }
            *rate = acks as f64 / known as f64;
        }

        let mut child_gammas = Vec::new();
        Ok(solve_from_gammas(tree, &gamma, &leaf_rates, &mut stack, &mut child_gammas))
    }

    /// The `f64::to_bits` image of a result: `==` on [`PassRates`] would
    /// let `-0.0 == 0.0` through.
    fn bits<E>(result: Result<PassRates, E>) -> Result<(Vec<u64>, Vec<u64>), E> {
        let image = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        result.map(|r| (image(&r.cumulative), image(&r.alpha)))
    }

    #[test]
    fn recovers_uniform_rates() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(100);
        let rec = simulate_stripes(&tree, &|_| 0.9, 20_000, &mut rng);
        let rates = infer_pass_rates(&tree, &rec).unwrap();
        for e in 0..tree.num_edges() {
            assert!(
                (rates.edge_pass_rate(e) - 0.9).abs() < 0.01,
                "edge {e}: {}",
                rates.edge_pass_rate(e)
            );
        }
    }

    #[test]
    fn localises_shared_vs_last_mile_loss() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(101);
        // Shared link 0 lossy (0.7), leaf-1 link lossy (0.8), leaf-2 clean.
        let pass = |l: LinkId| match l.0 {
            0 => 0.7,
            1 => 0.8,
            _ => 1.0,
        };
        let rec = simulate_stripes(&tree, &pass, 30_000, &mut rng);
        let rates = infer_pass_rates(&tree, &rec).unwrap();
        let shared = edge_by_links(&tree, &[0]);
        let leaf1 = edge_by_links(&tree, &[1]);
        let leaf2 = edge_by_links(&tree, &[2]);
        assert!((rates.edge_pass_rate(shared) - 0.7).abs() < 0.02);
        assert!((rates.edge_pass_rate(leaf1) - 0.8).abs() < 0.02);
        assert!((rates.edge_pass_rate(leaf2) - 1.0).abs() < 0.02);
    }

    #[test]
    fn duffield_accuracy_on_deep_tree() {
        // "inferred link loss rates within 1% of the actual ones" — with
        // plenty of stripes we should match that on a 3-level tree.
        let tree = deep_tree();
        let mut rng = StdRng::seed_from_u64(102);
        let pass = |l: LinkId| match l.0 {
            0 => 0.95,
            1 => 0.90,
            2 => 0.85,
            _ => 0.92,
        };
        let rec = simulate_stripes(&tree, &pass, 50_000, &mut rng);
        let rates = infer_pass_rates(&tree, &rec).unwrap();
        for (links, want) in [
            (vec![0u32], 0.95),
            (vec![1], 0.90),
            (vec![2], 0.85),
            (vec![3], 0.92),
            (vec![4], 0.92),
            (vec![5], 0.92),
            (vec![6], 0.92),
        ] {
            let e = edge_by_links(&tree, &links);
            assert!(
                (rates.edge_pass_rate(e) - want).abs() < 0.01,
                "links {links:?}: got {} want {want}",
                rates.edge_pass_rate(e)
            );
        }
    }

    #[test]
    fn dead_shared_edge_detected() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(103);
        let pass = |l: LinkId| if l.0 == 0 { 0.0 } else { 0.9 };
        let rec = simulate_stripes(&tree, &pass, 1_000, &mut rng);
        let rates = infer_pass_rates(&tree, &rec).unwrap();
        let shared = edge_by_links(&tree, &[0]);
        assert_eq!(rates.edge_pass_rate(shared), 0.0);
        // Below a dead segment the convention is pass rate 1 (no evidence).
        let leaf1 = edge_by_links(&tree, &[1]);
        assert_eq!(rates.edge_pass_rate(leaf1), 1.0);
    }

    #[test]
    fn leaf_mismatch_rejected() {
        let tree = y_tree();
        let rec = ProbeRecord::new(vec![vec![true; 3]]);
        assert_eq!(
            infer_pass_rates(&tree, &rec),
            Err(InferError::LeafMismatch { tree: 2, record: 3 })
        );
    }

    #[test]
    fn tolerant_on_complete_record_matches_exactly() {
        let tree = deep_tree();
        let mut rng = StdRng::seed_from_u64(105);
        let rec = simulate_stripes(&tree, &|_| 0.9, 5_000, &mut rng);
        let full = infer_pass_rates(&tree, &rec).unwrap();
        let partial = crate::probe::PartialProbeRecord::from_complete(&rec);
        let tolerant = tolerant_one(&tree, &partial).unwrap();
        assert_eq!(full, tolerant, "no censoring ⇒ identical estimates");
    }

    #[test]
    fn tolerant_discounts_missing_feedback() {
        // 20% of all feedback cells lost uniformly. Naively mapping the
        // missing cells to "not received" deflates every estimate; the
        // tolerant estimator stays near the truth.
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(106);
        let pass = |l: LinkId| match l.0 {
            0 => 0.9,
            1 => 0.8,
            _ => 0.95,
        };
        let rec = simulate_stripes(&tree, &pass, 30_000, &mut rng);
        let mut partial = crate::probe::PartialProbeRecord::from_complete(&rec);
        partial.censor_random(0.2, &mut rng);
        let cells = (0..rec.num_stripes())
            .flat_map(|s| (0..rec.num_leaves()).map(move |l| (s, l)))
            .map(|(s, l)| partial.outcome(s, l));
        let missing = cells.clone().filter(|c| c.is_none()).count();
        assert!((missing as f64 / cells.count() as f64 - 0.2).abs() < 0.01);
        let rates = tolerant_one(&tree, &partial).unwrap();
        for (links, want) in [(vec![0u32], 0.9), (vec![1], 0.8), (vec![2], 0.95)] {
            let e = edge_by_links(&tree, &links);
            assert!(
                (rates.edge_pass_rate(e) - want).abs() < 0.03,
                "links {links:?}: got {} want {want}",
                rates.edge_pass_rate(e)
            );
        }

        // The naive reading of the same censored data is visibly biased
        // on the last-mile edges (each loses ~20% of its acks).
        let naive_rows: Vec<Vec<bool>> = (0..rec.num_stripes())
            .map(|s| (0..rec.num_leaves()).map(|l| partial.outcome(s, l) == Some(true)).collect())
            .collect();
        let naive = infer_pass_rates(&tree, &ProbeRecord::new(naive_rows)).unwrap();
        let leaf1 = edge_by_links(&tree, &[1]);
        assert!(
            naive.edge_pass_rate(leaf1) < 0.8 - 0.1,
            "naive estimate should be deflated, got {}",
            naive.edge_pass_rate(leaf1)
        );
    }

    #[test]
    fn tolerant_rejects_a_fully_starved_leaf() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(107);
        let rec = simulate_stripes(&tree, &|_| 0.9, 100, &mut rng);
        let partial = starve_leaf_0(&rec);
        let err = tolerant_one(&tree, &partial).unwrap_err();
        assert!(
            matches!(err, TomographyError::NoInformativeStripes { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn tolerant_leaf_mismatch_is_typed() {
        let tree = y_tree();
        let partial =
            crate::probe::PartialProbeRecord::try_new(vec![vec![Some(true); 3]]).unwrap();
        assert_eq!(
            tolerant_one(&tree, &partial),
            Err(TomographyError::LeafMismatch { tree: 2, record: 3 })
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_alloc_path() {
        // One scratch driven across different trees, records, and both
        // estimators must reproduce the fresh-allocation results exactly.
        let mut scratch = InferScratch::default();
        let mut rng = StdRng::seed_from_u64(108);

        for (tree, seed) in [(y_tree(), 1u64), (deep_tree(), 2), (y_tree(), 3)] {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let rec = simulate_stripes(&tree, &|l: LinkId| 0.8 + 0.05 * (l.0 % 3) as f64, 2_000, &mut rng2);
            let reused = infer_pass_rates_batch(&tree, std::slice::from_ref(&rec), &mut scratch);
            assert_eq!(bits(infer_pass_rates(&tree, &rec)), bits(reused[0].clone()));

            let mut partial = crate::probe::PartialProbeRecord::from_complete(&rec);
            partial.censor_random(0.1, &mut rng);
            let reused_t = infer_pass_rates_tolerant_batch(
                &tree,
                std::slice::from_ref(&partial),
                &mut scratch,
            );
            assert_eq!(bits(tolerant_one(&tree, &partial)), bits(reused_t[0].clone()));
        }

        // Error paths leave the scratch reusable too.
        let tree = y_tree();
        let bad = ProbeRecord::new(vec![vec![true; 3]]);
        let mut rng3 = StdRng::seed_from_u64(4);
        let rec = simulate_stripes(&tree, &|_| 0.9, 500, &mut rng3);
        let out = infer_pass_rates_batch(&tree, &[bad, rec.clone()], &mut scratch);
        assert!(out[0].is_err());
        assert_eq!(bits(infer_pass_rates(&tree, &rec)), bits(out[1].clone()));
    }

    #[test]
    fn scratch_shape_cache_survives_tree_swaps() {
        // Regression for the shape cache: alternate between trees with
        // DIFFERENT shapes (including two builds of the same shape, which
        // must hit the cache but is indistinguishable from outside) and
        // require exact agreement with the scalar reference every time.
        let mut scratch = InferScratch::default();
        let trees = [y_tree(), deep_tree(), y_tree(), deep_tree(), y_tree()];
        for (i, tree) in trees.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(200 + i as u64);
            let rec = simulate_stripes(tree, &|l: LinkId| 0.7 + 0.1 * (l.0 % 3) as f64, 777, &mut rng);
            let got = infer_pass_rates_batch(tree, std::slice::from_ref(&rec), &mut scratch);
            assert_eq!(
                bits(infer_pass_rates_reference(tree, &rec)),
                bits(got[0].clone()),
                "swap {i}: packed kernel diverged from scalar reference"
            );
            let mut partial = crate::probe::PartialProbeRecord::from_complete(&rec);
            partial.censor_random(0.15, &mut rng);
            let got_t =
                infer_pass_rates_tolerant_batch(tree, std::slice::from_ref(&partial), &mut scratch);
            assert_eq!(
                bits(infer_pass_rates_tolerant_reference(tree, &partial)),
                bits(got_t[0].clone()),
                "swap {i}: tolerant packed kernel diverged"
            );
        }
    }

    #[test]
    fn batch_handles_mixed_errors_and_stripe_counts() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(300);
        // 64 and 65 stripes straddle the block boundary; a mismatched
        // record in the middle must error without disturbing the rest.
        let r64 = simulate_stripes(&tree, &|_| 0.9, 64, &mut rng);
        let bad = ProbeRecord::new(vec![vec![true; 3]]);
        let r65 = simulate_stripes(&tree, &|_| 0.8, 65, &mut rng);
        let mut scratch = InferScratch::default();
        let out = infer_pass_rates_batch(&tree, &[r64.clone(), bad, r65.clone()], &mut scratch);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], infer_pass_rates_reference(&tree, &r64));
        assert_eq!(out[1], Err(InferError::LeafMismatch { tree: 2, record: 3 }));
        assert_eq!(out[2], infer_pass_rates_reference(&tree, &r65));

        // Tolerant batch, with a fully starved record in the middle.
        let p64 = crate::probe::PartialProbeRecord::from_complete(&r64);
        let starved = starve_leaf_0(&r64);
        let p65 = crate::probe::PartialProbeRecord::from_complete(&r65);
        let out =
            infer_pass_rates_tolerant_batch(&tree, &[p64.clone(), starved.clone(), p65.clone()], &mut scratch);
        assert_eq!(out[0], infer_pass_rates_tolerant_reference(&tree, &p64));
        assert_eq!(out[1], infer_pass_rates_tolerant_reference(&tree, &starved));
        assert_eq!(out[2], infer_pass_rates_tolerant_reference(&tree, &p65));
    }

    #[test]
    fn suppressing_leaf_ruins_shared_inference() {
        // §3.3 (after Arya et al.): a leaf that drops acknowledgments for
        // probes it received "can ruin many inferences throughout the
        // tree". With one of two leaves silent, the branch node has a
        // single informative child, so loss on the shared segment can no
        // longer be separated from the sibling's last mile: the shared
        // edge reads lossless and its loss is mis-attributed downstream.
        // This is exactly why Concilium needs the feedback-verification
        // tests in `feedback`.
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(104);
        let mut rec = simulate_stripes(&tree, &|_| 0.95, 20_000, &mut rng);
        rec.suppress_leaf(0);
        let rates = infer_pass_rates(&tree, &rec).unwrap();
        let shared = edge_by_links(&tree, &[0]);
        let leaf1 = edge_by_links(&tree, &[1]);
        let leaf2 = edge_by_links(&tree, &[2]);
        assert!(rates.edge_pass_rate(shared) > 0.98, "shared loss hidden");
        assert!(rates.edge_pass_rate(leaf1) < 0.01, "suppressed leaf looks dead");
        // The sibling's edge absorbs the shared loss: ≈ 0.95² ≈ 0.9025.
        assert!(
            (rates.edge_pass_rate(leaf2) - 0.9025).abs() < 0.02,
            "sibling absorbs shared loss, got {}",
            rates.edge_pass_rate(leaf2)
        );
    }

    /// Builds a random multicast tree by growing random leaf paths that
    /// share prefixes. Router/link ids encode the path prefix, so two
    /// leaves agree on a router exactly when their prefixes agree — every
    /// generated path set forms a proper tree with no remerging.
    fn random_tree(rng: &mut StdRng) -> LogicalTree {
        const BRANCH: u64 = 3;
        loop {
            let n_leaves = rng.gen_range(1..7usize);
            let mut used = std::collections::BTreeSet::new();
            let mut leaves = Vec::new();
            for leaf in 0..n_leaves {
                let depth = rng.gen_range(1..5usize);
                let mut routers = vec![0u32];
                let mut links = Vec::new();
                let mut prefix = 0u64;
                for _ in 0..depth {
                    let choice = rng.gen_range(0..BRANCH);
                    prefix = prefix * (BRANCH + 1) + choice + 1;
                    routers.push(prefix as u32);
                    links.push(prefix as u32);
                }
                if !used.insert(prefix) {
                    continue; // identical full path: same leaf twice
                }
                leaves.push((
                    Id::from_u64(1000 + leaf as u64),
                    p(&routers, &links),
                ));
            }
            if leaves.is_empty() {
                continue;
            }
            if let Ok(tree) = ProbeTree::from_paths(RouterId(0), leaves) {
                return tree.logical();
            }
        }
    }

    proptest! {
        /// Across random trees and records, the packed kernel — fresh
        /// scratch and batched on one reused scratch (so the shape cache
        /// is exercised by every tree change) — is bit-identical to the
        /// scalar reference, strict and tolerant, including error values.
        #[test]
        fn packed_and_batched_match_scalar_reference(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = InferScratch::default();
            for round in 0..4 {
                let tree = random_tree(&mut rng);
                // Stripe counts straddling u64-block boundaries.
                let stripes = [1, 63, 64, 65, 128, 150][rng.gen_range(0..6usize)];
                let base = 0.3 + 0.6 * rng.gen::<f64>();
                let rec = simulate_stripes(
                    &tree,
                    &|l: LinkId| (base + 0.05 * (l.0 % 5) as f64).min(1.0),
                    stripes,
                    &mut rng,
                );
                let want = bits(infer_pass_rates_reference(&tree, &rec));
                prop_assert_eq!(&want, &bits(infer_pass_rates(&tree, &rec)), "strict round {}", round);
                let mut batch = infer_pass_rates_batch(&tree, std::slice::from_ref(&rec), &mut scratch);
                prop_assert_eq!(&want, &bits(batch.remove(0)), "strict batch round {}", round);

                let mut partial = crate::probe::PartialProbeRecord::from_complete(&rec);
                // Heavy censoring on some rounds so starved nodes (the
                // error values) actually occur.
                let censor = if rng.gen_bool(0.25) { 0.9 } else { 0.3 * rng.gen::<f64>() };
                partial.censor_random(censor, &mut rng);
                let want_t = bits(infer_pass_rates_tolerant_reference(&tree, &partial));
                prop_assert_eq!(
                    &want_t,
                    &bits(tolerant_one(&tree, &partial)),
                    "tolerant round {}", round
                );
                let mut batch_t =
                    infer_pass_rates_tolerant_batch(&tree, std::slice::from_ref(&partial), &mut scratch);
                prop_assert_eq!(&want_t, &bits(batch_t.remove(0)), "tolerant batch round {}", round);
            }
        }
    }
}
