//! Canonicalization of assay DAGs into content-addressed cache keys.
//!
//! Two requests that describe the *same computation* must map to the
//! same cache entry even when they spell it differently: fluids renamed
//! (`Glucose` vs `fluidX`), nodes declared in a different order, or the
//! same DAG rebuilt by a different front end. Conversely, anything that
//! changes the dispensing plan — a mix ratio, an output weight, any
//! field of the [`Machine`] — must change the key.
//!
//! The pipeline is:
//!
//! 1. **Structural coloring** — two memoized Merkle passes over the
//!    DAG. The *down* hash of a node digests its [`NodeKind`] payload
//!    (ratios, yields, op vocabulary, output weight — never its name)
//!    together with the sorted multiset of its in-edges'
//!    `(fraction, down(src))` pairs, computed in one topological pass;
//!    the *up* hash does the same over out-edges in one reverse pass.
//!    A node's color combines both, capturing its entire ancestry and
//!    its entire cone of influence in `O(V + E)` work. The pair misses
//!    sibling correlations that cross *between* the directions (a
//!    parent distinguished solely by its up-hash never reaches a
//!    child's down-hash), so the still-tied color classes are polished
//!    with classic refinement rounds — seeded this close to discrete,
//!    they touch only the tied nodes and terminate in a round or two
//!    instead of ~depth full-graph rounds. (The sessions layer
//!    re-canonicalizes on every edit, which is why this pass must be
//!    cheap: the old fixpoint refinement cost more than the solve on
//!    large assays.)
//! 2. **Canonical order** — Kahn's topological sort with the ready set
//!    ordered by color (rank-compressed to `u32` so the heap compares
//!    integers, not 128-bit hashes). Structure-identical inputs
//!    therefore produce the same order no matter how their nodes were
//!    numbered. (Nodes that remain color-tied are structurally
//!    symmetric under both hashes; for genuinely automorphic nodes
//!    either choice yields the identical canonical DAG, and in the rare
//!    non-automorphic tie the key merely splits — a missed cache share,
//!    never a wrong hit.)
//! 3. **Canonical edge order** — edges sorted by `(dst, src,
//!    fraction)`. The node and edge permutations are kept on the
//!    [`Canon`] so incremental replanning can translate between a
//!    session's client-numbered DAG and the canonical one.
//! 4. **Encoding + key** — the canonical structure, the output weights,
//!    and *every* field of the machine description are serialized into
//!    a byte string whose word-at-a-time mixing hash is the cache key.
//!    The exact encoding is kept alongside the key so the cache can
//!    reject true hash collisions by comparing bytes (see `cache`).
//! 5. **Rebuild + interning** — the DAG is rebuilt with nodes in
//!    canonical order and fluid names interned to `f0..fN`. Only a
//!    compile reads it, so every path runs this step only to compile: a
//!    `src` request runs the key pass (validation and steps 1–4,
//!    `key_pass`), probes the cache, and completes it
//!    (`KeyPass::complete`) only if it leads a miss; a session keeps
//!    only a state's `Mapping` and completes it (`Mapping::complete`)
//!    when it compiles. [`canonicalize`] is the key pass and its
//!    completion.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

use aqua_dag::{Dag, EdgeId, NodeId, NodeKind};
use aqua_volume::Machine;

/// Version tag folded into every key: bump when the encoding, the plan
/// format, or the solver semantics change incompatibly, so stale caches
/// (in-process or persisted) can never serve plans from another era.
pub(crate) const KEY_VERSION: &str = "aqua-serve-key/v2";

/// The canonical form of one plan-compilation request.
#[derive(Debug, Clone)]
pub struct Canon {
    /// The relabeled DAG: nodes in canonical order named `f0..fN`,
    /// edges sorted by `(dst, src, fraction)`.
    pub dag: Dag,
    /// The request's original node names in canonical order:
    /// `names[i]` is what the request called canonical node `i`. Not
    /// part of the encoding or key (keys are rename-invariant); the
    /// protocol layer attaches it to responses so clients can map plan
    /// node ids back to their own fluid names. Only [`canonicalize`]
    /// fills it: the service's own paths and sessions write a response's
    /// names from the lowered DAG, and a compile never reads them.
    pub names: Vec<String>,
    /// Node permutation: `node_perm[i]` is the canonical index of the
    /// request's node `i`. Incremental replanning uses it to rename
    /// client-space solve artifacts into canonical plan coordinates.
    pub node_perm: Vec<usize>,
    /// Edge permutation: `edge_perm[e]` is the canonical edge index of
    /// the request's edge `e`, or `None` for dead (cut) edges, which
    /// the canonical DAG omits.
    pub edge_perm: Vec<Option<usize>>,
    /// Output weights, re-keyed to canonical node ids.
    pub weights: HashMap<NodeId, u64>,
    /// The exact canonical encoding the key was hashed from; the cache
    /// compares this on lookup to reject 128-bit hash collisions.
    pub encoding: Arc<[u8]>,
    /// The content-addressed cache key (word-mixing hash of
    /// `encoding`).
    pub key: u128,
}

/// Error canonicalizing a request (structurally invalid DAG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonError(pub String);

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot canonicalize assay DAG: {}", self.0)
    }
}

impl std::error::Error for CanonError {}

/// Renders a key as the 32-hex-digit wire form.
pub fn key_hex(key: u128) -> String {
    format!("{key:032x}")
}

/// Parses the 32-hex-digit wire form of a key. Every byte must be a
/// hex digit: `from_str_radix` alone would also take a leading `+`.
pub fn parse_key_hex(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Incremental FNV-1a over 128 bits: tiny, dependency-free, and good
/// enough for content addressing once the cache verifies encodings on
/// hit (so a collision can only cost a miss, never a wrong plan).
pub(crate) struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub(crate) fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u128 {
        self.0
    }
}

/// Word-at-a-time mixing hash over 128-bit lanes: one xor-multiply-
/// rotate per word instead of FNV's one multiply per *byte*. Used for
/// the structural Merkle hashes and the encoding key, both of which
/// run on every session edit; collisions can only merge colors (a
/// split key / missed share — the cache verifies encodings byte-wise
/// on hit) so speed wins over cryptographic strength.
#[derive(Clone, Copy)]
struct Mix128(u128);

impl Mix128 {
    const SEED: u128 = 0x9e3779b97f4a7c15f39cc0605cedc835;
    const MUL: u128 = 0x2360ed051fc65da44385df649fccf645;

    fn new() -> Mix128 {
        Mix128(Self::SEED)
    }

    #[inline]
    fn add(&mut self, v: u128) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::MUL).rotate_left(47);
    }

    #[inline]
    fn add_i128(&mut self, v: i128) {
        self.add(v as u128);
    }

    fn finish(self) -> u128 {
        let mut x = self.0;
        x ^= x >> 71;
        x = x.wrapping_mul(Self::MUL);
        x ^ (x >> 64)
    }
}

/// Hashes a byte string 16 bytes at a time (length-tagged, so padding
/// cannot alias).
fn hash_words(bytes: &[u8]) -> u128 {
    let mut h = Mix128::new();
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        h.add(u128::from_le_bytes(c.try_into().expect("16-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 16];
        last[..rem.len()].copy_from_slice(rem);
        h.add(u128::from_le_bytes(last));
    }
    h.add(bytes.len() as u128);
    h.finish()
}

/// Serializes a node kind's *semantic* payload (no names) into `buf`.
/// The op vocabulary of `Process` nodes is fixed by the lowering
/// (`incubate`, `concentrate`, `sense.OD`, ...), never user text, so
/// including it does not break rename-invariance.
fn push_kind(buf: &mut Vec<u8>, kind: &NodeKind) {
    match kind {
        NodeKind::Input => buf.push(0),
        NodeKind::Mix { seconds } => {
            buf.push(1);
            buf.extend_from_slice(&seconds.to_le_bytes());
        }
        NodeKind::Process { op } => {
            buf.push(2);
            buf.extend_from_slice(&(op.len() as u64).to_le_bytes());
            buf.extend_from_slice(op.as_bytes());
        }
        NodeKind::Separate { fraction } => {
            buf.push(3);
            match fraction {
                None => buf.push(0),
                Some(f) => {
                    buf.push(1);
                    buf.extend_from_slice(&f.numer().to_le_bytes());
                    buf.extend_from_slice(&f.denom().to_le_bytes());
                }
            }
        }
        NodeKind::Output => buf.push(4),
        NodeKind::Excess => buf.push(5),
        NodeKind::ConstrainedInput => buf.push(6),
    }
}

/// Each node's initial color: the FNV-128 digest of its kind payload and
/// output weight. Lowered assays repeat a few `(kind, weight)` pairs
/// over thousands of nodes (2 to 5 in each of the repository's assays;
/// enzyme10 has 5 over 3,034 nodes), so the first `MEMO` distinct pairs
/// are hashed once and then found by comparison; the colors are the
/// same as hashing every node.
fn initial_colors(dag: &Dag, weights: &HashMap<NodeId, u64>) -> Vec<u128> {
    const MEMO: usize = 16;
    let mut memo: Vec<(&NodeKind, u64, u128)> = Vec::with_capacity(MEMO);
    let mut buf = Vec::with_capacity(32);
    dag.node_ids()
        .map(|id| {
            let kind = &dag.node(id).kind;
            let weight = weights.get(&id).copied().unwrap_or(0);
            if let Some(&(_, _, color)) = memo.iter().find(|&&(k, w, _)| w == weight && k == kind) {
                return color;
            }
            buf.clear();
            push_kind(&mut buf, kind);
            buf.extend_from_slice(&weight.to_le_bytes());
            let mut h = Fnv128::new();
            h.write(&buf);
            let color = h.finish();
            if memo.len() < MEMO {
                memo.push((kind, weight, color));
            }
            color
        })
        .collect()
}

/// Canonicalizes a request: DAG + explicit output weights + machine.
///
/// # Errors
///
/// Returns [`CanonError`] if the DAG fails validation (cycles, empty
/// graphs, unnormalized fractions) or an output weight is 0 — such
/// requests are rejected before they reach the cache or the solver.
pub fn canonicalize(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
) -> Result<Canon, CanonError> {
    let pass = key_pass(dag, weights, machine)?;
    let names = pass
        .order
        .iter()
        .map(|&old| dag.node(old).name.clone())
        .collect();
    Ok(Canon {
        names,
        ..pass.complete(dag, weights)
    })
}

/// The key pass of a request: validation, then steps 1–4. Every `src`
/// request runs it and probes the cache with its key and encoding; only
/// the leader of a miss completes it ([`KeyPass::complete`]).
///
/// # Errors
///
/// As [`canonicalize`]: validation reports before the weight check.
pub(crate) fn key_pass(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
) -> Result<KeyPass, CanonError> {
    dag.validate().map_err(|e| CanonError(e.to_string()))?;
    key_steps(dag, weights, machine)
}

/// The mapping of a *pre-validated* DAG: steps 1–4 without
/// validation. A session runs this on push edits that keep its
/// topology; the canonical DAG itself is only needed when a session
/// compiles, and rebuilding it costs more than the rest of the pipeline
/// combined, so [`Mapping::complete`] adds it then.
pub(crate) fn canonicalize_mapped(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
) -> Result<Mapping, CanonError> {
    key_steps(dag, weights, machine).map(Mapping::from)
}

/// What a session keeps of one state's canonicalization: both
/// permutations, the key, and the encoding in the `Arc` the session
/// publishes its plan under.
pub(crate) struct Mapping {
    /// As [`Canon::node_perm`].
    pub(crate) node_perm: Vec<usize>,
    /// As [`Canon::edge_perm`].
    pub(crate) edge_perm: Vec<Option<usize>>,
    /// As [`Canon::encoding`].
    pub(crate) encoding: Arc<[u8]>,
    /// As [`Canon::key`].
    pub(crate) key: u128,
}

impl From<KeyPass> for Mapping {
    fn from(pass: KeyPass) -> Mapping {
        Mapping {
            node_perm: pass.node_perm,
            edge_perm: pass.edge_perm,
            encoding: Arc::from(pass.encoding),
            key: pass.key,
        }
    }
}

impl Mapping {
    /// Step 5 of `(dag, weights)`, the state this maps: the canonical
    /// DAG and output weights [`KeyPass::complete`] builds, with the node
    /// order scattered from the permutation.
    pub(crate) fn complete(
        &self,
        dag: &Dag,
        weights: &HashMap<NodeId, u64>,
    ) -> (Dag, HashMap<NodeId, u64>) {
        let (order, edges) = canonical_order(dag, &self.node_perm, &self.edge_perm);
        rebuild(dag, weights, &order, &self.node_perm, edges)
    }
}

/// Steps 1–4 of a canonicalization: the canonical node order, both
/// permutations, the encoding and its key. The encoding stays a plain
/// vector: a request that hits the cache or joins a compile in flight
/// compares it and drops it.
pub(crate) struct KeyPass {
    /// The request's nodes in canonical order (the inverse of
    /// `node_perm`), as Kahn's sort emitted them.
    pub(crate) order: Vec<NodeId>,
    /// As [`Canon::node_perm`].
    pub(crate) node_perm: Vec<usize>,
    /// As [`Canon::edge_perm`].
    pub(crate) edge_perm: Vec<Option<usize>>,
    /// As [`Canon::encoding`].
    pub(crate) encoding: Vec<u8>,
    /// As [`Canon::key`].
    pub(crate) key: u128,
}

/// Steps 1–4 of `(dag, weights, machine)` for a DAG that passed
/// validation: the key pass without it.
fn key_steps(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    machine: &Machine,
) -> Result<KeyPass, CanonError> {
    // The encoding writes an absent weight as 0 and the compile reads it
    // as 1, so a weight of 0 would share a key with a different plan.
    if weights.values().any(|&w| w == 0) {
        return Err(CanonError("output weight must be positive".to_owned()));
    }
    let n = dag.num_nodes();
    let ids: Vec<NodeId> = dag.node_ids().collect();

    // --- 1. Merkle structural coloring (down + up + tied polish) -------
    let topo = dag
        .topological_order()
        .map_err(|e| CanonError(e.to_string()))?;
    let kind_hash = initial_colors(dag, weights);
    let mut scratch: Vec<(i128, i128, u128)> = Vec::with_capacity(8);
    let mut down = vec![0u128; n];
    for &id in &topo {
        scratch.clear();
        scratch.extend(dag.in_edges(id).iter().map(|&e| {
            let edge = dag.edge(e);
            (
                edge.fraction.numer(),
                edge.fraction.denom(),
                down[edge.src.index()],
            )
        }));
        scratch.sort_unstable();
        let mut h = Mix128::new();
        h.add(kind_hash[id.index()]);
        h.add(scratch.len() as u128);
        for &(num, den, c) in scratch.iter() {
            h.add_i128(num);
            h.add_i128(den);
            h.add(c);
        }
        down[id.index()] = h.finish();
    }
    let mut up = vec![0u128; n];
    for &id in topo.iter().rev() {
        scratch.clear();
        scratch.extend(dag.out_edges(id).iter().map(|&e| {
            let edge = dag.edge(e);
            (
                edge.fraction.numer(),
                edge.fraction.denom(),
                up[edge.dst.index()],
            )
        }));
        scratch.sort_unstable();
        let mut h = Mix128::new();
        h.add(kind_hash[id.index()]);
        h.add(scratch.len() as u128);
        for &(num, den, c) in scratch.iter() {
            h.add_i128(num);
            h.add_i128(den);
            h.add(c);
        }
        up[id.index()] = h.finish();
    }
    let mut colors: Vec<u128> = (0..n)
        .map(|i| {
            let mut h = Mix128::new();
            h.add(down[i]);
            h.add(up[i]);
            h.finish()
        })
        .collect();

    // Rank-sort colors; nodes sharing a color with a sorted neighbor
    // form the tied classes the polish refines.
    let mut by_color: Vec<(u128, u32)> = (0..n).map(|i| (colors[i], i as u32)).collect();
    by_color.sort_unstable();
    let mut tied: Vec<u32> = Vec::new();
    {
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && by_color[j].0 == by_color[i].0 {
                j += 1;
            }
            if j - i > 1 {
                tied.extend(by_color[i..j].iter().map(|&(_, idx)| idx));
            }
            i = j;
        }
    }
    let had_ties = !tied.is_empty();
    // A singleton class can never split, and its (frozen) color remains
    // a deterministic function of structure, so refining only the tied
    // nodes yields the same final partition as full rounds at a
    // fraction of the cost.
    while !tied.is_empty() {
        // (old color, new color, node) — sorting groups classes, then
        // subclasses, so split detection is two linear scans.
        let mut next: Vec<(u128, u128, u32)> = Vec::with_capacity(tied.len());
        for &idx in &tied {
            let id = ids[idx as usize];
            let mut h = Mix128::new();
            h.add(colors[idx as usize]);
            for (edges, dir) in [(dag.in_edges(id), 0u128), (dag.out_edges(id), 1u128)] {
                scratch.clear();
                scratch.extend(edges.iter().map(|&e| {
                    let edge = dag.edge(e);
                    let other = if dir == 0 { edge.src } else { edge.dst };
                    (
                        edge.fraction.numer(),
                        edge.fraction.denom(),
                        colors[other.index()],
                    )
                }));
                scratch.sort_unstable();
                h.add(dir);
                h.add(scratch.len() as u128);
                for &(num, den, c) in scratch.iter() {
                    h.add_i128(num);
                    h.add_i128(den);
                    h.add(c);
                }
            }
            next.push((colors[idx as usize], h.finish(), idx));
        }
        next.sort_unstable();
        let mut split = false;
        let mut still_tied: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < next.len() {
            let mut j = i + 1;
            while j < next.len() && next[j].0 == next[i].0 {
                j += 1;
            }
            let mut k = i;
            while k < j {
                let mut m = k + 1;
                while m < j && next[m].1 == next[k].1 {
                    m += 1;
                }
                if m - k < j - i {
                    split = true;
                }
                if m - k > 1 {
                    still_tied.extend(next[k..m].iter().map(|&(_, _, idx)| idx));
                }
                k = m;
            }
            i = j;
        }
        for &(_, new, idx) in &next {
            colors[idx as usize] = new;
        }
        if !split {
            break; // fixpoint: no class split this round
        }
        tied = still_tied;
    }
    if had_ties {
        by_color.clear();
        by_color.extend((0..n).map(|i| (colors[i], i as u32)));
        by_color.sort_unstable();
    }

    // --- 2. canonical topological order -------------------------------
    // Rank-compress colors so Kahn's priority heap compares u32 ranks
    // instead of (u128, usize) pairs; (color, original index) is a
    // total order, so the rank is too.
    let mut rank = vec![0u32; n];
    for (r, &(_, idx)) in by_color.iter().enumerate() {
        rank[idx as usize] = r as u32;
    }
    let mut indegree: Vec<u32> = ids
        .iter()
        .map(|&id| dag.in_edges(id).len() as u32)
        .collect();
    let mut heap: BinaryHeap<Reverse<u32>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| Reverse(rank[i]))
        .collect();
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    while let Some(Reverse(r)) = heap.pop() {
        let id = ids[by_color[r as usize].1 as usize];
        order.push(id);
        for &e in dag.out_edges(id) {
            let dst = dag.edge(e).dst;
            indegree[dst.index()] -= 1;
            if indegree[dst.index()] == 0 {
                heap.push(Reverse(rank[dst.index()]));
            }
        }
    }
    if order.len() != n {
        return Err(CanonError("cycle survived validation".to_owned()));
    }
    let mut old_to_new: Vec<usize> = vec![usize::MAX; n];
    for (new_idx, &old) in order.iter().enumerate() {
        old_to_new[old.index()] = new_idx;
    }

    // --- 3. canonical edge order ---------------------------------------
    // Packed (dst << 32 | src) keys resolve almost every comparison with
    // one u64; fractions (then the original edge id, which makes the
    // order total even for parallel equal-fraction edges — the canonical
    // bytes are identical either way, the tiebreak just pins `edge_perm`
    // deterministically) break the rare same-endpoint ties.
    let orig_edges: Vec<EdgeId> = dag.edge_ids().collect();
    let mut sorted_edges: Vec<(u64, u32)> = orig_edges
        .iter()
        .filter(|&&e| dag.edge_is_live(e))
        .map(|&e| {
            let edge = dag.edge(e);
            (
                ((old_to_new[edge.dst.index()] as u64) << 32) | old_to_new[edge.src.index()] as u64,
                e.index() as u32,
            )
        })
        .collect();
    sorted_edges.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0).then_with(|| {
            let fa = dag.edge(orig_edges[a.1 as usize]).fraction;
            let fb = dag.edge(orig_edges[b.1 as usize]).fraction;
            (fa.numer(), fa.denom(), a.1).cmp(&(fb.numer(), fb.denom(), b.1))
        })
    });
    let mut edge_perm: Vec<Option<usize>> = vec![None; dag.num_edges()];
    for (canon_idx, &(_, orig)) in sorted_edges.iter().enumerate() {
        edge_perm[orig as usize] = Some(canon_idx);
    }

    // --- 4. encode and hash --------------------------------------------
    // Header, then about 32 bytes per node kind and weight and exactly
    // 48 per edge record.
    let mut buf: Vec<u8> = Vec::with_capacity(128 + 32 * n + 48 * sorted_edges.len());
    buf.extend_from_slice(KEY_VERSION.as_bytes());
    buf.push(0);
    // Machine-spec folding: every field, so no spec change can ever be
    // served a stale plan (capacity, least count, and the full unit
    // inventory all shape rewrites and reservoir allocation).
    for r in [machine.max_capacity_nl(), machine.least_count_nl()] {
        buf.extend_from_slice(&r.numer().to_le_bytes());
        buf.extend_from_slice(&r.denom().to_le_bytes());
    }
    for count in [
        machine.reservoirs,
        machine.mixers,
        machine.heaters,
        machine.separators,
        machine.sensors,
        machine.input_ports,
    ] {
        buf.extend_from_slice(&(count as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for &old in &order {
        push_kind(&mut buf, &dag.node(old).kind);
        let w = weights.get(&old).copied().unwrap_or(0);
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&(sorted_edges.len() as u64).to_le_bytes());
    for &(key, orig) in &sorted_edges {
        let f = dag.edge(orig_edges[orig as usize]).fraction;
        let mut rec = [0u8; 48];
        rec[0..8].copy_from_slice(&(key & 0xffff_ffff).to_le_bytes());
        rec[8..16].copy_from_slice(&(key >> 32).to_le_bytes());
        rec[16..32].copy_from_slice(&f.numer().to_le_bytes());
        rec[32..48].copy_from_slice(&f.denom().to_le_bytes());
        buf.extend_from_slice(&rec);
    }
    let key = hash_words(&buf);
    Ok(KeyPass {
        order,
        node_perm: old_to_new,
        edge_perm,
        encoding: buf,
        key,
    })
}

impl KeyPass {
    /// Step 5: the complete canonical form, without `names`. The
    /// encoding moves into its long-lived `Arc` only after the rebuild's
    /// many small allocations: in the other order the `cold` benchmark's
    /// peak RSS read 178-210 MiB instead of 165-171.
    pub(crate) fn complete(self, dag: &Dag, weights: &HashMap<NodeId, u64>) -> Canon {
        let edges = canonical_edges(dag, &self.edge_perm);
        let (canon_dag, canon_weights) = rebuild(dag, weights, &self.order, &self.node_perm, edges);
        Canon {
            dag: canon_dag,
            names: Vec::new(),
            node_perm: self.node_perm,
            edge_perm: self.edge_perm,
            weights: canon_weights,
            encoding: Arc::from(self.encoding),
            key: self.key,
        }
    }
}

/// Step 5 of canonicalization: the canonical DAG of `dag` (the nodes of
/// `order`, in canonical order, and the live `edges` in canonical edge
/// order) and the output weights re-keyed to canonical node ids.
fn rebuild(
    dag: &Dag,
    weights: &HashMap<NodeId, u64>,
    order: &[NodeId],
    node_perm: &[usize],
    edges: impl ExactSizeIterator<Item = EdgeId>,
) -> (Dag, HashMap<NodeId, u64>) {
    let canon_dag = build_canonical_dag(dag, order, node_perm, edges);
    let new_ids: Vec<NodeId> = canon_dag.node_ids().collect();
    let mut canon_weights = HashMap::with_capacity(weights.len());
    for (&old, &w) in weights {
        if let Some(&new_idx) = node_perm.get(old.index()) {
            canon_weights.insert(new_ids[new_idx], w);
        }
    }
    (canon_dag, canon_weights)
}

/// The nodes of `dag` in the canonical order of a mapping (`node_perm`,
/// `edge_perm`), and its live edges in canonical edge order: the inputs
/// of [`build_canonical_dag`] when only the mapping is at hand.
pub(crate) fn canonical_order(
    dag: &Dag,
    node_perm: &[usize],
    edge_perm: &[Option<usize>],
) -> (Vec<NodeId>, impl ExactSizeIterator<Item = EdgeId>) {
    let mut order: Vec<NodeId> = dag.node_ids().collect();
    for old in dag.node_ids() {
        order[node_perm[old.index()]] = old;
    }
    (order, canonical_edges(dag, edge_perm))
}

/// The live edges of `dag` in canonical edge order: `edge_perm` gives
/// each its slot, so a scatter orders them without a sort.
fn canonical_edges(
    dag: &Dag,
    edge_perm: &[Option<usize>],
) -> impl ExactSizeIterator<Item = EdgeId> {
    let mut slots: Vec<Option<EdgeId>> = vec![None; edge_perm.iter().flatten().count()];
    for (e, slot) in dag.edge_ids().zip(edge_perm) {
        if let Some(idx) = *slot {
            slots[idx] = Some(e);
        }
    }
    slots
        .into_iter()
        .map(|e| e.expect("edge_perm numbers the live edges 0..live"))
}

/// The only builder of a canonical DAG: the nodes of `order` (canonical
/// order) named `f0..fN`, and the live `edges` in canonical edge order;
/// `node_perm` maps a node of `dag` to its canonical index. Step 5 of a
/// full canonicalization and a session's replayed plan build on it.
pub(crate) fn build_canonical_dag(
    dag: &Dag,
    order: &[NodeId],
    node_perm: &[usize],
    edges: impl ExactSizeIterator<Item = EdgeId>,
) -> Dag {
    let mut canon_dag = Dag::with_capacity(order.len(), edges.len());
    let mut new_ids: Vec<NodeId> = Vec::with_capacity(order.len());
    for (new_idx, &old) in order.iter().enumerate() {
        let mut interned = String::with_capacity(8);
        interned.push('f');
        crate::json::push_u64(&mut interned, new_idx as u64);
        new_ids.push(canon_dag.add_node(interned, dag.node(old).kind.clone()));
    }
    for e in edges {
        let edge = dag.edge(e);
        canon_dag.add_edge(
            new_ids[node_perm[edge.src.index()]],
            new_ids[node_perm[edge.dst.index()]],
            edge.fraction,
        );
    }
    canon_dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_rational::Ratio;

    fn mix_assay(parts: &[(u64, u64)]) -> Dag {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        for (i, &(pa, pb)) in parts.iter().enumerate() {
            let m = d.add_mix(format!("m{i}"), &[(a, pa), (b, pb)], 10).unwrap();
            d.add_process(format!("s{i}"), "sense.OD", m);
        }
        d
    }

    fn key_of(dag: &Dag) -> u128 {
        canonicalize(dag, &HashMap::new(), &Machine::paper_default())
            .unwrap()
            .key
    }

    #[test]
    fn renaming_fluids_keeps_the_key() {
        let mut renamed = Dag::new();
        let a = renamed.add_input("SampleXYZ");
        let b = renamed.add_input("ReagentQ");
        let m = renamed.add_mix("weird", &[(a, 1), (b, 4)], 10).unwrap();
        renamed.add_process("out", "sense.OD", m);
        assert_eq!(key_of(&mix_assay(&[(1, 4)])), key_of(&renamed));
    }

    #[test]
    fn permuting_node_order_keeps_the_key() {
        // Same structure, inputs declared in the opposite order and the
        // mix parts swapped to match.
        let mut permuted = Dag::new();
        let b = permuted.add_input("B");
        let a = permuted.add_input("A");
        let m = permuted.add_mix("m0", &[(b, 4), (a, 1)], 10).unwrap();
        permuted.add_process("s0", "sense.OD", m);
        assert_eq!(key_of(&mix_assay(&[(1, 4)])), key_of(&permuted));
    }

    #[test]
    fn different_mix_ratios_change_the_key() {
        let k14 = key_of(&mix_assay(&[(1, 4)]));
        let k15 = key_of(&mix_assay(&[(1, 5)]));
        let k41 = key_of(&mix_assay(&[(4, 1)]));
        assert_ne!(k14, k15);
        assert_ne!(k15, k41);
        // 1:4 and 4:1 over two otherwise-identical inputs are the SAME
        // computation up to renaming (swap the inputs): canonicalization
        // deliberately quotients by that isomorphism, and the response's
        // `names` array tells each client which input became which
        // canonical node.
        assert_eq!(k14, k41);
    }

    #[test]
    fn names_map_canonical_ids_back_to_request_names() {
        let mut d = Dag::new();
        let a = d.add_input("SampleXYZ");
        let b = d.add_input("ReagentQ");
        let m = d.add_mix("weird", &[(a, 1), (b, 4)], 10).unwrap();
        d.add_process("out", "sense.OD", m);
        let canon = canonicalize(&d, &HashMap::new(), &Machine::paper_default()).unwrap();
        assert_eq!(canon.names.len(), canon.dag.num_nodes());
        let mut sorted = canon.names.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec!["ReagentQ", "SampleXYZ", "out", "weird"],
            "every request name appears exactly once"
        );
    }

    #[test]
    fn every_machine_field_is_folded_into_the_key() {
        let dag = mix_assay(&[(1, 4)]);
        let weights = HashMap::new();
        let base = Machine::paper_default();
        let base_key = canonicalize(&dag, &weights, &base).unwrap().key;
        let variants: Vec<Machine> = vec![
            Machine::new(Ratio::from_int(50), base.least_count_nl()).unwrap(),
            Machine::new(base.max_capacity_nl(), Ratio::new(1, 5).unwrap()).unwrap(),
            base.clone().with_reservoirs(4),
            base.clone().with_input_ports(2),
            {
                let mut m = base.clone();
                m.mixers = 1;
                m
            },
            {
                let mut m = base.clone();
                m.heaters = 7;
                m
            },
            {
                let mut m = base.clone();
                m.separators = 9;
                m
            },
            {
                let mut m = base.clone();
                m.sensors = 5;
                m
            },
        ];
        for (i, m) in variants.iter().enumerate() {
            let k = canonicalize(&dag, &weights, m).unwrap().key;
            assert_ne!(k, base_key, "machine variant {i} did not change the key");
        }
    }

    #[test]
    fn output_weights_change_the_key() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(a, 1), (b, 1)], 0).unwrap();
        let o = d.add_output("out", m);
        let unweighted = canonicalize(&d, &HashMap::new(), &Machine::paper_default()).unwrap();
        let mut w = HashMap::new();
        w.insert(o, 3u64);
        let weighted = canonicalize(&d, &w, &Machine::paper_default()).unwrap();
        assert_ne!(unweighted.key, weighted.key);
    }

    #[test]
    fn canonical_dag_is_valid_and_interned() {
        let canon = canonicalize(
            &mix_assay(&[(1, 4), (2, 3)]),
            &HashMap::new(),
            &Machine::paper_default(),
        )
        .unwrap();
        assert!(canon.dag.validate().is_ok());
        for (i, id) in canon.dag.node_ids().enumerate() {
            assert_eq!(canon.dag.node(id).name, format!("f{i}"));
        }
        // Canonical order is topological.
        let order = canon.dag.topological_order().unwrap();
        assert_eq!(order.len(), canon.dag.num_nodes());
    }

    /// The key pass completed (a `src` leader's path) and a mapping
    /// completed (a session compile's path) both equal [`canonicalize`]
    /// field by field, and the scattered edge order puts each live edge
    /// where `edge_perm` says: over seeded random DAGs with weighted
    /// outputs, and a DAG whose cut edge sits before live ones.
    #[test]
    fn mapped_variant_matches_full_canonicalization() {
        use aqua_assays::synthetic::{layered_dag, LayeredConfig};

        let machine = Machine::paper_default();
        let mut cases: Vec<(Dag, HashMap<NodeId, u64>)> = (0..16u64)
            .map(|seed| {
                let config = LayeredConfig {
                    inputs: 2 + (seed as usize % 4),
                    layers: 1 + (seed as usize % 4),
                    width: 2 + (seed as usize % 3),
                    ..LayeredConfig::default()
                };
                let dag = layered_dag(seed * 13 + 5, &config);
                let weights = dag
                    .outputs()
                    .into_iter()
                    .enumerate()
                    .filter(|&(i, _)| !(i as u64 + seed).is_multiple_of(3))
                    .map(|(i, o)| (o, 1 + (i as u64 + seed) % 4))
                    .collect();
                (dag, weights)
            })
            .collect();
        let mut cut = Dag::new();
        let a = cut.add_input("A");
        let b = cut.add_input("B");
        let p = cut.add_node(
            "p",
            NodeKind::Process {
                op: "incubate".into(),
            },
        );
        let dead = cut.add_edge(a, p, Ratio::ONE);
        cut.add_edge(b, p, Ratio::ONE);
        cut.cut_edge(dead);
        let m = cut.add_mix("m", &[(a, 1), (p, 3)], 10).unwrap();
        cut.add_output("out", m);
        let cut_case = cases.len();
        cases.push((cut, HashMap::new()));
        cases.push((mix_assay(&[(1, 4), (2, 3), (1, 999)]), HashMap::new()));

        for (i, (dag, weights)) in cases.iter().enumerate() {
            let full = canonicalize(dag, weights, &machine).unwrap();
            let pass = key_pass(dag, weights, &machine).unwrap();
            let names: Vec<String> = pass
                .order
                .iter()
                .map(|&n| dag.node(n).name.clone())
                .collect();
            let keyed = pass.complete(dag, weights);
            let mapped = canonicalize_mapped(dag, weights, &machine).unwrap();
            let (mapped_dag, mapped_weights) = mapped.complete(dag, weights);
            assert_eq!(names, full.names, "case {i}");
            if i == cut_case {
                assert_eq!(full.edge_perm[dead.index()], None);
            }
            for (dag, weights) in [(&keyed.dag, &keyed.weights), (&mapped_dag, &mapped_weights)] {
                assert_eq!(dag, &full.dag, "case {i}");
                assert_eq!(weights, &full.weights, "case {i}");
            }
            let mapped_keyed = Mapping::from(key_pass(dag, weights, &machine).unwrap());
            for (node_perm, edge_perm, encoding, key) in [
                (
                    &keyed.node_perm,
                    &keyed.edge_perm,
                    &keyed.encoding,
                    keyed.key,
                ),
                (
                    &mapped.node_perm,
                    &mapped.edge_perm,
                    &mapped.encoding,
                    mapped.key,
                ),
                (
                    &mapped_keyed.node_perm,
                    &mapped_keyed.edge_perm,
                    &mapped_keyed.encoding,
                    mapped_keyed.key,
                ),
            ] {
                assert_eq!(node_perm, &full.node_perm, "case {i}");
                assert_eq!(edge_perm, &full.edge_perm, "case {i}");
                assert_eq!(encoding, &full.encoding, "case {i}");
                assert_eq!(key, full.key, "case {i}");
            }
            let canon_edges: Vec<EdgeId> = full.dag.edge_ids().collect();
            for e in dag.edge_ids() {
                match full.edge_perm[e.index()] {
                    None => assert!(!dag.edge_is_live(e), "case {i}: live edge {e} unmapped"),
                    Some(idx) => {
                        let (ce, oe) = (full.dag.edge(canon_edges[idx]), dag.edge(e));
                        assert_eq!(ce.fraction, oe.fraction, "case {i}");
                        assert_eq!(ce.src.index(), full.node_perm[oe.src.index()], "case {i}");
                        assert_eq!(ce.dst.index(), full.node_perm[oe.dst.index()], "case {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn permutations_translate_client_ids_to_canonical_ids() {
        let mut d = Dag::new();
        let a = d.add_input("A");
        let b = d.add_input("B");
        let m = d.add_mix("m", &[(a, 1), (b, 4)], 10).unwrap();
        d.add_process("s", "sense.OD", m);
        let canon = canonicalize(&d, &HashMap::new(), &Machine::paper_default()).unwrap();
        // node_perm: canonical node node_perm[i] must have the client's
        // name for node i in `names`.
        for (client_idx, &canon_idx) in canon.node_perm.iter().enumerate() {
            assert_eq!(
                canon.names[canon_idx],
                d.node(d.node_ids().nth(client_idx).unwrap()).name
            );
        }
        // edge_perm: the mapped canonical edge must carry the same
        // fraction and map endpoints through node_perm.
        let canon_edges: Vec<_> = canon.dag.edge_ids().collect();
        for (client_idx, e) in d.edge_ids().enumerate() {
            let mapped = canon.edge_perm[client_idx].unwrap();
            let ce = canon.dag.edge(canon_edges[mapped]);
            let oe = d.edge(e);
            assert_eq!(ce.fraction, oe.fraction);
            assert_eq!(ce.src.index(), canon.node_perm[oe.src.index()]);
            assert_eq!(ce.dst.index(), canon.node_perm[oe.dst.index()]);
        }
    }

    #[test]
    fn key_hex_round_trips() {
        let k = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        assert_eq!(parse_key_hex(&key_hex(k)), Some(k));
        assert_eq!(parse_key_hex("zz"), None);
        assert_eq!(parse_key_hex("123"), None);
        assert_eq!(parse_key_hex("+0000000000000000000000000000001"), None);
    }
}
