//! BalSep (Algorithm 2 of the paper, §4.4): GHD computation via *balanced
//! separators*.
//!
//! Every GHD of width ≤ k has a node whose cover is a balanced separator
//! (Lemma 1, after Adler, Gottlob & Grohe), so the search only ever guesses
//! covers whose `[B(λ)]`-components contain at most half of the current
//! edges. Recursion operates on *extended subhypergraphs* `H' ∪ Sp`: a set
//! of regular edges plus *special edges* (bags of ancestor separators) that
//! must reappear as leaves (`λ = {s}`, `B = s`) so the recursive results can
//! be glued back together (Function `BuildGHD`).
//!
//! Because components shrink geometrically, the recursion depth is
//! `O(log |E(H)|)` — and negative instances die quickly when no balanced
//! separator exists at all, which is exactly the behaviour the paper
//! reports (BalSep "works particularly well ... when the test if ghw ≤ k
//! gives a 'no'-answer").
//!
//! ## Separator iterator
//!
//! Stage 1 tries all `≤ k`-combinations of full edges of `H` and keeps the
//! balanced ones. Stage 2 (needed for completeness, see §4.4.1: the
//! iterator "uses subedges of H to generate separators corresponding to
//! elements of the set f(H,k)") revisits every *balanced* full combination
//! and substitutes subedges for its members. This restriction is lossless:
//! if a mixed combination is balanced, the full combination of its parent
//! edges covers a superset of vertices, so it is balanced too — hence every
//! balanced mixed separator is a substitution instance of some balanced
//! full combination. Subedge enumeration is budgeted; when the budget
//! trips, an exhausted search is reported as *uncertified* rather than "no".
//!
//! ## Parallel mode
//!
//! With [`Options::jobs`] > 1 the search parallelizes on two axes, the
//! way the paper's tool does for `Check(GHD,k)`:
//!
//! * the **root separator scan** is speculative: workers pull candidate
//!   combinations from one shared iterator, and the first worker to
//!   complete a witness cancels its siblings through a budget child
//!   scope ([`crate::budget::Budget::child_scope`]);
//! * below any chosen separator, the **components** become forked
//!   subtasks on the crate's fork–join pool ([`crate::parallel`]), with
//!   the first failed component cancelling its siblings.
//!
//! The root scan forks at once, so a parallel BalSep search over more
//! than two edges always starts the pool's helper threads.
//!
//! The failure memo and the subedge table are shared (sharded concurrent
//! maps), so a dead end explored by any worker prunes every other
//! worker's search. Parallel and serial runs report the same width; only
//! the particular witness may differ.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hyperbench_core::components::{u_components_of_sets_with, ComponentScratch, SetComponents};
use hyperbench_core::hash::Fnv1a64;
use hyperbench_core::subedges::{global_subedges, SubedgeConfig};
use hyperbench_core::util::CombinationsUpTo;
use hyperbench_core::{BitSet, EdgeId, Hypergraph};

use crate::budget::{Budget, Stopped, Ticker};
use crate::detk::SearchResult;
use crate::parallel::{Options, ShardedMemo, WorkerCtx, FORK_MAX_DEPTH, FORK_MIN_EDGES};
use crate::tree::{CoverAtom, Decomposition};

/// Configuration for the BalSep search.
#[derive(Debug, Clone)]
pub struct BalsepConfig {
    /// Whether stage 2 (subedge separators) runs at all. Without it, "no"
    /// answers are not certified (reported as uncertified).
    pub use_subedges: bool,
    /// Budgets for the `f(H,k)` enumeration.
    pub subedge_cfg: SubedgeConfig,
    /// Cap on substitution variants tried per balanced full combination.
    pub max_variants_per_combo: u64,
}

impl Default for BalsepConfig {
    fn default() -> Self {
        BalsepConfig {
            use_subedges: true,
            subedge_cfg: SubedgeConfig::default(),
            max_variants_per_combo: 50_000,
        }
    }
}

/// Solves `Check(GHD,k)` for `h` via balanced separators.
pub fn decompose_balsep(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
    cfg: &BalsepConfig,
) -> SearchResult {
    run_search(h, k, budget, cfg, None, &Options::serial())
}

/// [`decompose_balsep`] with an explicit engine configuration (worker
/// count for the parallel separator scan and component subtasks).
pub fn decompose_balsep_opts(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
    cfg: &BalsepConfig,
    opts: &Options,
) -> SearchResult {
    run_search(h, k, budget, cfg, None, opts)
}

/// The *hybrid* strategy sketched in the paper's future work (§7) and
/// realized by the Gottlob–Okulmus–Pichler follow-up: apply the balanced
/// separator recursion only down to `depth_limit` to split a large
/// hypergraph into small components, then let the (subedge-aware) detk
/// engine finish each component. Combines BalSep's fast splitting with
/// detk's fast endgame.
pub fn decompose_hybrid(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
    cfg: &BalsepConfig,
    depth_limit: usize,
) -> SearchResult {
    run_search(h, k, budget, cfg, Some(depth_limit), &Options::serial())
}

/// [`decompose_hybrid`] with an explicit engine configuration.
pub fn decompose_hybrid_opts(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
    cfg: &BalsepConfig,
    depth_limit: usize,
    opts: &Options,
) -> SearchResult {
    run_search(h, k, budget, cfg, Some(depth_limit), opts)
}

fn run_search(
    h: &Hypergraph,
    k: usize,
    budget: &Budget,
    cfg: &BalsepConfig,
    hybrid_depth: Option<usize>,
    opts: &Options,
) -> SearchResult {
    if h.num_edges() == 0 {
        return SearchResult::Found(Decomposition::new(BitSet::new(), Vec::new()));
    }
    if k == 0 {
        return SearchResult::NotFound;
    }
    let cx = Arc::new(SearchCtx::new(h, k, cfg.clone(), hybrid_depth));
    let ext: Vec<XEdge> = h.edge_ids().map(XEdge::Regular).collect();
    let jobs = opts.effective_jobs();
    let outcome = if jobs > 1 {
        crate::parallel::run_pool(jobs, |pool| {
            Walker::new(Arc::clone(&cx), budget.clone(), Some(pool)).solve_root(&ext)
        })
    } else {
        Walker::new(Arc::clone(&cx), budget.clone(), None).decompose(&ext, 0)
    };
    match outcome {
        Ok(Some(xtree)) => SearchResult::Found(xtree.into_decomposition()),
        Ok(None) => {
            if cx.subedges_capped.load(Ordering::Relaxed) || !cfg.use_subedges {
                SearchResult::NotFoundUncertified
            } else {
                SearchResult::NotFound
            }
        }
        Err(Stopped) => SearchResult::Stopped,
    }
}

/// An edge of an extended subhypergraph: a regular edge of `H` or a special
/// edge (an ancestor bag). Special edges are shared across workers
/// (`Arc`): child subtasks of one separator all reference the same bag.
#[derive(Clone)]
enum XEdge {
    Regular(EdgeId),
    Special(Arc<BitSet>),
}

impl XEdge {
    fn vertices<'a>(&'a self, h: &'a Hypergraph) -> &'a BitSet {
        match self {
            XEdge::Regular(e) => h.edge_set(*e),
            XEdge::Special(s) => s,
        }
    }
}

/// Cover of an internal tree node: regular atoms or a single special edge.
#[derive(Clone)]
enum XCover {
    Atoms(Vec<CoverAtom>),
    Special(Arc<BitSet>),
}

struct XNode {
    bag: BitSet,
    cover: XCover,
    children: Vec<usize>,
    parent: Option<usize>,
}

/// Internal tree able to carry special-edge leaves during assembly.
struct XTree {
    nodes: Vec<XNode>,
    root: usize,
}

impl XTree {
    fn new(bag: BitSet, cover: XCover) -> XTree {
        XTree {
            nodes: vec![XNode {
                bag,
                cover,
                children: Vec::new(),
                parent: None,
            }],
            root: 0,
        }
    }

    fn add_child(&mut self, parent: usize, bag: BitSet, cover: XCover) -> usize {
        let id = self.nodes.len();
        self.nodes.push(XNode {
            bag,
            cover,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Finds a node whose cover is `Special(s)` for the given vertex set.
    fn find_special(&self, s: &BitSet) -> Option<usize> {
        self.nodes.iter().position(|n| match &n.cover {
            XCover::Special(sp) => sp.as_ref() == s,
            _ => false,
        })
    }

    /// Re-roots in place at `new_root`.
    fn reroot(&mut self, new_root: usize) {
        let mut path = Vec::new();
        let mut cur = Some(new_root);
        while let Some(u) = cur {
            path.push(u);
            cur = self.nodes[u].parent;
        }
        for w in path.windows(2) {
            let (child, parent) = (w[0], w[1]);
            self.nodes[parent].children.retain(|&c| c != child);
            self.nodes[child].children.push(parent);
            self.nodes[parent].parent = Some(child);
        }
        self.nodes[new_root].parent = None;
        self.root = new_root;
    }

    /// Grafts the subtree of `other` rooted at `other_id` under `parent`.
    fn graft(&mut self, parent: usize, other: &XTree, other_id: usize) {
        let o = &other.nodes[other_id];
        let here = self.add_child(parent, o.bag.clone(), o.cover.clone());
        for &c in &o.children {
            self.graft(here, other, c);
        }
    }

    /// Grafts a plain [`Decomposition`] subtree (from the detk engine)
    /// under `parent`.
    fn graft_decomposition(&mut self, parent: usize, d: &Decomposition, node: crate::tree::NodeId) {
        let n = d.node(node);
        let here = self.add_child(parent, n.bag.clone(), XCover::Atoms(n.cover.clone()));
        for &c in &n.children {
            self.graft_decomposition(here, d, c);
        }
    }

    /// Converts into a public [`Decomposition`]. Panics if any special-edge
    /// node survived assembly (they must all be consumed at their creating
    /// level).
    fn into_decomposition(self) -> Decomposition {
        let root = self.root;
        let mut d = match &self.nodes[root].cover {
            XCover::Atoms(atoms) => Decomposition::new(self.nodes[root].bag.clone(), atoms.clone()),
            XCover::Special(_) => unreachable!("special edge at root after assembly"),
        };
        let mut stack: Vec<(usize, usize)> = self.nodes[root]
            .children
            .iter()
            .map(|&c| (c, d.root()))
            .collect();
        while let Some((x_id, d_parent)) = stack.pop() {
            let n = &self.nodes[x_id];
            let atoms = match &n.cover {
                XCover::Atoms(a) => a.clone(),
                XCover::Special(_) => {
                    unreachable!("special edge survived assembly")
                }
            };
            let here = d.add_child(d_parent, n.bag.clone(), atoms);
            for &c in &n.children {
                stack.push((c, here));
            }
        }
        d
    }
}

/// Canonical memo key of an extended subhypergraph: sorted regular edge
/// ids plus the special-edge bags in lexicographic order. The bags stay
/// behind their `Arc`s — the historical key re-boxed every bag into a
/// fresh `Box<[VertexId]>` on every lookup.
type ExtKey = (Box<[EdgeId]>, Box<[Arc<BitSet>]>);

/// The canonical (fingerprint, regulars, sorted specials) view of an
/// extended subhypergraph, built once per `decompose` call.
fn canonical_key(ext: &[XEdge]) -> (u64, Vec<EdgeId>, Vec<Arc<BitSet>>) {
    use std::hash::{Hash, Hasher};
    let mut regs: Vec<EdgeId> = Vec::new();
    let mut specials: Vec<Arc<BitSet>> = Vec::new();
    for x in ext {
        match x {
            XEdge::Regular(e) => regs.push(*e),
            XEdge::Special(s) => specials.push(Arc::clone(s)),
        }
    }
    regs.sort_unstable();
    specials.sort_by(|a, b| a.cmp_lex(b));
    let mut f = Fnv1a64::default();
    regs.hash(&mut f);
    specials.len().hash(&mut f);
    for s in &specials {
        s.hash(&mut f);
    }
    (f.finish(), regs, specials)
}

fn key_matches(stored: &ExtKey, regs: &[EdgeId], specials: &[Arc<BitSet>]) -> bool {
    stored.0.as_ref() == regs
        && stored.1.len() == specials.len()
        && stored
            .1
            .iter()
            .zip(specials)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a.as_ref() == b.as_ref())
}

/// Lazily computed `f(H,k)` table, grouped by parent edge.
enum SubedgeTable {
    Pending,
    Ready(Arc<HashMap<EdgeId, Vec<Arc<BitSet>>>>),
    Capped,
}

/// State shared by every worker of one BalSep search.
struct SearchCtx<'h> {
    h: &'h Hypergraph,
    k: usize,
    cfg: BalsepConfig,
    /// Extended subhypergraphs certified undecomposable — shared, so one
    /// worker's dead end prunes every other worker's search.
    fail_memo: ShardedMemo<ExtKey, ()>,
    subedges: Mutex<SubedgeTable>,
    subedges_capped: AtomicBool,
    /// `Some(d)`: switch to the detk engine below recursion depth `d`
    /// (the hybrid strategy).
    hybrid_depth: Option<usize>,
}

impl<'h> SearchCtx<'h> {
    fn new(
        h: &'h Hypergraph,
        k: usize,
        cfg: BalsepConfig,
        hybrid_depth: Option<usize>,
    ) -> SearchCtx<'h> {
        SearchCtx {
            h,
            k,
            cfg,
            fail_memo: ShardedMemo::new(),
            subedges: Mutex::new(SubedgeTable::Pending),
            subedges_capped: AtomicBool::new(false),
            hybrid_depth,
        }
    }
}

/// A solved child of one separator: a recursive BalSep subtree or a detk
/// decomposition (hybrid mode).
enum ChildTree {
    Bal(XTree),
    Detk(Decomposition),
}

/// One worker's view of the search: shared context plus private ticker
/// and scratch buffers.
struct Walker<'e, 'p> {
    cx: Arc<SearchCtx<'e>>,
    budget: Budget,
    ticker: Ticker,
    pool: Option<&'p WorkerCtx<'p, 'e>>,
    comp_scratch: ComponentScratch,
}

impl<'e, 'p> Walker<'e, 'p> {
    fn new(
        cx: Arc<SearchCtx<'e>>,
        budget: Budget,
        pool: Option<&'p WorkerCtx<'p, 'e>>,
    ) -> Walker<'e, 'p> {
        let ticker = Ticker::new(&budget);
        Walker {
            cx,
            budget,
            ticker,
            pool,
            comp_scratch: ComponentScratch::new(),
        }
    }

    /// Entry point: the speculative parallel separator scan over the root
    /// extended subhypergraph when a pool is attached, the ordinary
    /// recursion otherwise.
    fn solve_root(&mut self, ext: &'e [XEdge]) -> Result<Option<XTree>, Stopped> {
        match self.pool {
            Some(pool) if ext.len() > 2 => self.root_parallel(ext, pool),
            _ => self.decompose(ext, 0),
        }
    }

    /// Function `Decompose` of Algorithm 2 (any recursion depth).
    fn decompose(&mut self, ext: &[XEdge], depth: usize) -> Result<Option<XTree>, Stopped> {
        self.ticker.tick()?;

        // Base cases (lines 5–12).
        if ext.len() == 1 {
            let bag = ext[0].vertices(self.cx.h).clone();
            return Ok(Some(XTree::new(bag, cover_of(&ext[0]))));
        }
        if ext.len() == 2 {
            let b0 = ext[0].vertices(self.cx.h).clone();
            let b1 = ext[1].vertices(self.cx.h).clone();
            let mut t = XTree::new(b0, cover_of(&ext[0]));
            t.add_child(0, b1, cover_of(&ext[1]));
            return Ok(Some(t));
        }

        let (fp, regs, specials) = canonical_key(ext);
        if self
            .cx
            .fail_memo
            .get(fp, |k| key_matches(k, &regs, &specials))
            .is_some()
        {
            return Ok(None);
        }

        let scan = ScanFrame::new(self.cx.h, ext);

        // Stage 1: full-edge combinations; remember balanced ones.
        let mut balanced_full: Vec<Vec<EdgeId>> = Vec::new();
        let mut union = BitSet::with_capacity(self.cx.h.num_vertices());
        for combo_idx in CombinationsUpTo::new(scan.candidates.len(), self.cx.k) {
            self.ticker.tick()?;
            union.clear();
            let combo: Vec<EdgeId> = combo_idx.iter().map(|&i| scan.candidates[i]).collect();
            for &e in &combo {
                union.union_with(self.cx.h.edge_set(e));
            }
            let Some(comps) = self.balanced_components(&scan, &union) else {
                continue;
            };
            balanced_full.push(combo.clone());
            let cover: Vec<CoverAtom> = combo.iter().map(|&e| CoverAtom::Edge(e)).collect();
            if let Some(t) = self.try_separator(&scan, cover, &union, comps, depth)? {
                return Ok(Some(t));
            }
        }

        // Stage 2: substitute subedges into balanced full combinations.
        if self.cx.cfg.use_subedges && !balanced_full.is_empty() {
            if let Some(by_parent) = self.subedge_table()? {
                for combo in &balanced_full {
                    if let Some(t) = self.try_variants(&scan, combo, &by_parent, depth)? {
                        return Ok(Some(t));
                    }
                }
            }
        }

        // Certified exhaustion: memoize for every worker. The owned key
        // is built here, once — never on the lookup path.
        self.cx.fail_memo.insert(
            fp,
            (regs.into_boxed_slice(), specials.into_boxed_slice()),
            (),
        );
        Ok(None)
    }

    /// The speculative root scan: workers pull separator candidates from
    /// one shared iterator; the first completed witness cancels the rest.
    fn root_parallel(
        &mut self,
        ext: &'e [XEdge],
        pool: &'p WorkerCtx<'p, 'e>,
    ) -> Result<Option<XTree>, Stopped> {
        let cx = &self.cx;
        let scan = Arc::new(ScanFrame::new(cx.h, ext));
        let workers = pool.workers();

        // Stage 1: pull full-edge combinations in contiguous chunks.
        // Chunking matters beyond lock amortization: *adjacent*
        // combinations mostly produce the same child subproblems, and
        // the shared fail memo only dedups completed work — two workers
        // interleaving neighbouring combos would solve those children
        // concurrently, duplicating instead of pruning. A worker that
        // owns a contiguous run keeps the sharing (and the memo hits)
        // local to itself.
        let combos = Arc::new(Mutex::new(CombinationsUpTo::new(
            scan.candidates.len(),
            cx.k,
        )));
        let balanced: Arc<Mutex<Vec<Vec<EdgeId>>>> = Arc::new(Mutex::new(Vec::new()));
        let found: Arc<Mutex<Option<XTree>>> = Arc::new(Mutex::new(None));
        let (scan_budget, win) = self.budget.child_scope();
        let thunks: Vec<_> = (0..workers)
            .map(|_| {
                let cx = Arc::clone(cx);
                let scan = Arc::clone(&scan);
                let combos = Arc::clone(&combos);
                let balanced = Arc::clone(&balanced);
                let found = Arc::clone(&found);
                let budget = scan_budget.clone();
                let win = win.clone();
                move |ctx: &WorkerCtx<'_, 'e>| -> Result<(), Stopped> {
                    let mut w = Walker::new(cx, budget, Some(ctx));
                    let mut union = BitSet::with_capacity(w.cx.h.num_vertices());
                    let mut chunk: Vec<Vec<usize>> = Vec::with_capacity(SCAN_CHUNK);
                    loop {
                        {
                            let mut iter = combos.lock().expect("combo iterator");
                            chunk.clear();
                            chunk.extend(iter.by_ref().take(SCAN_CHUNK));
                        }
                        if chunk.is_empty() {
                            return Ok(());
                        }
                        for combo_idx in chunk.drain(..) {
                            w.ticker.tick()?;
                            union.clear();
                            let combo: Vec<EdgeId> =
                                combo_idx.iter().map(|&i| scan.candidates[i]).collect();
                            for &e in &combo {
                                union.union_with(w.cx.h.edge_set(e));
                            }
                            let Some(comps) = w.balanced_components(scan.as_ref(), &union) else {
                                continue;
                            };
                            balanced.lock().expect("balanced list").push(combo.clone());
                            let cover: Vec<CoverAtom> =
                                combo.iter().map(|&e| CoverAtom::Edge(e)).collect();
                            if let Some(t) =
                                w.try_separator(scan.as_ref(), cover, &union, comps, 0)?
                            {
                                *found.lock().expect("witness slot") = Some(t);
                                win.cancel();
                                return Ok(());
                            }
                        }
                    }
                }
            })
            .collect();
        let results = pool.fork_join(thunks);
        if let Some(t) = found.lock().expect("witness slot").take() {
            return Ok(Some(t));
        }
        // No witness: a stop here can only be the real budget (the win
        // scope never fired), so propagate it.
        if results.iter().any(|r| r.is_err()) {
            return Err(Stopped);
        }

        // Stage 2: distribute the balanced combinations for subedge
        // substitution.
        if !self.cx.cfg.use_subedges {
            return Ok(None);
        }
        // Every stage-1 clone of the Arc died with its thunk inside
        // fork_join; losing the list here would silently skip stage 2
        // and turn a "needs a subedge separator" instance into a wrong
        // certified NotFound — fail loudly instead.
        let balanced = Arc::new(
            Arc::try_unwrap(balanced)
                .unwrap_or_else(|_| panic!("balanced list still shared after stage-1 join"))
                .into_inner()
                .expect("balanced list"),
        );
        if balanced.is_empty() {
            return Ok(None);
        }
        if self.subedge_table()?.is_none() {
            return Ok(None);
        }
        let next = Arc::new(AtomicUsize::new(0));
        let found: Arc<Mutex<Option<XTree>>> = Arc::new(Mutex::new(None));
        let (scan_budget, win) = self.budget.child_scope();
        let thunks: Vec<_> = (0..workers)
            .map(|_| {
                let cx = Arc::clone(&self.cx);
                let scan = Arc::clone(&scan);
                let balanced = Arc::clone(&balanced);
                let next = Arc::clone(&next);
                let found = Arc::clone(&found);
                let budget = scan_budget.clone();
                let win = win.clone();
                move |ctx: &WorkerCtx<'_, 'e>| -> Result<(), Stopped> {
                    let mut w = Walker::new(cx, budget, Some(ctx));
                    let Some(by_parent) = w.subedge_table()? else {
                        return Ok(());
                    };
                    loop {
                        w.ticker.tick()?;
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(combo) = balanced.get(i) else {
                            return Ok(());
                        };
                        if let Some(t) = w.try_variants(scan.as_ref(), combo, &by_parent, 0)? {
                            *found.lock().expect("witness slot") = Some(t);
                            win.cancel();
                            return Ok(());
                        }
                    }
                }
            })
            .collect();
        let results = pool.fork_join(thunks);
        if let Some(t) = found.lock().expect("witness slot").take() {
            return Ok(Some(t));
        }
        if results.iter().any(|r| r.is_err()) {
            return Err(Stopped);
        }
        Ok(None)
    }

    /// Computes the `[union]`-components of the frame and keeps only
    /// balanced ones: no component may contain more than half of the
    /// frame's edges. Counting is over the component index lists — no
    /// vertex sets are cloned (or popcounted) to take a size.
    fn balanced_components(
        &mut self,
        scan: &ScanFrame<'_>,
        union: &BitSet,
    ) -> Option<SetComponents> {
        let comps = u_components_of_sets_with(
            &mut self.comp_scratch,
            self.cx.h.num_vertices(),
            &scan.sets,
            union,
        );
        let total = scan.sets.len();
        if comps.components.iter().any(|c| 2 * c.len() > total) {
            None
        } else {
            Some(comps)
        }
    }

    /// Lazily computes `f(H,k)` grouped by parent edge (shared; the first
    /// worker to need it computes it, the rest reuse it).
    #[allow(clippy::type_complexity)]
    fn subedge_table(&mut self) -> Result<Option<Arc<HashMap<EdgeId, Vec<Arc<BitSet>>>>>, Stopped> {
        {
            let table = self.cx.subedges.lock().expect("subedge table");
            match &*table {
                SubedgeTable::Ready(t) => return Ok(Some(Arc::clone(t))),
                SubedgeTable::Capped => return Ok(None),
                SubedgeTable::Pending => {}
            }
        }
        self.ticker.check_now()?;
        let mut table = self.cx.subedges.lock().expect("subedge table");
        // Double-checked: another worker may have filled it meanwhile.
        match &*table {
            SubedgeTable::Ready(t) => return Ok(Some(Arc::clone(t))),
            SubedgeTable::Capped => return Ok(None),
            SubedgeTable::Pending => {}
        }
        match global_subedges(self.cx.h, self.cx.k, &self.cx.cfg.subedge_cfg) {
            Ok(family) => {
                let mut map: HashMap<EdgeId, Vec<Arc<BitSet>>> = HashMap::new();
                for s in family {
                    map.entry(s.parent)
                        .or_default()
                        .push(Arc::new(s.to_bitset()));
                }
                let rc = Arc::new(map);
                *table = SubedgeTable::Ready(Arc::clone(&rc));
                Ok(Some(rc))
            }
            Err(_) => {
                *table = SubedgeTable::Capped;
                self.cx.subedges_capped.store(true, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Enumerates substitution variants of a balanced full combination:
    /// every member edge is replaced by itself or by one-or-more of its
    /// subedges, keeping the total number of atoms ≤ k. The all-full
    /// variant is skipped (stage 1 handled it).
    fn try_variants(
        &mut self,
        scan: &ScanFrame<'_>,
        combo: &[EdgeId],
        by_parent: &HashMap<EdgeId, Vec<Arc<BitSet>>>,
        depth: usize,
    ) -> Result<Option<XTree>, Stopped> {
        // Per-parent choices: the full edge, or a single subedge meeting the
        // scope. (Multi-subedge substitutions of the same parent are covered
        // by the smaller parent combination, which stage 1 also collected.)
        let h = self.cx.h;
        let mut choices: Vec<Vec<(CoverAtom, Arc<BitSet>)>> = Vec::with_capacity(combo.len());
        for &e in combo {
            let mut opts: Vec<(CoverAtom, Arc<BitSet>)> =
                vec![(CoverAtom::Edge(e), Arc::new(h.edge_set(e).clone()))];
            if let Some(subs) = by_parent.get(&e) {
                for s in subs {
                    if s.intersects(&scan.ext_vertices) {
                        opts.push((
                            CoverAtom::Subedge {
                                parent: e,
                                vertices: s.as_ref().clone(),
                            },
                            Arc::clone(s),
                        ));
                    }
                }
            }
            choices.push(opts);
        }

        let mut variants_tried: u64 = 0;
        let mut selection: Vec<usize> = vec![0; combo.len()];
        let mut union = BitSet::with_capacity(h.num_vertices());
        // Odometer enumeration over the choice product, skipping all-zeros.
        loop {
            // Advance odometer.
            let mut pos = 0;
            loop {
                if pos == selection.len() {
                    return Ok(None);
                }
                selection[pos] += 1;
                if selection[pos] < choices[pos].len() {
                    break;
                }
                selection[pos] = 0;
                pos += 1;
            }
            self.ticker.tick()?;
            variants_tried += 1;
            if variants_tried > self.cx.cfg.max_variants_per_combo {
                self.cx.subedges_capped.store(true, Ordering::Relaxed);
                return Ok(None);
            }

            union.clear();
            let mut cover: Vec<CoverAtom> = Vec::with_capacity(combo.len());
            for (i, &sel) in selection.iter().enumerate() {
                let (atom, verts) = &choices[i][sel];
                union.union_with(verts);
                cover.push(atom.clone());
            }
            // Re-check balance: trimming can unbalance a separator.
            let Some(comps) = self.balanced_components(scan, &union) else {
                continue;
            };
            if let Some(t) = self.try_separator(scan, cover, &union, comps, depth)? {
                return Ok(Some(t));
            }
        }
    }

    /// Lines 15–27 of Algorithm 2 plus Functions `ComputeSubhypergraphs`
    /// and `BuildGHD`: fix `B_u = B(λ) ∩ V(H'∪Sp)`, recurse on each
    /// `[B_u]`-component extended with the new special edge `B_u`, and glue.
    ///
    /// `comps` are the `[B(λ)]`-components already computed by the balance
    /// check — for sets inside the frame they coincide with the
    /// `[B_u]`-components, so they are not recomputed here.
    ///
    /// In hybrid mode, components below the depth limit that carry no
    /// inherited special edges are handed to the detk engine instead
    /// (connector = `B_u ∩ V(component)`), and their decompositions are
    /// grafted directly under `u`.
    fn try_separator(
        &mut self,
        scan: &ScanFrame<'_>,
        cover: Vec<CoverAtom>,
        union: &BitSet,
        comps: SetComponents,
        depth: usize,
    ) -> Result<Option<XTree>, Stopped> {
        crate::metrics::metrics().separators_tried.inc();
        // Empty-bag probes die without allocating — and `intersects`
        // short-circuits at the first overlapping block, so the common
        // non-empty case costs one block op, not a full popcount.
        if !union.intersects(&scan.ext_vertices) {
            return Ok(None);
        }
        let mut bag = union.clone();
        bag.intersect_with(&scan.ext_vertices);
        let special = Arc::new(bag.clone());
        let switch_to_detk = self
            .cx
            .hybrid_depth
            .map(|d| depth + 1 >= d)
            .unwrap_or(false);

        // Child problems: each component either goes to the detk engine
        // (hybrid, pure regular) or recurses with the new special edge.
        let mut problems: Vec<ProblemOwned> = Vec::with_capacity(comps.components.len());
        for comp in &comps.components {
            let regulars: Vec<EdgeId> = comp
                .iter()
                .filter_map(|&i| match &scan.ext[i] {
                    XEdge::Regular(e) => Some(*e),
                    XEdge::Special(_) => None,
                })
                .collect();
            let pure_regular = regulars.len() == comp.len();
            if switch_to_detk && pure_regular {
                let mut conn = self.cx.h.vertices_of_edges(&regulars);
                conn.intersect_with(&bag);
                problems.push(ProblemOwned::Detk {
                    regulars,
                    conn: conn.to_vec(),
                });
            } else {
                let mut child_ext: Vec<XEdge> = comp.iter().map(|&i| scan.ext[i].clone()).collect();
                child_ext.push(XEdge::Special(Arc::clone(&special)));
                problems.push(ProblemOwned::Bal { child_ext });
            }
        }

        let total_edges: usize = problems
            .iter()
            .map(|p| match p {
                ProblemOwned::Detk { regulars, .. } => regulars.len(),
                ProblemOwned::Bal { child_ext } => child_ext.len(),
            })
            .sum();

        let parallel = self.pool.filter(|_| {
            depth < FORK_MAX_DEPTH && problems.len() >= 2 && total_edges >= FORK_MIN_EDGES
        });
        let solved: Vec<Option<ChildTree>> = if let Some(pool) = parallel {
            let (child_budget, scope_cancel) = self.budget.child_scope();
            let thunks: Vec<_> = problems
                .into_iter()
                .map(|p| {
                    let cx = Arc::clone(&self.cx);
                    let budget = child_budget.clone();
                    let cancel = scope_cancel.clone();
                    move |ctx: &WorkerCtx<'_, 'e>| {
                        let mut w = Walker::new(cx, budget, Some(ctx));
                        let r = solve_problem(&mut w, p, depth);
                        if !matches!(r, Ok(Some(_))) {
                            // Fail fast: siblings of a failed (or stopped)
                            // component are wasted work.
                            cancel.cancel();
                        }
                        r
                    }
                })
                .collect();
            let results = pool.fork_join(thunks);
            let mut solved = Vec::with_capacity(results.len());
            let mut stopped = false;
            for r in results {
                match r {
                    Ok(Some(c)) => solved.push(Some(c)),
                    // A definite "no" is context-free: the separator
                    // fails regardless of why siblings wound down.
                    Ok(None) => return Ok(None),
                    Err(Stopped) => stopped = true,
                }
            }
            if stopped {
                // No child failed, so the stop came from the real budget
                // (or an enclosing scope whose owner is unwinding anyway).
                return Err(Stopped);
            }
            solved
        } else {
            let mut solved = Vec::with_capacity(problems.len());
            for p in problems {
                match solve_problem(self, p, depth)? {
                    Some(c) => solved.push(Some(c)),
                    None => return Ok(None),
                }
            }
            solved
        };

        // Assemble: root u = (bag, λ).
        let mut tree = XTree::new(bag.clone(), XCover::Atoms(cover));
        // Covered special edges of this call reappear as leaves under u.
        for &i in &comps.covered {
            if let XEdge::Special(s) = &scan.ext[i] {
                tree.add_child(0, s.as_ref().clone(), XCover::Special(Arc::clone(s)));
            }
        }
        for child in solved.into_iter().flatten() {
            match child {
                // Each child tree contains exactly one leafed occurrence
                // of the new special B_u: re-root there, then hang its
                // children under u.
                ChildTree::Bal(mut child) => {
                    let at = child
                        .find_special(&bag)
                        .expect("child decomposition must contain the new special edge");
                    child.reroot(at);
                    let kids: Vec<usize> = child.nodes[at].children.clone();
                    for c in kids {
                        tree.graft(0, &child, c);
                    }
                }
                // detk children hang directly under u: their root bags
                // cover the connector, which contains every vertex shared
                // with u.
                ChildTree::Detk(d) => tree.graft_decomposition(0, &d, d.root()),
            }
        }
        Ok(Some(tree))
    }
}

/// How many separator candidates one scan worker claims per pull — see
/// the chunking note in [`Walker::root_parallel`].
const SCAN_CHUNK: usize = 32;

/// One owned child problem of a separator, movable into a subtask.
enum ProblemOwned {
    Detk {
        regulars: Vec<EdgeId>,
        conn: Vec<u32>,
    },
    Bal {
        child_ext: Vec<XEdge>,
    },
}

/// Solves one child problem on a (possibly different) worker — the
/// free-function form [`Walker::try_separator`] boxes into subtasks.
///
/// A hybrid component goes to the detk engine twice at most: first with
/// full edges only, then, if that finds nothing, with local subedges. In
/// one search, a full-edge separator can lead into a node that only
/// subedges would finish, and detk's subedge phase there walks every
/// combination of its atom pool before the next full-edge separator gets
/// a turn (`random/q3` of the scale-0.05 corpus at k = 4: 125 846 atoms
/// at one node, a timeout where the full-edge pass answers yes in 5 ms).
/// The first pass uses only atoms the second also has, and a "no" is only
/// ever taken from the second, so every certified answer stays certified.
fn solve_problem<'e>(
    w: &mut Walker<'e, '_>,
    p: ProblemOwned,
    depth: usize,
) -> Result<Option<ChildTree>, Stopped> {
    match p {
        ProblemOwned::Detk { regulars, conn } => {
            let detk = |cfg| {
                crate::detk::decompose_component_in(
                    w.cx.h, w.cx.k, &w.budget, cfg, &regulars, &conn, w.pool,
                )
            };
            let outcome = match detk(None) {
                SearchResult::NotFound | SearchResult::NotFoundUncertified => {
                    detk(Some(&w.cx.cfg.subedge_cfg))
                }
                found_or_stopped => found_or_stopped,
            };
            match outcome {
                SearchResult::Found(d) => Ok(Some(ChildTree::Detk(d))),
                SearchResult::NotFound => Ok(None),
                SearchResult::NotFoundUncertified => {
                    w.cx.subedges_capped.store(true, Ordering::Relaxed);
                    Ok(None)
                }
                SearchResult::Stopped => Err(Stopped),
            }
        }
        ProblemOwned::Bal { child_ext } => {
            Ok(w.decompose(&child_ext, depth + 1)?.map(ChildTree::Bal))
        }
    }
}

/// Per-frame immutable scan state: the extended subhypergraph, its vertex
/// scope, the candidate separator edges and the per-member vertex sets.
struct ScanFrame<'a> {
    ext: &'a [XEdge],
    ext_vertices: BitSet,
    candidates: Vec<EdgeId>,
    sets: Vec<&'a BitSet>,
}

impl<'a> ScanFrame<'a> {
    fn new(h: &'a Hypergraph, ext: &'a [XEdge]) -> ScanFrame<'a> {
        let mut ext_vertices = BitSet::with_capacity(h.num_vertices());
        for x in ext {
            ext_vertices.union_with(x.vertices(h));
        }
        let candidates: Vec<EdgeId> = h
            .edge_ids()
            .filter(|&e| h.edge_set(e).intersects(&ext_vertices))
            .collect();
        let sets: Vec<&BitSet> = ext.iter().map(|x| x.vertices(h)).collect();
        ScanFrame {
            ext,
            ext_vertices,
            candidates,
            sets,
        }
    }
}

fn cover_of(x: &XEdge) -> XCover {
    match x {
        XEdge::Regular(e) => XCover::Atoms(vec![CoverAtom::Edge(*e)]),
        XEdge::Special(s) => XCover::Special(Arc::clone(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_ghd_with_width;
    use hyperbench_core::builder::hypergraph_from_edges;

    fn cfg() -> BalsepConfig {
        BalsepConfig::default()
    }

    fn check(h: &Hypergraph, k: usize) -> SearchResult {
        decompose_balsep(h, k, &Budget::unlimited(), &cfg())
    }

    #[test]
    fn acyclic_path() {
        let h = hypergraph_from_edges(&[
            ("e0", &["a", "b"]),
            ("e1", &["b", "c"]),
            ("e2", &["c", "d"]),
            ("e3", &["d", "e"]),
        ]);
        match check(&h, 1) {
            SearchResult::Found(d) => {
                validate_ghd_with_width(&h, &d, 1).unwrap();
            }
            other => panic!("expected GHD of width 1, got {other:?}"),
        }
    }

    #[test]
    fn triangle_no_at_1_yes_at_2() {
        let h =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        assert!(matches!(check(&h, 1), SearchResult::NotFound));
        match check(&h, 2) {
            SearchResult::Found(d) => validate_ghd_with_width(&h, &d, 2).unwrap(),
            other => panic!("expected GHD of width 2, got {other:?}"),
        }
    }

    #[test]
    fn larger_cycle() {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..8 {
            b.add_edge(
                &format!("e{i}"),
                &[format!("v{i}"), format!("v{}", (i + 1) % 8)],
            );
        }
        let h = b.build();
        assert!(matches!(check(&h, 1), SearchResult::NotFound));
        match check(&h, 2) {
            SearchResult::Found(d) => validate_ghd_with_width(&h, &d, 2).unwrap(),
            other => panic!("expected GHD of width 2, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_graph() {
        let h = hypergraph_from_edges(&[
            ("e0", &["a", "b"]),
            ("e1", &["b", "c"]),
            ("e2", &["x", "y"]),
        ]);
        match check(&h, 1) {
            SearchResult::Found(d) => validate_ghd_with_width(&h, &d, 1).unwrap(),
            other => panic!("expected GHD of width 1, got {other:?}"),
        }
    }

    #[test]
    fn single_and_double_edge() {
        let h1 = hypergraph_from_edges(&[("e", &["a", "b"])]);
        assert!(matches!(check(&h1, 1), SearchResult::Found(_)));
        let h2 = hypergraph_from_edges(&[("e", &["a", "b"]), ("f", &["b", "c"])]);
        match check(&h2, 1) {
            SearchResult::Found(d) => validate_ghd_with_width(&h2, &d, 1).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn without_subedges_no_is_uncertified() {
        let h =
            hypergraph_from_edges(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["c", "a"])]);
        let c = BalsepConfig {
            use_subedges: false,
            ..BalsepConfig::default()
        };
        assert!(matches!(
            decompose_balsep(&h, 1, &Budget::unlimited(), &c),
            SearchResult::NotFoundUncertified
        ));
    }

    #[test]
    fn timeout_reported() {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..12 {
            for j in (i + 1)..12 {
                b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
            }
        }
        let h = b.build();
        let budget = Budget::with_timeout(std::time::Duration::from_micros(1));
        assert!(matches!(
            decompose_balsep(&h, 3, &budget, &cfg()),
            SearchResult::Stopped
        ));
    }

    #[test]
    fn hybrid_agrees_with_balsep() {
        use crate::validate::validate_ghd_with_width;
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..10 {
            b.add_edge(
                &format!("e{i}"),
                &[format!("v{i}"), format!("v{}", (i + 1) % 10)],
            );
        }
        b.add_edge("chord", &["v0", "v5"]);
        let h = b.build();
        for depth in [0usize, 1, 2] {
            // hw of this graph is 2: the hybrid must agree at k=1 (no) and
            // k=2 (yes) for every switch depth.
            assert!(
                matches!(
                    decompose_hybrid(&h, 1, &Budget::unlimited(), &cfg(), depth),
                    SearchResult::NotFound
                ),
                "depth {depth}"
            );
            match decompose_hybrid(&h, 2, &Budget::unlimited(), &cfg(), depth) {
                SearchResult::Found(d) => validate_ghd_with_width(&h, &d, 2).unwrap(),
                other => panic!("depth {depth}: expected GHD, got {other:?}"),
            }
        }
    }

    #[test]
    fn hybrid_depth_zero_is_all_detk() {
        // With depth 0 every component after the first split goes to detk.
        let h = hypergraph_from_edges(&[
            ("e0", &["a", "b"]),
            ("e1", &["b", "c"]),
            ("e2", &["c", "d"]),
            ("e3", &["d", "e"]),
            ("e4", &["e", "a"]),
        ]);
        match decompose_hybrid(&h, 2, &Budget::unlimited(), &cfg(), 0) {
            SearchResult::Found(d) => crate::validate::validate_ghd_with_width(&h, &d, 2).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ghd_found_on_hypergraph_with_big_edges() {
        let h = hypergraph_from_edges(&[
            ("e1", &["a", "b", "c"]),
            ("e2", &["c", "d", "e"]),
            ("e3", &["e", "f", "a"]),
            ("e4", &["b", "d", "f"]),
        ]);
        match check(&h, 2) {
            SearchResult::Found(d) => validate_ghd_with_width(&h, &d, 2).unwrap(),
            other => panic!("expected GHD of width 2, got {other:?}"),
        }
    }

    #[test]
    fn parallel_agrees_with_serial() {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..9 {
            b.add_edge(
                &format!("e{i}"),
                &[format!("v{i}"), format!("v{}", (i + 1) % 9)],
            );
        }
        b.add_edge("chord1", &["v0", "v4"]);
        b.add_edge("chord2", &["v2", "v7"]);
        let h = b.build();
        let par = Options::with_jobs(3);
        for k in 1..=3usize {
            let serial = decompose_balsep(&h, k, &Budget::unlimited(), &cfg());
            let parallel = decompose_balsep_opts(&h, k, &Budget::unlimited(), &cfg(), &par);
            match (&serial, &parallel) {
                (SearchResult::Found(a), SearchResult::Found(bb)) => {
                    validate_ghd_with_width(&h, a, k).unwrap();
                    validate_ghd_with_width(&h, bb, k).unwrap();
                }
                (SearchResult::NotFound, SearchResult::NotFound) => {}
                other => panic!("serial/parallel disagree at k={k}: {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_hybrid_agrees_with_serial_hybrid() {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..10 {
            b.add_edge(
                &format!("e{i}"),
                &[format!("v{i}"), format!("v{}", (i + 1) % 10)],
            );
        }
        b.add_edge("chord", &["v0", "v5"]);
        let h = b.build();
        let par = Options::with_jobs(4);
        for depth in [1usize, 2] {
            for k in 1..=2usize {
                let s = decompose_hybrid(&h, k, &Budget::unlimited(), &cfg(), depth);
                let p = decompose_hybrid_opts(&h, k, &Budget::unlimited(), &cfg(), depth, &par);
                match (&s, &p) {
                    (SearchResult::Found(a), SearchResult::Found(bb)) => {
                        validate_ghd_with_width(&h, a, k).unwrap();
                        validate_ghd_with_width(&h, bb, k).unwrap();
                    }
                    (SearchResult::NotFound, SearchResult::NotFound) => {}
                    other => panic!("depth {depth}, k={k}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_timeout_stops_promptly() {
        let mut b = hyperbench_core::HypergraphBuilder::new();
        for i in 0..12 {
            for j in (i + 1)..12 {
                b.add_edge(&format!("e{i}_{j}"), &[format!("v{i}"), format!("v{j}")]);
            }
        }
        let h = b.build();
        let budget = Budget::with_timeout(std::time::Duration::from_millis(1));
        let r = decompose_balsep_opts(&h, 3, &budget, &cfg(), &Options::with_jobs(4));
        assert!(matches!(r, SearchResult::Stopped));
    }
}
