//! The CNF → d-DNNF knowledge compiler (paper §3.2.2).
//!
//! This is the workspace's stand-in for UCLA's c2d: exhaustive DPLL search
//! that records its trace as a d-DNNF circuit. The three classic ingredients
//! are all here:
//!
//! 1. **Unit propagation (BCP)** — implied literals become AND conjuncts;
//! 2. **Component decomposition** — when the residual clauses split into
//!    variable-disjoint parts, each part is compiled independently and the
//!    results conjoined (this is where quantum circuits' locality pays off);
//! 3. **Component caching** — residual components are memoized, so isomorphic
//!    sub-problems (e.g. repeated circuit layers) compile once.
//!
//! Branching follows a static [`VarOrder`]; the compile may take time
//! exponential in the worst case (the paper's RCS workloads), but the
//! compiled circuit is then reused across every simulation query.
//!
//! # Per-node cost
//!
//! Each search node costs roughly the size of its residual component:
//!
//! * **Occurrence-driven propagation.** BCP examines only clauses whose
//!   variables were just assigned, found through per-variable occurrence
//!   lists, and replays the order of an ascending full-pass scan: a clause
//!   touched above the scan cursor joins the current pass (a min-heap), one
//!   at or below it waits for the next pass. The seeds are the decision
//!   variable's occurrences, or every clause at the root.
//! * **Array union-find.** Components come from a union-find over variable
//!   indices with path halving; it and the clause grouping live in
//!   epoch-stamped arrays on the search state, so resetting them is O(1).
//!   One scan over a node's clause literals finds the open clauses and
//!   unions their unassigned variables; keys and branch variables then
//!   come from the open clauses and the variables the forest stamped.
//! * **Hashed exact keys.** A component's cache key is its ascending
//!   clause ids, a separator and its sorted unassigned variables (each
//!   once, as the forest stamps it), allocated to fit, hashed by a
//!   multiplicative hasher and compared exactly, so collisions cannot
//!   merge components.
//!
//! The search takes the same decisions in the same order as a plain DPLL
//! that rescans every clause of a component until a pass makes no
//! progress, so the compiled [`Nnf`] arena and the [`CompileStats`] counts
//! are identical to that reference (kept as a test-only oracle below).
//!
//! Three invariants make the shortcuts exact:
//!
//! * every component's clause list is ascending (the root's is `0..m`, and
//!   grouping preserves order), so a list is its own sorted key prefix;
//! * after a parent's propagation fixpoint, every clause of a child
//!   component is open or satisfied, and a component variable occurs
//!   outside the component only in satisfied clauses. A node's first pass
//!   can therefore only act on clauses of the decision variable, and
//!   occurrences outside the component never propagate;
//! * branching ranks are a permutation, so a component's lowest-rank
//!   variable is unique and does not depend on the order it is scanned in.

use crate::nnf::{Nnf, NnfBuilder, NnfId};
use crate::order::{compute_ranks_balanced, VarOrder, DEFAULT_SEPARATOR_BALANCE};
use qkc_cnf::{lit_sign, lit_var, Cnf, Lit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Decision-variable order.
    pub order: VarOrder,
    /// Enable component caching (disable only for ablation benchmarks).
    pub cache: bool,
    /// Bisection split fraction for [`VarOrder::MinCutSeparator`] (see
    /// [`compute_ranks_balanced`](crate::compute_ranks_balanced)); `0.5`
    /// is the balanced default.
    pub separator_balance: f64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            order: VarOrder::MinCutSeparator,
            cache: true,
            separator_balance: DEFAULT_SEPARATOR_BALANCE,
        }
    }
}

/// Statistics from one compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Number of decision branches explored.
    pub decisions: u64,
    /// Component-cache hits.
    pub cache_hits: u64,
    /// Components created (cache misses).
    pub components: u64,
    /// Wall time spent computing the variable order (min-cut ranks).
    pub order_seconds: f64,
    /// Wall time spent in the DPLL/d-DNNF exhaustive search itself.
    pub search_seconds: f64,
}

/// The result of compilation.
#[derive(Debug)]
pub struct Compiled {
    /// The d-DNNF circuit.
    pub nnf: Nnf,
    /// Search statistics.
    pub stats: CompileStats,
}

/// Compiles a CNF into d-DNNF.
///
/// # Examples
///
/// ```
/// use qkc_cnf::Cnf;
/// use qkc_knowledge::{compile, CompileOptions};
///
/// let mut f = Cnf::new(2);
/// f.add_clause(vec![1, 2]);
/// let compiled = compile(&f, &CompileOptions::default());
/// assert!(compiled.nnf.num_nodes() >= 3);
/// ```
pub fn compile(cnf: &Cnf, options: &CompileOptions) -> Compiled {
    // Deep recursion scales with variable count; run on a dedicated thread
    // with a generous stack so large circuits cannot overflow. The scope
    // lets that thread borrow the formula, and a panic inside it reaches
    // the caller with its original payload.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("qkc-compile".into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || compile_on_this_thread(cnf, options))
            .expect("spawn compiler thread")
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

fn compile_on_this_thread(cnf: &Cnf, options: &CompileOptions) -> Compiled {
    let order_start = std::time::Instant::now();
    let ranks = compute_ranks_balanced(cnf, options.order, options.separator_balance);
    let order_seconds = order_start.elapsed().as_secs_f64();
    let mut state = Dpll::new(cnf, ranks, options.cache);
    let all: Vec<u32> = (0..cnf.num_clauses() as u32).collect();
    let search_start = std::time::Instant::now();
    let root = state.solve(&all, None);
    state.stats.order_seconds = order_seconds;
    state.stats.search_seconds = search_start.elapsed().as_secs_f64();
    Compiled {
        nnf: state.builder.extract(root),
        stats: state.stats,
    }
}

/// Ascending ids of the clauses each variable occurs in.
fn build_occurs(cnf: &Cnf) -> Vec<Vec<u32>> {
    let mut occurs = vec![Vec::new(); cnf.num_vars() + 1];
    for (ci, c) in cnf.clauses().iter().enumerate() {
        for &l in c {
            occurs[lit_var(l) as usize].push(ci as u32);
        }
    }
    occurs
}

/// Per-index marks cleared in O(1) by advancing an epoch.
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn new(len: usize) -> Self {
        Self {
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    /// Unmarks every index.
    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `i`; true if it was not marked before.
    #[inline]
    fn insert(&mut self, i: u32) -> bool {
        let s = &mut self.stamp[i as usize];
        let fresh = *s != self.epoch;
        *s = self.epoch;
        fresh
    }

    /// Unmarks `i` (0 is never a live epoch).
    #[inline]
    fn remove(&mut self, i: u32) {
        self.stamp[i as usize] = 0;
    }
}

/// A multiplicative word hasher for component keys. Keys are exact
/// `u32` slices, so the hash only has to spread them; a slice hashes as
/// its length and then its bytes in one `write`, eight at a time here.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // Fold the high bits down: the table indexes by the low bits.
        let h = self.0;
        (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (h >> 29)
    }
}

/// The component cache: exact key → compiled node.
type KeyMap = HashMap<Box<[u32]>, NnfId, BuildHasherDefault<KeyHasher>>;

struct Dpll<'a> {
    clauses: &'a [Vec<Lit>],
    occurs: Vec<Vec<u32>>,
    /// 0 unassigned, 1 true, -1 false (1-based variables).
    assign: Vec<i8>,
    /// Assigned variables, for undo.
    trail: Vec<u32>,
    /// Branching ranks, a permutation: the lowest-rank variable of any set
    /// is unique.
    ranks: Vec<u32>,
    builder: NnfBuilder,
    cache: KeyMap,
    use_cache: bool,
    stats: CompileStats,
    // Scratch reused by every node; each use finishes before recursing.
    /// BCP: clauses waiting in the current or next pass.
    queued: Marks,
    /// BCP: the current pass, lowest clause id first.
    pass: BinaryHeap<Reverse<u32>>,
    /// BCP: clauses touched at or below the scan cursor.
    next_pass: Vec<u32>,
    /// Union-find parent per variable, valid where `in_forest` is marked.
    parent: Vec<u32>,
    in_forest: Marks,
    /// Variables entered into the forest, in first-seen order.
    forest: Vec<u32>,
    /// Component slot per forest variable; roots that have one are marked
    /// in `grouped`.
    group_of: Vec<u32>,
    grouped: Marks,
    /// Open clauses of the node, each with its first unassigned variable.
    open: Vec<(u32, u32)>,
    /// Unassigned variables of the clause being scanned.
    clause_vars: Vec<u32>,
    /// Tallies per component slot, gathered before its key is allocated.
    slots: Vec<Slot>,
}

#[derive(Clone, Copy)]
struct Slot {
    clauses: u32,
    vars: u32,
    /// Lowest-rank variable seen so far.
    branch: u32,
}

/// A variable-disjoint component of a node's residual formula.
struct Component {
    /// The exact cache key: the component's ascending clause ids,
    /// `u32::MAX`, then its sorted unassigned variables.
    key: Vec<u32>,
    /// Number of clause ids at the front of `key`.
    num_clauses: usize,
    /// The lowest-rank unassigned variable.
    branch: u32,
}

enum ClauseStatus {
    Satisfied,
    Unit(Lit),
    Conflict,
    Open,
}

impl<'a> Dpll<'a> {
    fn new(cnf: &'a Cnf, ranks: Vec<u32>, use_cache: bool) -> Self {
        let num_vars = cnf.num_vars() + 1;
        debug_assert!(
            {
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] < w[1])
            },
            "branching ranks are a permutation"
        );
        Self {
            clauses: cnf.clauses(),
            occurs: build_occurs(cnf),
            assign: vec![0i8; num_vars],
            trail: Vec::new(),
            ranks,
            builder: NnfBuilder::new(),
            cache: KeyMap::default(),
            use_cache,
            stats: CompileStats::default(),
            queued: Marks::new(cnf.num_clauses()),
            pass: BinaryHeap::new(),
            next_pass: Vec::new(),
            parent: vec![0; num_vars],
            in_forest: Marks::new(num_vars),
            forest: Vec::new(),
            group_of: vec![0; num_vars],
            grouped: Marks::new(num_vars),
            open: Vec::new(),
            clause_vars: Vec::new(),
            slots: Vec::new(),
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        let a = self.assign[lit_var(l) as usize];
        if lit_sign(l) {
            a
        } else {
            -a
        }
    }

    fn clause_status(&self, ci: u32) -> ClauseStatus {
        let mut unassigned: Option<Lit> = None;
        let mut count = 0;
        for &l in &self.clauses[ci as usize] {
            match self.lit_value(l) {
                1 => return ClauseStatus::Satisfied,
                0 => {
                    count += 1;
                    unassigned = Some(l);
                }
                _ => {}
            }
        }
        match count {
            0 => ClauseStatus::Conflict,
            1 => ClauseStatus::Unit(unassigned.expect("one unassigned literal")),
            _ => ClauseStatus::Open,
        }
    }

    fn assign_lit(&mut self, l: Lit) {
        let v = lit_var(l);
        debug_assert_eq!(self.assign[v as usize], 0);
        self.assign[v as usize] = if lit_sign(l) { 1 } else { -1 };
        self.trail.push(v);
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail non-empty");
            self.assign[v as usize] = 0;
        }
    }

    /// Unit propagation over the component `clause_ids` after `decision`
    /// was assigned (`None` at the root, where every clause is a seed).
    /// Returns the implied literals in the order an ascending full-pass
    /// rescan would find them, or `Err(())` on conflict. Assignments stay
    /// on the trail either way; the caller undoes.
    fn bcp(&mut self, clause_ids: &[u32], decision: Option<u32>) -> Result<Vec<Lit>, ()> {
        self.queued.clear();
        self.pass.clear();
        self.next_pass.clear();
        let seeds = match decision {
            Some(v) => &self.occurs[v as usize][..],
            None => clause_ids,
        };
        for &ci in seeds {
            if self.queued.insert(ci) {
                self.pass.push(Reverse(ci));
            }
        }
        let mut implied = Vec::new();
        loop {
            let Some(Reverse(ci)) = self.pass.pop() else {
                if self.next_pass.is_empty() {
                    return Ok(implied);
                }
                self.pass.extend(self.next_pass.drain(..).map(Reverse));
                continue;
            };
            self.queued.remove(ci);
            let status = self.clause_status(ci);
            debug_assert!(
                matches!(status, ClauseStatus::Satisfied) || clause_ids.binary_search(&ci).is_ok(),
                "clause {ci} outside the component is not satisfied"
            );
            match status {
                ClauseStatus::Conflict => return Err(()),
                ClauseStatus::Unit(l) => {
                    self.assign_lit(l);
                    implied.push(l);
                    for &cj in &self.occurs[lit_var(l) as usize] {
                        // `ci` itself is now satisfied.
                        if cj != ci && self.queued.insert(cj) {
                            if cj > ci {
                                self.pass.push(Reverse(cj));
                            } else {
                                self.next_pass.push(cj);
                            }
                        }
                    }
                }
                ClauseStatus::Satisfied | ClauseStatus::Open => {}
            }
        }
    }

    /// Compiles the sub-formula given by `clause_ids` under the current
    /// assignment, just after `decision` was assigned.
    fn solve(&mut self, clause_ids: &[u32], decision: Option<u32>) -> NnfId {
        let mark = self.trail.len();
        let Ok(implied) = self.bcp(clause_ids, decision) else {
            self.undo_to(mark);
            return self.builder.false_id();
        };
        let mut conjuncts: Vec<NnfId> = implied.iter().map(|&l| self.builder.lit(l)).collect();

        for comp in self.components(clause_ids) {
            if self.use_cache {
                if let Some(&hit) = self.cache.get(&comp.key[..]) {
                    self.stats.cache_hits += 1;
                    conjuncts.push(hit);
                    continue;
                }
            }
            self.stats.components += 1;
            let id = self.branch(&comp.key[..comp.num_clauses], comp.branch);
            if self.use_cache {
                // Exactly sized: `components` allocates each key to fit.
                self.cache.insert(comp.key.into_boxed_slice(), id);
            }
            if id == self.builder.false_id() {
                self.undo_to(mark);
                return self.builder.false_id();
            }
            conjuncts.push(id);
        }
        let result = self.builder.and(conjuncts);
        self.undo_to(mark);
        result
    }

    /// Decides `v` and recurses into both phases of the component.
    fn branch(&mut self, comp: &[u32], v: u32) -> NnfId {
        self.stats.decisions += 1;
        let mut branches: Vec<NnfId> = Vec::with_capacity(2);
        for phase in [true, false] {
            let lit = if phase { v as Lit } else { -(v as Lit) };
            let mark = self.trail.len();
            self.assign_lit(lit);
            let sub = self.solve(comp, Some(v));
            self.undo_to(mark);
            let lit_node = self.builder.lit(lit);
            branches.push(self.builder.and([lit_node, sub]));
        }
        self.builder.or(branches[0], branches[1])
    }

    /// Union-find root of variable `x`, with path halving. A variable seen
    /// for the first time becomes a singleton and is recorded in `forest`.
    fn find(&mut self, mut x: u32) -> u32 {
        if self.in_forest.insert(x) {
            self.parent[x as usize] = x;
            self.forest.push(x);
            return x;
        }
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// The variable-disjoint components of the open clauses of
    /// `clause_ids` (after propagation every clause there is open or
    /// satisfied), ordered by their smallest clause id, each with its
    /// exact cache key and branch variable. One pass over the literals
    /// unions each open clause's unassigned variables; the rest runs over
    /// open clauses and their variables only.
    fn components(&mut self, clause_ids: &[u32]) -> Vec<Component> {
        let clauses = self.clauses;
        let mut open = std::mem::take(&mut self.open);
        let mut vars = std::mem::take(&mut self.clause_vars);
        open.clear();
        self.forest.clear();
        self.in_forest.clear();
        for &ci in clause_ids {
            vars.clear();
            let mut satisfied = false;
            for &l in &clauses[ci as usize] {
                match self.lit_value(l) {
                    1 => {
                        satisfied = true;
                        break;
                    }
                    0 => vars.push(lit_var(l)),
                    _ => {}
                }
            }
            if satisfied {
                continue;
            }
            debug_assert!(vars.len() >= 2, "clause {ci} is open after propagation");
            open.push((ci, vars[0]));
            let root = self.find(vars[0]);
            for &v in &vars[1..] {
                let r = self.find(v);
                if r != root {
                    // Hang the new tree under the accumulated one: a
                    // fresh variable then sits one step from the root.
                    self.parent[r as usize] = root;
                }
            }
        }
        self.clause_vars = vars;

        // A clause's variables enter the forest together, so components
        // first appear in `forest` in the order of their first clause:
        // numbering slots by first appearance orders them by clause id.
        self.grouped.clear();
        self.slots.clear();
        let forest = std::mem::take(&mut self.forest);
        for &v in &forest {
            let root = self.find(v);
            if self.grouped.insert(root) {
                self.group_of[root as usize] = self.slots.len() as u32;
                self.slots.push(Slot {
                    clauses: 0,
                    vars: 0,
                    branch: v,
                });
            }
            let slot = self.group_of[root as usize];
            self.group_of[v as usize] = slot;
            let tally = &mut self.slots[slot as usize];
            tally.vars += 1;
            if self.ranks[v as usize] < self.ranks[tally.branch as usize] {
                tally.branch = v;
            }
        }
        for &(_, v) in &open {
            self.slots[self.group_of[v as usize] as usize].clauses += 1;
        }

        let mut comps: Vec<Component> = self
            .slots
            .iter()
            .map(|t| Component {
                key: Vec::with_capacity((t.clauses + 1 + t.vars) as usize),
                num_clauses: t.clauses as usize,
                branch: t.branch,
            })
            .collect();
        for &(ci, v) in &open {
            comps[self.group_of[v as usize] as usize].key.push(ci);
        }
        for comp in &mut comps {
            comp.key.push(u32::MAX); // separator
        }
        for &v in &forest {
            comps[self.group_of[v as usize] as usize].key.push(v);
        }
        for comp in &mut comps {
            comp.key[comp.num_clauses + 1..].sort_unstable();
            debug_assert_eq!(comp.key.len(), comp.key.capacity());
        }
        self.forest = forest;
        self.open = open;
        comps
    }
}

/// The original search, kept as the oracle the optimized one must match
/// exactly: BCP rescans the whole component until a pass makes no
/// progress, components come from a hash-map union-find, and cache keys
/// are rebuilt by sorting.
#[cfg(test)]
mod reference {
    use super::{ClauseStatus, CompileOptions, CompileStats, Compiled};
    use crate::nnf::{NnfBuilder, NnfId};
    use crate::order::compute_ranks_balanced;
    use qkc_cnf::{lit_sign, lit_var, Cnf, Lit};
    use std::collections::HashMap;

    pub fn compile(cnf: &Cnf, options: &CompileOptions) -> Compiled {
        let mut state = Naive {
            clauses: cnf.clauses().to_vec(),
            assign: vec![0i8; cnf.num_vars() + 1],
            trail: Vec::new(),
            ranks: compute_ranks_balanced(cnf, options.order, options.separator_balance),
            builder: NnfBuilder::new(),
            cache: HashMap::new(),
            use_cache: options.cache,
            stats: CompileStats::default(),
        };
        let all: Vec<u32> = (0..cnf.num_clauses() as u32).collect();
        let root = state.solve(&all);
        Compiled {
            nnf: state.builder.extract(root),
            stats: state.stats,
        }
    }

    struct Naive {
        clauses: Vec<Vec<Lit>>,
        assign: Vec<i8>,
        trail: Vec<u32>,
        ranks: Vec<u32>,
        builder: NnfBuilder,
        cache: HashMap<Box<[u32]>, NnfId>,
        use_cache: bool,
        stats: CompileStats,
    }

    impl Naive {
        fn lit_value(&self, l: Lit) -> i8 {
            let a = self.assign[lit_var(l) as usize];
            if lit_sign(l) {
                a
            } else {
                -a
            }
        }

        fn clause_status(&self, ci: u32) -> ClauseStatus {
            let mut unassigned: Option<Lit> = None;
            let mut count = 0;
            for &l in &self.clauses[ci as usize] {
                match self.lit_value(l) {
                    1 => return ClauseStatus::Satisfied,
                    0 => {
                        count += 1;
                        unassigned = Some(l);
                    }
                    _ => {}
                }
            }
            match count {
                0 => ClauseStatus::Conflict,
                1 => ClauseStatus::Unit(unassigned.expect("one unassigned literal")),
                _ => ClauseStatus::Open,
            }
        }

        fn assign_lit(&mut self, l: Lit) {
            self.assign[lit_var(l) as usize] = if lit_sign(l) { 1 } else { -1 };
            self.trail.push(lit_var(l));
        }

        fn undo_to(&mut self, mark: usize) {
            while self.trail.len() > mark {
                let v = self.trail.pop().expect("trail non-empty");
                self.assign[v as usize] = 0;
            }
        }

        fn bcp(&mut self, clause_ids: &[u32]) -> Result<Vec<Lit>, ()> {
            let mut implied = Vec::new();
            loop {
                let mut progressed = false;
                for &ci in clause_ids {
                    match self.clause_status(ci) {
                        ClauseStatus::Conflict => return Err(()),
                        ClauseStatus::Unit(l) => {
                            self.assign_lit(l);
                            implied.push(l);
                            progressed = true;
                        }
                        _ => {}
                    }
                }
                if !progressed {
                    return Ok(implied);
                }
            }
        }

        fn solve(&mut self, clause_ids: &[u32]) -> NnfId {
            let mark = self.trail.len();
            let Ok(implied) = self.bcp(clause_ids) else {
                self.undo_to(mark);
                return self.builder.false_id();
            };
            let mut conjuncts: Vec<NnfId> = implied.iter().map(|&l| self.builder.lit(l)).collect();
            let active: Vec<u32> = clause_ids
                .iter()
                .copied()
                .filter(|&ci| matches!(self.clause_status(ci), ClauseStatus::Open))
                .collect();
            for comp in self.components(&active) {
                let key = self.use_cache.then(|| self.cache_key(&comp));
                if let Some(k) = &key {
                    if let Some(&hit) = self.cache.get(k) {
                        self.stats.cache_hits += 1;
                        conjuncts.push(hit);
                        continue;
                    }
                }
                self.stats.components += 1;
                let id = self.branch(&comp);
                if let Some(k) = key {
                    self.cache.insert(k, id);
                }
                if id == self.builder.false_id() {
                    self.undo_to(mark);
                    return self.builder.false_id();
                }
                conjuncts.push(id);
            }
            let result = self.builder.and(conjuncts);
            self.undo_to(mark);
            result
        }

        fn branch(&mut self, comp: &[u32]) -> NnfId {
            let v = comp
                .iter()
                .flat_map(|&ci| self.clauses[ci as usize].iter())
                .filter(|&&l| self.lit_value(l) == 0)
                .map(|&l| lit_var(l))
                .min_by_key(|&v| self.ranks[v as usize])
                .expect("open component has unassigned variables");
            self.stats.decisions += 1;
            let mut branches: Vec<NnfId> = Vec::with_capacity(2);
            for lit in [v as Lit, -(v as Lit)] {
                let mark = self.trail.len();
                self.assign_lit(lit);
                let sub = self.solve(comp);
                self.undo_to(mark);
                let lit_node = self.builder.lit(lit);
                branches.push(self.builder.and([lit_node, sub]));
            }
            self.builder.or(branches[0], branches[1])
        }

        fn components(&self, active: &[u32]) -> Vec<Vec<u32>> {
            fn find(parent: &mut HashMap<u32, u32>, x: u32) -> u32 {
                let p = *parent.entry(x).or_insert(x);
                if p == x {
                    x
                } else {
                    let r = find(parent, p);
                    parent.insert(x, r);
                    r
                }
            }
            let mut parent: HashMap<u32, u32> = HashMap::new();
            for &ci in active {
                let mut prev: Option<u32> = None;
                for &l in &self.clauses[ci as usize] {
                    if self.lit_value(l) != 0 {
                        continue;
                    }
                    let v = lit_var(l);
                    if let Some(p) = prev {
                        let (ra, rb) = (find(&mut parent, p), find(&mut parent, v));
                        if ra != rb {
                            parent.insert(ra, rb);
                        }
                    }
                    prev = Some(v);
                }
            }
            let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
            for &ci in active {
                let rep = self.clauses[ci as usize]
                    .iter()
                    .find(|&&l| self.lit_value(l) == 0)
                    .map(|&l| find(&mut parent, lit_var(l)))
                    .expect("open clause has an unassigned literal");
                groups.entry(rep).or_default().push(ci);
            }
            let mut comps: Vec<Vec<u32>> = groups.into_values().collect();
            comps.sort_by_key(|c| c[0]);
            comps
        }

        fn cache_key(&self, comp: &[u32]) -> Box<[u32]> {
            let mut key: Vec<u32> = comp.to_vec();
            key.sort_unstable();
            let mut vars: Vec<u32> = comp
                .iter()
                .flat_map(|&ci| self.clauses[ci as usize].iter())
                .filter(|&&l| self.lit_value(l) == 0)
                .map(|&l| lit_var(l))
                .collect();
            vars.sort_unstable();
            vars.dedup();
            key.push(u32::MAX);
            key.extend(vars);
            key.into_boxed_slice()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate, AcWeights};
    use qkc_math::{Complex, C_ONE};

    /// Unweighted model count via the compiled circuit. Toy formulas (unlike
    /// circuit encodings) can leave variables branch-locally free, so we
    /// smooth over every variable before counting.
    fn model_count(cnf: &Cnf, options: &CompileOptions) -> f64 {
        let compiled = compile(cnf, options);
        let groups: Vec<Vec<Lit>> = (1..=cnf.num_vars() as i32).map(|v| vec![v, -v]).collect();
        let smoothed = crate::transform::smooth(&compiled.nnf, &groups);
        let weights = AcWeights::uniform(cnf.num_vars());
        evaluate(&smoothed, &weights).re
    }

    fn brute_force_count(cnf: &Cnf) -> f64 {
        let n = cnf.num_vars();
        let mut count = 0u64;
        for mask in 0..1u64 << n {
            let a: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            if cnf.is_satisfied_by(&a) {
                count += 1;
            }
        }
        count as f64
    }

    /// Every order × cache combination.
    fn all_options() -> impl Iterator<Item = CompileOptions> {
        [VarOrder::Lexicographic, VarOrder::MinCutSeparator]
            .into_iter()
            .flat_map(|order| {
                [true, false].map(|cache| CompileOptions {
                    order,
                    cache,
                    ..Default::default()
                })
            })
    }

    /// The search must reproduce the reference arena node for node, and
    /// its decision, component and cache-hit counts.
    fn assert_matches_reference(cnf: &Cnf) {
        for options in all_options() {
            let got = compile(cnf, &options);
            let want = reference::compile(cnf, &options);
            assert_eq!(got.nnf.nodes(), want.nnf.nodes(), "{options:?}");
            assert_eq!(got.nnf.root(), want.nnf.root(), "{options:?}");
            let counts = |s: &CompileStats| (s.decisions, s.components, s.cache_hits);
            assert_eq!(counts(&got.stats), counts(&want.stats), "{options:?}");
        }
    }

    fn check_count(cnf: &Cnf) {
        assert_matches_reference(cnf);
        let want = brute_force_count(cnf);
        for options in all_options() {
            let got = model_count(cnf, &options);
            assert!((got - want).abs() < 1e-6, "{options:?}: {got} vs {want}");
        }
    }

    #[test]
    fn counts_simple_formulas() {
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, 2]);
        check_count(&f); // 3 models

        let mut g = Cnf::new(3);
        g.add_clause(vec![1, 2]);
        g.add_clause(vec![-2, 3]);
        check_count(&g);

        let mut h = Cnf::new(4);
        h.add_clause(vec![1, 2]);
        h.add_clause(vec![3, 4]);
        h.add_clause(vec![-1, -3]);
        check_count(&h);
    }

    #[test]
    fn counts_xor_chain() {
        // XOR chains are the hard case for naive enumeration but have
        // compact d-DNNFs under a good order.
        let n = 8;
        let mut f = Cnf::new(n);
        for v in 1..n as i32 {
            f.add_clause(vec![v, v + 1]);
            f.add_clause(vec![-v, -(v + 1)]);
        }
        check_count(&f); // exactly 2 models
    }

    #[test]
    fn unsatisfiable_formula_compiles_to_false() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        f.add_clause(vec![-1]);
        let c = compile(&f, &CompileOptions::default());
        let w = AcWeights::uniform(1);
        assert_eq!(evaluate(&c.nnf, &w), qkc_math::C_ZERO);
    }

    #[test]
    fn weighted_count_with_complex_weights() {
        // f = (v1) ∧ (v2 ∨ v3): WMC = w(+1)·[w(+2)w(+3)+w(+2)w(-3)+w(-2)w(+3)]
        let mut f = Cnf::new(3);
        f.add_clause(vec![1]);
        f.add_clause(vec![2, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = crate::transform::smooth(&c.nnf, &groups);
        let mut w = AcWeights::uniform(3);
        w.set(1, Complex::imag(1.0), C_ONE);
        w.set(2, Complex::real(0.5), C_ONE);
        w.set(3, Complex::real(2.0), Complex::real(3.0));
        // models over (2,3): (T,T)=1.0, (T,F)=1.5, (F,T)=2.0 → 4.5 · i
        let got = evaluate(&nnf, &w);
        assert!(got.approx_eq(Complex::imag(4.5), 1e-12));
    }

    #[test]
    fn cache_hits_on_repeated_structure() {
        // Two independent identical sub-formulas over different variables
        // do NOT share cache entries (different vars), but a chain revisited
        // under equal assignments does. Check the machinery runs and both
        // orders agree on a medium formula.
        let n = 12;
        let mut f = Cnf::new(n);
        for v in 1..n as i32 {
            f.add_clause(vec![-v, v + 1]);
        }
        f.add_clause(vec![1, -(n as i32)]);
        check_count(&f);
        let c = compile(&f, &CompileOptions::default());
        assert!(c.stats.decisions > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn random_3cnf_counts_match_brute_force(
            seed_clauses in proptest::collection::vec(
                (1u32..8, 1u32..8, 1u32..8, proptest::bits::u8::ANY),
                1..14,
            ),
        ) {
            let mut f = Cnf::new(8);
            for (a, b, c, signs) in seed_clauses {
                let mut clause: Vec<Lit> = Vec::new();
                for (i, v) in [a, b, c].into_iter().enumerate() {
                    let l = if (signs >> i) & 1 == 1 { v as Lit } else { -(v as Lit) };
                    if !clause.contains(&l) && !clause.contains(&-l) {
                        clause.push(l);
                    }
                }
                if !clause.is_empty() {
                    f.add_clause(clause);
                }
            }
            let want = brute_force_count(&f);
            if want == 0.0 {
                // UNSAT: circuit must evaluate to 0.
                assert_matches_reference(&f);
                let c = compile(&f, &CompileOptions::default());
                let w = AcWeights::uniform(8);
                proptest::prop_assert!(evaluate(&c.nnf, &w).approx_zero(1e-9));
            } else {
                check_count(&f);
            }
        }

        /// Longer formulas with more propagation, several components per
        /// node and raw clauses (repeated and complementary literals kept)
        /// against the reference search.
        #[test]
        fn random_formulas_compile_to_the_reference_arena(
            raw in proptest::collection::vec(
                (1u32..17, 1u32..17, 0u32..17, proptest::bits::u8::ANY),
                4..48,
            ),
        ) {
            let mut f = Cnf::new(16);
            for (a, b, c, signs) in raw {
                let clause: Vec<Lit> = [a, b, c]
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, v)| v != 0)
                    .map(|(i, v)| if (signs >> i) & 1 == 1 { v as Lit } else { -(v as Lit) })
                    .collect();
                f.add_clause(clause);
            }
            assert_matches_reference(&f);
        }
    }
}
