//! Algorithm L applied to **cube extraction** — the paper's concluding
//! generality claim, completed.
//!
//! §6: "Thus we have successfully developed parallel algorithms for the
//! minimum-weighted rectangle cover problem", applicable to any
//! optimization formulated as a rectangle cover. Kernel extraction
//! covers the co-kernel cube matrix; *cube* extraction covers the
//! cube–literal matrix. This module transplants the L-shaped scheme onto
//! the second formulation:
//!
//! * rows = network cubes, owned by the processor owning the node;
//! * columns = literals; ownership is distributed greedily first-seen,
//!   exactly like kernel-cube ownership in §5.1;
//! * the overlap: each processor keeps its own rows and receives the
//!   foreign rows that contain literals it owns (restricted to those
//!   literals it can see in full rows — the cube itself travels, the
//!   search is limited to common cubes within owned literals);
//! * concurrent extraction uses the same FREE/COVERED/DIVIDED protocol
//!   over *row cubes*: a processor speculatively covers the rows of its
//!   best common cube; rows covered by another processor are worth 0;
//! * cross-partition rows are shipped to their owner, which rewrites
//!   the cube `c → (c \ C)·X` if the cube is still present (the analogue
//!   of the §5.3 re-check: a vanished cube is simply dropped).

use crate::mailbox::{Mailboxes, Step};
use crate::merge::{merge_worker_results, NewNode, WorkerResult};
use crate::report::{ExtractReport, PhaseTiming};
use parking_lot::Mutex;
use pf_kcmatrix::registry::ConcurrentCubeStates;
use pf_kcmatrix::{CubeLitMatrix, CubeRegistry, ProcId};
use pf_network::{Network, SignalId};
use pf_partition::{partition_network, PartitionConfig};
use pf_sop::fx::FxHashMap;
use pf_sop::{Cube, Lit, Sop};
use std::time::Instant;

/// Options for [`lshaped_extract_cubes`].
#[derive(Clone, Debug)]
pub struct LShapedCxConfig {
    /// Number of partitions / processors.
    pub procs: usize,
    /// Partitioner options.
    pub partition: PartitionConfig,
    /// Pairwise candidate budget per search.
    pub max_pairs: usize,
    /// Hard cap on extractions per processor.
    pub max_extractions: usize,
    /// Run round-robin on the calling thread (deterministic) instead of
    /// threaded.
    pub sequential: bool,
}

impl Default for LShapedCxConfig {
    fn default() -> Self {
        LShapedCxConfig {
            procs: 2,
            partition: PartitionConfig::default(),
            max_pairs: 1 << 20,
            max_extractions: usize::MAX,
            sequential: false,
        }
    }
}

/// A row shipped to the owner of its node: rewrite `cube` to
/// `(cube \ common)·x` if still present.
#[derive(Clone, Debug)]
struct ShippedCubeRow {
    node: SignalId,
    cube: Cube,
}

#[derive(Clone, Debug)]
struct ShippedCommonCube {
    x_var: u32,
    common: Cube,
    rows: Vec<ShippedCubeRow>,
}

struct CxWorker<'a> {
    pid: ProcId,
    /// Node functions this worker owns (part nodes + its new nodes).
    funcs: FxHashMap<u32, Sop>,
    /// Foreign rows visible through the L-shape overlap: `(node, cube)`
    /// of cubes containing literals this worker owns.
    foreign_rows: Vec<(SignalId, Cube)>,
    node_owner: &'a FxHashMap<SignalId, ProcId>,
    registry: &'a CubeRegistry,
    states: &'a ConcurrentCubeStates,
    transport: &'a Mailboxes<ShippedCommonCube>,
    cfg: &'a LShapedCxConfig,
    id_base: u32,
    new_nodes: Vec<(u32, String)>,
    rewritten: Vec<SignalId>,
    extractions: usize,
    total_value: i64,
    shipped: usize,
    dirty: bool,
    /// A release woke the other workers since this worker last made
    /// progress.
    woke_on_release: bool,
}

impl CxWorker<'_> {
    fn owns(&self, node: u32) -> bool {
        match self.node_owner.get(&node) {
            Some(&o) => o == self.pid,
            None => self.funcs.contains_key(&node),
        }
    }

    /// Builds this worker's current cube–literal matrix: own rows plus
    /// the still-live foreign overlap rows.
    fn build_matrix(&self) -> (CubeLitMatrix, Vec<(SignalId, Cube)>) {
        let mut m = CubeLitMatrix::new();
        let mut row_src: Vec<(SignalId, Cube)> = Vec::new();
        for (&node, func) in &self.funcs {
            for cube in func.iter() {
                if cube.len() < 2 {
                    continue;
                }
                m.add_node(node, &Sop::from_cube(cube.clone()));
                row_src.push((node, cube.clone()));
            }
        }
        for (node, cube) in &self.foreign_rows {
            let id = self.registry.lookup(*node, cube);
            let alive = id
                .is_none_or(|id| !matches!(self.states.state(id), pf_kcmatrix::CubeState::Divided));
            if alive {
                m.add_node(*node, &Sop::from_cube(cube.clone()));
                row_src.push((*node, cube.clone()));
            }
        }
        (m, row_src)
    }

    fn drain_queue(&mut self) -> bool {
        let mut any = false;
        while let Some(msg) = self.transport.pop(self.pid as usize) {
            self.apply_shipped(msg);
            self.transport.applied();
            any = true;
        }
        self.woke_on_release &= !any;
        any
    }

    fn apply_shipped(&mut self, msg: ShippedCommonCube) {
        let x_cube = Cube::single(pf_sop::Var::new(msg.x_var).lit());
        for row in &msg.rows {
            debug_assert!(self.owns(row.node));
            let Some(f) = self.funcs.get(&row.node).cloned() else {
                continue;
            };
            // §5.3 analogue: only rewrite what is still present.
            if !f.contains_cube(&row.cube) {
                continue;
            }
            let rewritten = row
                .cube
                .quotient(&msg.common)
                .and_then(|rest| rest.product(&x_cube));
            let Some(new_cube) = rewritten else { continue };
            let f_new = Sop::from_cubes(
                f.iter()
                    .filter(|c| *c != &row.cube)
                    .cloned()
                    .chain(std::iter::once(new_cube)),
            );
            self.funcs.insert(row.node, f_new);
            if self.node_owner.contains_key(&row.node) {
                self.rewritten.push(row.node);
            }
            if let Some(id) = self.registry.lookup(row.node, &row.cube) {
                self.states.mark_divided(id);
            }
            self.dirty = true;
        }
    }

    fn try_extract(&mut self) -> bool {
        if self.extractions >= self.cfg.max_extractions || !self.dirty {
            return false;
        }
        let (m, row_src) = self.build_matrix();
        // Value rows through the shared states: rows covered or divided
        // elsewhere are worthless. The CubeLitMatrix search itself is
        // state-blind, so filter afterwards and re-validate.
        let Some(best) = m.best_common_cube(self.cfg.max_pairs) else {
            self.dirty = false;
            return false;
        };
        // Claim the rows (by interned cube id); drop rows we cannot get.
        let mut kept: Vec<usize> = Vec::new();
        let mut claimed: Vec<pf_kcmatrix::CubeId> = Vec::new();
        for &r in &best.rows {
            let (node, cube) = &row_src[r];
            let id = self.registry.intern(*node, cube);
            self.states.ensure(self.registry.len());
            if self.states.claim(id, self.pid) {
                kept.push(r);
                claimed.push(id);
            }
        }
        let value = kept.len() as i64 * (best.cube.len() as i64 - 1) - best.cube.len() as i64;
        if value <= 0 {
            for &id in &claimed {
                self.states.release(id, self.pid);
            }
            // Another processor holds the overlap; try again later. The
            // release can raise a peer's value, so wake the others — once
            // per own progress: the search is state-blind, so two workers
            // whose best cubes stay blocked would otherwise wake each
            // other forever.
            if !claimed.is_empty() && !self.woke_on_release {
                self.woke_on_release = true;
                self.transport.wake_others(self.pid as usize);
            }
            return false;
        }

        // Commit: create X = common cube, rewrite own rows, ship others.
        let x_var = self.id_base + self.new_nodes.len() as u32;
        let name = format!("Lcx{}_{}", self.pid, self.new_nodes.len());
        self.new_nodes.push((x_var, name));
        self.funcs.insert(x_var, Sop::from_cube(best.cube.clone()));
        let x_cube = Cube::single(pf_sop::Var::new(x_var).lit());

        let mut foreign: FxHashMap<ProcId, Vec<ShippedCubeRow>> = FxHashMap::default();
        for (&r, &id) in kept.iter().zip(claimed.iter()) {
            let (node, cube) = row_src[r].clone();
            if self.owns(node) {
                let f = self.funcs[&node].clone();
                if !f.contains_cube(&cube) {
                    continue;
                }
                let Some(new_cube) = cube
                    .quotient(&best.cube)
                    .and_then(|rest| rest.product(&x_cube))
                else {
                    continue;
                };
                let f_new = Sop::from_cubes(
                    f.iter()
                        .filter(|c| *c != &cube)
                        .cloned()
                        .chain(std::iter::once(new_cube)),
                );
                self.funcs.insert(node, f_new);
                if self.node_owner.contains_key(&node) {
                    self.rewritten.push(node);
                }
                self.states.mark_divided(id);
            } else {
                let owner = self.node_owner[&node];
                foreign
                    .entry(owner)
                    .or_default()
                    .push(ShippedCubeRow { node, cube });
            }
        }
        // One-shot foreign rows, exactly like the kernel variant.
        self.foreign_rows.retain(|(node, cube)| {
            !foreign
                .values()
                .flatten()
                .any(|r| r.node == *node && &r.cube == cube)
        });
        for (owner, rows) in foreign {
            self.shipped += rows.len();
            self.transport.send(
                owner as usize,
                ShippedCommonCube {
                    x_var,
                    common: best.cube.clone(),
                    rows,
                },
            );
        }
        self.extractions += 1;
        self.total_value += value;
        self.dirty = true;
        self.woke_on_release = false;
        true
    }

    fn into_result(mut self) -> (WorkerResult, usize, i64, usize) {
        self.rewritten.sort_unstable();
        self.rewritten.dedup();
        let rewritten = self
            .rewritten
            .iter()
            .map(|&n| (n, self.funcs[&n].clone()))
            .collect();
        let new_nodes = self
            .new_nodes
            .iter()
            .map(|(id, name)| NewNode {
                worker_id: *id,
                name: name.clone(),
                func: self.funcs[id].clone(),
            })
            .collect();
        (
            WorkerResult {
                rewritten,
                new_nodes,
            },
            self.extractions,
            self.total_value,
            self.shipped,
        )
    }
}

/// Runs L-shaped parallel cube extraction on the network, in place.
pub fn lshaped_extract_cubes(nw: &mut Network, cfg: &LShapedCxConfig) -> ExtractReport {
    let start = Instant::now();
    let p = cfg.procs.max(1);
    let lc_before = nw.literal_count();

    let partition = partition_network(nw, p, &cfg.partition);
    let parts = partition.parts();
    let node_owner: FxHashMap<SignalId, ProcId> = parts
        .iter()
        .enumerate()
        .flat_map(|(pid, ns)| ns.iter().map(move |&n| (n, pid as ProcId)))
        .collect();

    // Literal ownership: greedy first-seen over processors in order —
    // the distribute_cube_ownership of §5.1, with literals as columns.
    let mut lit_owner: FxHashMap<Lit, ProcId> = FxHashMap::default();
    for (pid, part) in parts.iter().enumerate() {
        for &n in part {
            for cube in nw.func(n).iter() {
                for l in cube.iter() {
                    lit_owner.entry(l).or_insert(pid as ProcId);
                }
            }
        }
    }

    let registry = CubeRegistry::new();
    let states = ConcurrentCubeStates::new();
    states.ensure(1);
    let transport = Mailboxes::new(p);
    let block = 1_000_000u32;
    let id_base0 = (nw.num_signals() as u32 / block + 1) * block;

    let mut workers: Vec<CxWorker> = Vec::with_capacity(p);
    for (pid, part) in parts.iter().enumerate() {
        let mut funcs = FxHashMap::default();
        for &n in part {
            funcs.insert(n, nw.func(n).clone());
        }
        workers.push(CxWorker {
            pid: pid as ProcId,
            funcs,
            foreign_rows: Vec::new(),
            node_owner: &node_owner,
            registry: &registry,
            states: &states,
            transport: &transport,
            cfg,
            id_base: id_base0 + pid as u32 * block,
            new_nodes: Vec::new(),
            rewritten: Vec::new(),
            extractions: 0,
            total_value: 0,
            shipped: 0,
            dirty: true,
            woke_on_release: false,
        });
    }
    // Exchange: a cube containing a literal owned by processor j is
    // visible to j as an overlap row (the vertical leg).
    let mut overlaps: Vec<Vec<(SignalId, Cube)>> = vec![Vec::new(); p];
    for (pid, part) in parts.iter().enumerate() {
        for &n in part {
            for cube in nw.func(n).iter() {
                if cube.len() < 2 {
                    continue;
                }
                let mut sent_to: Vec<ProcId> = Vec::new();
                for l in cube.iter() {
                    let owner = lit_owner[&l];
                    if owner as usize != pid && !sent_to.contains(&owner) {
                        sent_to.push(owner);
                        overlaps[owner as usize].push((n, cube.clone()));
                    }
                }
            }
        }
    }
    for (w, rows) in workers.iter_mut().zip(overlaps) {
        w.foreign_rows = rows;
    }
    let setup_elapsed = start.elapsed();

    let results: Vec<(WorkerResult, usize, i64, usize)> = if cfg.sequential {
        loop {
            let mut progress = false;
            for w in &mut workers {
                progress |= w.drain_queue();
                progress |= w.try_extract();
            }
            if !progress && transport.all_empty() {
                break;
            }
        }
        workers.into_iter().map(CxWorker::into_result).collect()
    } else {
        type Done = (WorkerResult, usize, i64, usize);
        let out: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for mut w in workers {
                let out = &out;
                s.spawn(move || {
                    let pid = w.pid as usize;
                    let transport = w.transport;
                    transport.drive(
                        pid,
                        || false,
                        || {
                            if w.drain_queue() | w.try_extract() {
                                // Rows changed hands: a worker that lost a
                                // claim race (and so stayed dirty) retries.
                                transport.wake_others(pid);
                                Step::Progress
                            } else {
                                Step::Nothing
                            }
                        },
                    );
                    out.lock().push((pid, w.into_result()));
                });
            }
        });
        let mut v = out.into_inner();
        v.sort_by_key(|(pid, _)| *pid);
        v.into_iter().map(|(_, r)| r).collect()
    };
    let extract_elapsed = start.elapsed().saturating_sub(setup_elapsed);

    let mut extractions = 0;
    let mut total_value = 0;
    let mut shipped = 0;
    let mut worker_results = Vec::new();
    for (wr, e, v, s) in results {
        worker_results.push(wr);
        extractions += e;
        total_value += v;
        shipped += s;
    }
    let created = merge_worker_results(nw, worker_results).expect("L-cx merge");
    crate::merge::remove_dead_nodes(nw, &created);
    let elapsed = start.elapsed();
    let merge_elapsed = elapsed.saturating_sub(setup_elapsed + extract_elapsed);

    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        shipped_rectangles: shipped,
        setup: setup_elapsed,
        phases: vec![
            PhaseTiming::new("setup", setup_elapsed),
            PhaseTiming::new("extract", extract_elapsed),
            PhaseTiming::new("merge", merge_elapsed),
        ],
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    #[test]
    fn sequential_mode_extracts_shared_cubes() {
        // The example network shares the cube "de" across F and H.
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let r = lshaped_extract_cubes(
            &mut nw,
            &LShapedCxConfig {
                procs: 2,
                sequential: true,
                ..LShapedCxConfig::default()
            },
        );
        assert!(r.lc_after <= r.lc_before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn threaded_mode_preserves_function() {
        for procs in [2usize, 3] {
            let (mut nw, _) = example_1_1();
            let original = nw.clone();
            let r = lshaped_extract_cubes(
                &mut nw,
                &LShapedCxConfig {
                    procs,
                    sequential: false,
                    ..LShapedCxConfig::default()
                },
            );
            assert!(r.lc_after <= r.lc_before, "procs={procs}");
            assert!(
                equivalent_random(&original, &nw, &EquivConfig::default()).unwrap(),
                "procs={procs}"
            );
        }
    }

    #[test]
    fn single_proc_matches_plain_cube_extraction_quality() {
        let (mut a, _) = example_1_1();
        let ra = lshaped_extract_cubes(
            &mut a,
            &LShapedCxConfig {
                procs: 1,
                sequential: true,
                ..LShapedCxConfig::default()
            },
        );
        let (mut b, _) = example_1_1();
        let rb =
            crate::cx::extract_common_cubes(&mut b, &[], &crate::cx::CubeExtractConfig::default());
        assert_eq!(ra.lc_after, rb.lc_after);
    }

    #[test]
    fn cross_partition_cubes_are_found() {
        // Two nodes in different parts share the 3-literal cube abc; the
        // L overlap must still find it (Algorithm I on this matrix could
        // not — each part sees only one row).
        use pf_sop::Lit;
        let sop_of = |cubes: &[&[u32]]| {
            Sop::from_cubes(
                cubes
                    .iter()
                    .map(|cs| Cube::from_lits(cs.iter().map(|&v| Lit::pos(v)))),
            )
        };
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let c = nw.add_input("c").unwrap();
        let d = nw.add_input("d").unwrap();
        let e = nw.add_input("e").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, b, c, d]])).unwrap();
        let g = nw.add_node("g", sop_of(&[&[a, b, c, e], &[f, d]])).unwrap();
        nw.mark_output(g).unwrap();
        nw.mark_output(f).unwrap();
        let original = nw.clone();
        let r = lshaped_extract_cubes(
            &mut nw,
            &LShapedCxConfig {
                procs: 2,
                sequential: true,
                ..LShapedCxConfig::default()
            },
        );
        // abc in 2 rows: value = 2·2 − 3 = 1 ⇒ extracted.
        assert!(r.extractions >= 1, "cross-partition cube missed");
        assert!(r.lc_after < r.lc_before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }
}
