//! The independent oracle: plain adjacency lists and a plain BFS, with
//! no use of fg-graph traversal or fg-core query code.
//!
//! The healed image is exported node by node from a served snapshot;
//! the insert-only graph `G'` is rebuilt from the trace alone (initial
//! edges plus every insertion's attachments, deletions ignored). Served
//! answers are checked against BFS over the first, and the paper's
//! guarantees against BFS over both.

use fg_core::NetworkEvent;
use fg_graph::{FrozenCsr, Graph};
use fg_serve::{Request, ResponseBody};
use std::collections::HashMap;

pub const UNREACHED: u32 = u32::MAX;

/// An undirected graph as sorted adjacency lists over dense node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adj {
    alive: Vec<bool>,
    nbrs: Vec<Vec<u32>>,
}

impl Adj {
    fn with_nodes(n: usize, alive: bool) -> Adj {
        Adj {
            alive: vec![alive; n],
            nbrs: vec![Vec::new(); n],
        }
    }

    fn sort(mut self) -> Adj {
        for list in &mut self.nbrs {
            list.sort_unstable();
        }
        self
    }

    /// Exports a frozen snapshot side: its live nodes and their edges.
    pub fn from_csr(csr: &FrozenCsr) -> Adj {
        let mut adj = Adj::with_nodes(csr.nodes_ever(), false);
        for v in csr.iter() {
            adj.alive[v.index()] = true;
            adj.nbrs[v.index()] = csr.neighbors(v).map(|w| w.raw()).collect();
        }
        adj.sort()
    }

    /// Exports a live graph the same way.
    pub fn from_graph(g: &Graph) -> Adj {
        let mut adj = Adj::with_nodes(g.nodes_ever(), false);
        for v in g.iter() {
            adj.alive[v.index()] = true;
            adj.nbrs[v.index()] = g.neighbors(v).map(|w| w.raw()).collect();
        }
        adj.sort()
    }

    /// `G'` from the trace: `G_0`'s edges plus each insertion's
    /// attachments, the inserted node taking the next id. Every node
    /// ever seen stays (deleted nodes included).
    pub fn ghost_from_trace(initial: &Graph, events: &[NetworkEvent]) -> Adj {
        let inserts = events.iter().filter(|e| !e.is_delete()).count();
        let mut adj = Adj::with_nodes(initial.nodes_ever() + inserts, true);
        for v in initial.iter() {
            adj.nbrs[v.index()] = initial.neighbors(v).map(|w| w.raw()).collect();
        }
        let mut next = initial.nodes_ever();
        for event in events {
            if let NetworkEvent::Insert { neighbors } = event {
                for w in neighbors {
                    adj.nbrs[next].push(w.raw());
                    adj.nbrs[w.index()].push(next as u32);
                }
                next += 1;
            }
        }
        adj.sort()
    }

    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    pub fn alive(&self, v: u32) -> bool {
        self.alive.get(v as usize).copied().unwrap_or(false)
    }

    pub fn live(&self) -> Vec<u32> {
        (0..self.len() as u32).filter(|&v| self.alive(v)).collect()
    }

    pub fn degree(&self, v: u32) -> usize {
        self.nbrs.get(v as usize).map_or(0, Vec::len)
    }

    fn adjacent(&self, u: u32, v: u32) -> bool {
        self.nbrs
            .get(u as usize)
            .is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// Hop distances from `src` over live nodes ([`UNREACHED`] where
    /// there is no path; all unreached when `src` is not live).
    pub fn bfs(&self, src: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHED; self.len()];
        if !self.alive(src) {
            return dist;
        }
        dist[src as usize] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u as usize] + 1;
            for &w in &self.nbrs[u as usize] {
                if self.alive(w) && dist[w as usize] == UNREACHED {
                    dist[w as usize] = d;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// A component label per node (live nodes only; dead ones keep
    /// [`UNREACHED`]).
    pub fn components(&self) -> Vec<u32> {
        let mut label = vec![UNREACHED; self.len()];
        for s in 0..self.len() as u32 {
            if !self.alive(s) || label[s as usize] != UNREACHED {
                continue;
            }
            label[s as usize] = s;
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &w in &self.nbrs[u as usize] {
                    if self.alive(w) && label[w as usize] == UNREACHED {
                        label[w as usize] = s;
                        stack.push(w);
                    }
                }
            }
        }
        label
    }
}

/// `⌈log₂ n⌉`, at least 1.
pub fn ceil_log2(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Checks served answers against BFS over the exported image and `G'`,
/// memoizing the BFS per source.
pub struct AnswerOracle<'a> {
    image: &'a Adj,
    ghost: &'a Adj,
    memo: HashMap<u32, (Vec<u32>, Vec<u32>)>,
}

impl<'a> AnswerOracle<'a> {
    pub fn new(image: &'a Adj, ghost: &'a Adj) -> AnswerOracle<'a> {
        AnswerOracle {
            image,
            ghost,
            memo: HashMap::new(),
        }
    }

    fn from(&mut self, u: u32) -> &(Vec<u32>, Vec<u32>) {
        let (image, ghost) = (self.image, self.ghost);
        self.memo
            .entry(u)
            .or_insert_with(|| (image.bfs(u), ghost.bfs(u)))
    }

    /// `Ok(())` when `body` is the right answer to `request`, otherwise
    /// a description of the disagreement.
    pub fn check(&mut self, request: &Request, body: &ResponseBody) -> Result<(), String> {
        let image = self.image;
        let ok = match (request, body) {
            (&Request::Distance(u, v), ResponseBody::Distance(d)) => {
                *d == self.distance(u.raw(), v.raw())
            }
            (&Request::Path(u, v), ResponseBody::Path(p)) => {
                match (self.distance(u.raw(), v.raw()), p) {
                    (None, None) => true,
                    (Some(d), Some(p)) => {
                        p.len() == d as usize + 1
                            && p.first() == Some(&u)
                            && p.last() == Some(&v)
                            && p.iter().all(|w| image.alive(w.raw()))
                            && p.windows(2).all(|e| image.adjacent(e[0].raw(), e[1].raw()))
                    }
                    _ => false,
                }
            }
            (&Request::Stretch(u, v), ResponseBody::Stretch(s)) => {
                let expected = if image.alive(u.raw()) && image.alive(v.raw()) {
                    let (di, dg) = self.from(u.raw());
                    let (i, g) = (di[v.index()], dg[v.index()]);
                    if g == UNREACHED {
                        None
                    } else if i == UNREACHED {
                        Some(f64::INFINITY)
                    } else {
                        Some(f64::from(i) / f64::from(g.max(1)))
                    }
                } else {
                    None
                };
                *s == expected
            }
            (&Request::Degree(u), ResponseBody::Degree(d)) => {
                let expected = image.alive(u.raw()).then(|| image.degree(u.raw()) as u64);
                *d == expected
            }
            (&Request::SameComponent(u, v), ResponseBody::SameComponent(c)) => {
                *c == self.distance(u.raw(), v.raw()).is_some()
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{request:?} answered {body:?}"))
        }
    }

    fn distance(&mut self, u: u32, v: u32) -> Option<u32> {
        if !self.image.alive(u) || !self.image.alive(v) {
            return None;
        }
        let d = self.from(u).0[v as usize];
        (d != UNREACHED).then_some(d)
    }
}

/// The paper's guarantees measured on one final state.
#[derive(Debug, Default, Clone)]
pub struct Properties {
    /// `⌈log₂ n⌉` with `n` the nodes `G'` ever held.
    pub stretch_bound: u32,
    pub stretch_pairs: u64,
    pub stretch_mean: f64,
    pub stretch_max: f64,
    pub stretch_violations: u64,
    /// Live pairs connected in `G'` but not in the image.
    pub disconnected_pairs: u64,
    pub degree_nodes: u64,
    pub degree_ratio_mean: f64,
    pub degree_ratio_max: f64,
    /// Nodes above the paper's 3x (reported, not a failure).
    pub degree_above_3: u64,
    /// Nodes above this implementation's 4x envelope (a failure).
    pub degree_above_4: u64,
}

/// Measures stretch from `sources` (every live target), connectivity
/// over all live pairs, and every live node's degree ratio.
pub fn properties(image: &Adj, ghost: &Adj, sources: &[u32]) -> Properties {
    let mut p = Properties {
        stretch_bound: ceil_log2(ghost.len()),
        ..Properties::default()
    };
    let bound = f64::from(p.stretch_bound);
    let mut sum = 0.0;
    for &s in sources {
        let (di, dg) = (image.bfs(s), ghost.bfs(s));
        for v in image.live() {
            let (i, g) = (di[v as usize], dg[v as usize]);
            if v == s || g == UNREACHED || i == UNREACHED {
                continue;
            }
            let ratio = f64::from(i) / f64::from(g);
            p.stretch_pairs += 1;
            sum += ratio;
            p.stretch_max = p.stretch_max.max(ratio);
            if ratio > bound {
                p.stretch_violations += 1;
            }
        }
    }
    p.stretch_mean = sum / p.stretch_pairs.max(1) as f64;

    // Every live pair connected in G' must be connected in the image:
    // each G' component's live members share one image component.
    let (ci, cg) = (image.components(), ghost.components());
    let mut image_comp_of: HashMap<u32, (u32, u64)> = HashMap::new();
    let mut live_in: HashMap<u32, u64> = HashMap::new();
    for v in image.live() {
        let g = cg[v as usize];
        *live_in.entry(g).or_default() += 1;
        let entry = image_comp_of.entry(g).or_insert((ci[v as usize], 0));
        if entry.0 == ci[v as usize] {
            entry.1 += 1;
        }
    }
    for (g, live) in live_in {
        let together = image_comp_of[&g].1;
        p.disconnected_pairs += together * (live - together);
    }

    let mut sum = 0.0;
    for v in image.live() {
        let (di, dg) = (image.degree(v), ghost.degree(v));
        if di > 4 * dg {
            p.degree_above_4 += 1;
        }
        if dg == 0 {
            continue;
        }
        let ratio = di as f64 / dg as f64;
        p.degree_nodes += 1;
        sum += ratio;
        p.degree_ratio_max = p.degree_ratio_max.max(ratio);
        if ratio > 3.0 {
            p.degree_above_3 += 1;
        }
    }
    p.degree_ratio_mean = sum / p.degree_nodes.max(1) as f64;
    p
}

/// Evenly spaced live nodes, at most `count` of them.
pub fn spread_sources(image: &Adj, count: usize) -> Vec<u32> {
    let live = image.live();
    let step = (live.len() / count.max(1)).max(1);
    live.into_iter().step_by(step).take(count).collect()
}
