//! The read mix: hot-set-skewed `dist/path/stretch/deg/comp` requests
//! drawn from a seeded generator over a snapshot's live nodes.

use crate::oracle::Adj;
use fg_graph::NodeId;
use fg_serve::Request;

/// Percent of each read op in the mix.
pub const MIX: [(&str, u32); 5] = [
    ("dist", 60),
    ("path", 10),
    ("stretch", 10),
    ("deg", 10),
    ("comp", 10),
];

/// Sources come from this many popular live nodes; targets are uniform.
pub const HOT: usize = 32;

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The op label of a read request, as used in per-kind metric names.
pub fn kind(request: &Request) -> &'static str {
    match request {
        Request::Distance(..) => "dist",
        Request::Path(..) => "path",
        Request::Stretch(..) => "stretch",
        Request::Degree(..) => "deg",
        Request::SameComponent(..) => "comp",
        _ => "other",
    }
}

/// `count` read requests over `image`'s live nodes.
pub fn pool(image: &Adj, seed: u64, count: usize) -> Vec<Request> {
    let live = image.live();
    assert!(live.len() > HOT, "too few live nodes for the hot set");
    let mut rng = Rng::new(seed);
    let mut hot: Vec<u32> = Vec::with_capacity(HOT);
    while hot.len() < HOT {
        let v = live[rng.below(live.len())];
        if !hot.contains(&v) {
            hot.push(v);
        }
    }
    (0..count)
        .map(|_| {
            let u = NodeId::new(hot[rng.below(HOT)]);
            let v = NodeId::new(live[rng.below(live.len())]);
            let mut pick = rng.below(100) as u32;
            let label = MIX
                .iter()
                .find(|(_, pct)| {
                    let hit = pick < *pct;
                    pick = pick.saturating_sub(*pct);
                    hit
                })
                .map_or("dist", |(l, _)| *l);
            match label {
                "path" => Request::Path(u, v),
                "stretch" => Request::Stretch(u, v),
                "deg" => Request::Degree(u),
                "comp" => Request::SameComponent(u, v),
                _ => Request::Distance(u, v),
            }
        })
        .collect()
}
