//! Multi-criteria route planning (paper §I: "route planning for road
//! networks" is a core skyline application).
//!
//! Builds a random road network, enumerates candidate routes between two
//! hubs by randomised search, and keeps the skyline over
//! (travel time, toll cost, fuel, elevation gain) — every route a
//! rational driver could prefer under *some* weighting of criteria.
//!
//! Run with: `cargo run --release --example route_planning`

use skybench::prelude::*;
use skybench::Rng;

const CRITERIA: [&str; 4] = ["time_min", "toll_eur", "fuel_l", "climb_m"];

struct RoadNetwork {
    /// adjacency: node -> (neighbour, edge cost in each of `CRITERIA`)
    edges: Vec<Vec<(usize, [f32; 4])>>,
}

impl RoadNetwork {
    /// A grid-ish network with random shortcuts; cost dimensions conflict
    /// (fast motorways are tolled, scenic flat roads are slow…).
    fn random(side: usize, rng: &mut Rng) -> Self {
        let n = side * side;
        let mut edges = vec![Vec::new(); n];
        let connect =
            |edges: &mut Vec<Vec<(usize, [f32; 4])>>, a: usize, b: usize, rng: &mut Rng| {
                let motorway = rng.next_f64() < 0.3;
                let (speed, toll) = if motorway {
                    (1.0 + rng.next_f64(), 2.0 + 6.0 * rng.next_f64())
                } else {
                    (0.3 + 0.5 * rng.next_f64(), 0.0)
                };
                let dist = 1.0 + rng.next_f64();
                let climb = 80.0 * rng.next_f64() * if motorway { 0.3 } else { 1.0 };
                let cost = [
                    (dist / speed * 12.0) as f32,
                    toll as f32,
                    (dist * (0.8 + 0.4 * speed)) as f32,
                    climb as f32,
                ];
                edges[a].push((b, cost));
                edges[b].push((a, cost));
            };
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    connect(&mut edges, v, v + 1, rng);
                }
                if r + 1 < side {
                    connect(&mut edges, v, v + side, rng);
                }
            }
        }
        // A few long shortcuts.
        for _ in 0..side {
            let a = rng.next_below(n);
            let b = rng.next_below(n);
            if a != b {
                connect(&mut edges, a, b, rng);
            }
        }
        Self { edges }
    }

    /// Samples simple paths from `start` to `goal` by randomised greedy
    /// walks, returning each path's total cost vector.
    fn sample_routes(
        &self,
        start: usize,
        goal: usize,
        tries: usize,
        rng: &mut Rng,
    ) -> Vec<[f32; 4]> {
        let n = self.edges.len();
        let mut routes = Vec::new();
        'walks: for _ in 0..tries {
            let mut visited = vec![false; n];
            let mut at = start;
            let mut cost = [0.0f32; 4];
            visited[start] = true;
            for _ in 0..4 * n {
                if at == goal {
                    routes.push(cost);
                    continue 'walks;
                }
                let candidates: Vec<&(usize, [f32; 4])> = self.edges[at]
                    .iter()
                    .filter(|(next, _)| !visited[*next])
                    .collect();
                if candidates.is_empty() {
                    continue 'walks; // dead end; abandon this walk
                }
                let (next, ecost) = candidates[rng.next_below(candidates.len())];
                for (acc, e) in cost.iter_mut().zip(ecost) {
                    *acc += e;
                }
                visited[*next] = true;
                at = *next;
            }
        }
        routes
    }
}

fn main() {
    let mut rng = Rng::seed_from(2015);
    let network = RoadNetwork::random(14, &mut rng);
    let (start, goal) = (0, 14 * 14 - 1);
    let routes = network.sample_routes(start, goal, 40_000, &mut rng);
    println!(
        "sampled {} feasible routes from hub A to hub B",
        routes.len()
    );

    let data = Dataset::from_rows(&routes.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
        .expect("route costs are finite");

    // Compare a sequential and the parallel state-of-the-art — results
    // must agree exactly; timing shows why Hybrid is the default.
    for algo in [Algorithm::Sfs, Algorithm::BSkyTree, Algorithm::Hybrid] {
        let (sky, stats) = SkylineBuilder::new()
            .algorithm(algo)
            .compute_with_stats(&data);
        println!(
            "{:<9} -> {:>5} pareto routes, {:>12} DTs, {:?}",
            algo.name(),
            sky.len(),
            stats.dominance_tests,
            stats.total
        );
    }

    let sky = skyline(&data);
    let mut show: Vec<(u32, &[f32])> = sky.points(&data).collect();
    show.sort_by(|a, b| a.1[0].partial_cmp(&b.1[0]).unwrap());
    println!("\nfastest pareto-optimal routes:");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        CRITERIA[0], CRITERIA[1], CRITERIA[2], CRITERIA[3]
    );
    for (_, r) in show.iter().take(6) {
        println!(
            "{:>10.1} {:>10.2} {:>10.2} {:>10.0}",
            r[0], r[1], r[2], r[3]
        );
    }
    println!(
        "\nany weighting of (time, toll, fuel, climb) is optimised by one \
         of these {} routes",
        sky.len()
    );
}
