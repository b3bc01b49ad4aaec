//! Steiner-tree machinery micro-benchmarks: the growth of rrSTR with the
//! destination count (Section 4.2 bounds it at `O(n² log n)`; the row-
//! maximum selection runs in `O(n²)` on these inputs), the 3-point Fermat
//! kernel, MST, and KMB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmp_geom::fermat::fermat_point;
use gmp_geom::Point;
use gmp_steiner::kmb::kmb;
use gmp_steiner::mst::euclidean_mst;
use gmp_steiner::ratio::reduction_ratio;
use gmp_steiner::rrstr::{rrstr, rrstr_into, RadioRange, RrstrScratch};
use gmp_steiner::SteinerTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
        .collect()
}

fn bench_fermat(c: &mut Criterion) {
    let pts = random_points(300, 3);
    c.bench_function("fermat_point", |b| {
        let mut i = 0;
        b.iter(|| {
            let f = fermat_point(pts[i % 100], pts[(i + 100) % 300], pts[(i + 200) % 300]);
            i += 1;
            f
        })
    });
    c.bench_function("reduction_ratio", |b| {
        let mut i = 0;
        b.iter(|| {
            let r = reduction_ratio(pts[i % 100], pts[(i + 100) % 300], pts[(i + 200) % 300]);
            i += 1;
            r
        })
    });
}

fn bench_rrstr(c: &mut Criterion) {
    let mut group = c.benchmark_group("rrstr");
    for n in [5usize, 10, 25, 50, 100] {
        let dests = random_points(n, n as u64);
        group.bench_with_input(BenchmarkId::new("aware", n), &n, |b, _| {
            b.iter(|| rrstr(Point::new(500.0, 500.0), &dests, RadioRange::Aware(150.0)))
        });
        group.bench_with_input(BenchmarkId::new("ignored", n), &n, |b, _| {
            b.iter(|| rrstr(Point::new(500.0, 500.0), &dests, RadioRange::Ignored))
        });
        // The audited O(n³) reference implementation: quantifies what the
        // row-maximum selection buys (Section 4.2's complexity argument).
        if n <= 25 {
            group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
                b.iter(|| {
                    gmp_steiner::reference::rrstr_reference(
                        Point::new(500.0, 500.0),
                        &dests,
                        RadioRange::Aware(150.0),
                    )
                })
            });
        }
    }
    group.finish();
}

/// The forwarding hot path's cost: `rrstr_into` through one warm scratch
/// and tree, over 2,000 sets of a random source and `k` random
/// destinations in 1000 m × 1000 m, one set per iteration. The `rrstr`
/// group above allocates fresh scratch on every call instead.
fn bench_rrstr_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("rrstr_into");
    for k in [2usize, 5, 12, 25] {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ k as u64);
        let sets: Vec<(Point, Vec<Point>)> = (0..2000)
            .map(|_| {
                let mut point =
                    || Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                (point(), (0..k).map(|_| point()).collect())
            })
            .collect();
        let mode = RadioRange::Aware(150.0);
        let mut tree = SteinerTree::new(Point::ORIGIN);
        let mut scratch = RrstrScratch::new();
        for (source, dests) in &sets {
            rrstr_into(*source, dests, mode, &mut tree, &mut scratch);
        }
        group.bench_with_input(BenchmarkId::new("warm", k), &k, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let (source, dests) = &sets[i % sets.len()];
                i += 1;
                rrstr_into(*source, dests, mode, &mut tree, &mut scratch);
                tree.len()
            })
        });
    }
    group.finish();
}

fn bench_mst_kmb(c: &mut Criterion) {
    let mut group = c.benchmark_group("trees");
    for n in [10usize, 25, 50] {
        let pts = random_points(n, 17 + n as u64);
        group.bench_with_input(BenchmarkId::new("euclidean_mst", n), &n, |b, _| {
            b.iter(|| euclidean_mst(&pts))
        });
    }
    // KMB over a 20×20 unit grid with 12 terminals.
    let cols = 20usize;
    let mut graph = vec![Vec::new(); cols * cols];
    for y in 0..cols {
        for x in 0..cols {
            let id = (y * cols + x) as u32;
            if x + 1 < cols {
                graph[id as usize].push((id + 1, 1.0));
                graph[(id + 1) as usize].push((id, 1.0));
            }
            if y + 1 < cols {
                graph[id as usize].push((id + cols as u32, 1.0));
                graph[(id + cols as u32) as usize].push((id, 1.0));
            }
        }
    }
    let terminals: Vec<u32> = (0..12).map(|i| (i * 33) % (cols * cols) as u32).collect();
    group.bench_function("kmb_grid_400v_12t", |b| b.iter(|| kmb(&graph, &terminals)));
    group.finish();
}

criterion_group!(
    benches,
    bench_fermat,
    bench_rrstr,
    bench_rrstr_into,
    bench_mst_kmb
);
criterion_main!(benches);
