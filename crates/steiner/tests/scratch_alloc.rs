//! Memory contract of [`RrstrScratch`]: a build never allocates when an
//! earlier build through the same scratch was at least as large. A
//! counting `#[global_allocator]` wraps the system allocator.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running on another thread would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gmp_geom::Point;
use gmp_steiner::rrstr::{rrstr, rrstr_into, RadioRange, RrstrScratch};
use gmp_steiner::SteinerTree;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `n` points on a spiral around `(500, 500)`: distinct, deterministic.
fn spiral(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = i as f64 * 2.399_963;
            let r = 60.0 + 4.0 * i as f64;
            Point::new(500.0 + r * a.cos(), 500.0 + r * a.sin())
        })
        .collect()
}

#[test]
fn small_build_after_large_one_allocates_nothing() {
    let source = Point::new(480.0, 520.0);
    let large = spiral(100);
    let small = spiral(5);
    for mode in [RadioRange::Aware(150.0), RadioRange::Ignored] {
        let fresh = rrstr(source, &small, mode);
        let mut tree = SteinerTree::new(Point::ORIGIN);
        let mut scratch = RrstrScratch::new();
        rrstr_into(source, &large, mode, &mut tree, &mut scratch);

        let before = ALLOCS.load(Ordering::SeqCst);
        rrstr_into(source, &small, mode, &mut tree, &mut scratch);
        let after = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "k = 5 after k = 100 allocated ({mode:?})"
        );
        assert_eq!(tree, fresh, "k = 5 after k = 100 diverged ({mode:?})");
        assert_eq!(tree.edges(), fresh.edges());
    }
}
