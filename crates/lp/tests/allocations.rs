//! Heap allocations of the interior-point method, counted by a global
//! allocator that counts the calling thread's allocations while a test
//! asks it to.
//!
//! After the first iteration has sized every buffer, an iteration allocates
//! nothing: a solve capped at six iterations makes exactly as many
//! allocations as one capped at two.  Building and preparing the LP
//! allocate per constraint and per block, not per row.

use corgi_lp::{ConstraintSense, InteriorPointOptions, LpProblem, PreparedLp, SolveStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread while counting, or `None`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (out, n)
}

/// A K = 49 LP shaped like the obfuscation LP: `z_{i,l}` is variable
/// `49·i + l` in block `l`, each row `i` sums to one, and each cell is
/// bounded by its neighbours on a 7 × 7 grid in every column: one
/// constraint per neighbouring pair, with one shifted copy per column.
fn obfuscation_shaped_lp() -> (LpProblem, Vec<Vec<usize>>) {
    let (side, k) = (7, 49);
    let var = |i: usize, l: usize| i * k + l;
    let mut p = LpProblem::new(k * k);
    let cell = |i: usize| ((i / side) as f64, (i % side) as f64);
    let objective = (0..k * k)
        .map(|v| {
            let ((a, b), (c, d)) = (cell(v / k), cell(v % k));
            ((a - c).powi(2) + (b - d).powi(2)).sqrt()
        })
        .collect();
    p.set_objective_vector(objective).unwrap();
    for i in 0..k {
        let row = (0..k).map(|l| (var(i, l), 1.0)).collect();
        p.add_constraint(row, ConstraintSense::Eq, 1.0).unwrap();
    }
    for i in 0..k {
        let (r, c) = (i / side, i % side);
        let neighbours = [
            (r > 0).then(|| i - side),
            (r + 1 < side).then(|| i + side),
            (c > 0).then(|| i - 1),
            (c + 1 < side).then(|| i + 1),
        ];
        for j in neighbours.into_iter().flatten() {
            let pair = vec![(var(i, 0), 1.0), (var(j, 0), -1.8f64.exp())];
            p.add_shifted_constraints(pair, k, ConstraintSense::Le, 0.0)
                .unwrap();
        }
    }
    let blocks = (0..k)
        .map(|l| (0..k).map(|i| var(i, l)).collect())
        .collect();
    (p, blocks)
}

fn allocations_of_a_capped_solve(max_iterations: usize) -> u64 {
    let (p, blocks) = obfuscation_shaped_lp();
    let mut prepared = PreparedLp::new(p, &blocks).unwrap();
    let options = InteriorPointOptions {
        max_iterations,
        ..InteriorPointOptions::default()
    };
    let (solution, n) = count_allocations(|| prepared.solve_with_warm(&options, None).unwrap());
    assert_eq!(solution.status, SolveStatus::IterationLimit);
    assert_eq!(solution.iterations, max_iterations);
    n
}

#[test]
fn ipm_iterations_after_the_first_allocate_nothing() {
    let two = allocations_of_a_capped_solve(2);
    let six = allocations_of_a_capped_solve(6);
    assert_eq!(
        six, two,
        "a solve capped at 6 iterations allocated {six} times, one capped at 2 {two} times"
    );
}

/// Building and preparing the K = 49 LP allocate per constraint and per
/// block, never per row: each pair's 49 copies are one constraint, prepared
/// into one run.  The build allocates each constraint's coefficients twice
/// (the caller's vector and the merged one) plus the blocks; the
/// preparation allocates a few buffers per block.  A build that states
/// every copy as its own constraint allocates more than 16,000 times here.
#[test]
fn building_and_preparing_allocate_per_pair_not_per_row() {
    let ((p, blocks), build) = count_allocations(obfuscation_shaped_lp);
    let (prepared, prepare) = count_allocations(|| PreparedLp::new(p, &blocks).unwrap());
    let k = 49;
    let pairs = (prepared.problem().num_constraints() - k) / k;
    assert_eq!(pairs, 168);
    assert!(
        build <= 3 * (pairs + k) as u64,
        "building allocated {build} times for {pairs} pairs at K = {k}"
    );
    assert!(
        prepare <= 16 * k as u64,
        "preparing allocated {prepare} times for {pairs} pairs at K = {k}"
    );
    assert_eq!(prepared.problem().constraints().len(), k + pairs);
}
