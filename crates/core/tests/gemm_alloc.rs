//! The weight GEMM makes no heap allocation: it sorts its activation
//! rows on the stack, so a decode step's call (up to 8 rows) and a
//! prefill chunk's allocate nothing, in every layout. Counted by a
//! global allocator, per thread; everything runs in one `#[test]` fn.

use bbal_core::packed::{LayoutKind, PackedMatrix};
use bbal_core::SchemeSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn values(n: usize, seed: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 37 + seed * 11) % 101) as f32 / 64.0 - 0.75)
        .collect()
}

#[test]
fn packed_gemm_allocates_nothing() {
    let cases = [
        (SchemeSpec::Bbfp(4, 2), 64, 96, LayoutKind::Block),
        (SchemeSpec::BlockMf(4, 3, 8), 64, 96, LayoutKind::Block),
        (SchemeSpec::Bbfp(4, 2), 40, 45, LayoutKind::Block),
        (SchemeSpec::Fp16, 64, 96, LayoutKind::Fp16),
        (SchemeSpec::Fp32, 64, 87, LayoutKind::Dense),
    ];
    for (scheme, k, n, kind) in cases {
        let w = values(k * n, 1);
        let p = PackedMatrix::encode(&w, k, n, scheme)
            .unwrap_or_else(|| PackedMatrix::pack(&w, k, n, scheme));
        assert_eq!(p.layout_kind(), kind, "{scheme} {k}x{n}");
        for rows in (1..=9).chain([70]) {
            let x = values(rows * k, rows);
            let mut out = vec![0.0f32; rows * n];
            let before = allocations();
            p.gemm(&x, rows, &mut out);
            let made = allocations() - before;
            assert_eq!(made, 0, "{scheme} {k}x{n} at {rows} rows");
        }
    }
}
