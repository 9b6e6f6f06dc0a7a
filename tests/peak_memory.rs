//! Peak live heap of the PTQ paths, counted by a global allocator.
//!
//! `evaluate_ppl` and `Session::prepare` quantise one weight matrix at a
//! time: above what a call leaves behind (its result), its live-heap
//! high-water mark may exceed that by at most the largest weight matrix
//! plus a fixed slack for activations, KV pages and logits. A second
//! dense copy of the model (5.4 MiB on the Llama-7B stand-in) does not
//! fit in that bound. What `Session::prepare` leaves behind is its
//! prepared weights and little else: the token embedding stays shared
//! with the reference model, not copied into it.
//!
//! Everything runs in one `#[test]` fn, so no other test allocates
//! while a call is measured.

use bbal::llm::{evaluate_ppl, zoo, EvalSet, TransformerModel};
use bbal::quant::registry::hooks_for;
use bbal::{SchemeSpec, SessionBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it has live and their
/// high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the bytes it left live (its result) and its
/// live-heap high-water mark, both above the live bytes it started at.
fn measure(f: impl FnOnce()) -> (usize, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    f();
    let retained = LIVE.load(Ordering::SeqCst).saturating_sub(start);
    (retained, PEAK.load(Ordering::SeqCst) - start)
}

#[test]
fn ptq_paths_hold_one_weight_matrix_beyond_their_result() {
    /// Activations, KV pages, logits and quantiser scratch.
    const SLACK: usize = 1 << 20;
    let spec = zoo::llama_7b();
    // The widest decoder matrices are `hidden × ffn` (gate, up, down).
    let largest = std::mem::size_of::<f32>() * spec.hidden * spec.ffn_width();
    let reference = TransformerModel::synthesize(&spec);
    let eval = EvalSet::generate(&spec, 2, 24, 1234);
    let mut report = Vec::new();

    for scheme in [SchemeSpec::Oltron, SchemeSpec::Fp16, SchemeSpec::Bbfp(4, 2)] {
        let hooks = hooks_for(scheme).expect("a Table II scheme");
        let (retained, peak) = measure(|| {
            evaluate_ppl(&reference, &hooks.as_ref(), &eval);
        });
        report.push((format!("evaluate_ppl {scheme}"), retained, peak));
    }

    let mut session = SessionBuilder::new()
        .model(spec.name)
        .scheme_spec(SchemeSpec::Oltron)
        .build()
        .expect("the Llama-7B stand-in builds");
    let (retained, peak) = measure(|| {
        session.prepare();
    });
    // Oltron has no block layout, so its prepared decoder and
    // unembedding weights are 4-byte lanes. Anything above them beyond
    // a small slack (the layer vectors, spec and outlier list) is a
    // copy of something the reference already holds: one embedding is
    // 4 × vocab × hidden = 196,608 B here.
    const PREPARED_SLACK: usize = 16 << 10;
    let decoder: usize = reference
        .layers()
        .iter()
        .flat_map(|l| {
            [&l.wq, &l.wk, &l.wv, &l.wo, &l.w_up, &l.w_down]
                .into_iter()
                .chain(&l.w_gate)
        })
        .map(|w| w.data().len())
        .sum();
    let weights = std::mem::size_of::<f32>() * (decoder + spec.hidden * spec.vocab);
    assert!(
        retained <= weights + PREPARED_SLACK,
        "Session::prepare oltron retains {retained} B, above its {weights} B of decoder and \
         unembedding weights + {PREPARED_SLACK} B slack"
    );
    report.push(("Session::prepare oltron".to_owned(), retained, peak));

    for (what, retained, peak) in report {
        assert!(
            peak <= retained + largest + SLACK,
            "{what}: peak {peak} B above the start exceeds its result {retained} B \
             + the largest weight matrix {largest} B + {SLACK} B slack"
        );
    }
}
