//! Fused-forward equivalence: [`TransformerModel::forward_segments`] over
//! a random mix of one-token decode rows and multi-token prefill chunks,
//! each against its own KV cache, equals every segment's own
//! `prefill_chunk` bit for bit — the logits and every cached K/V row.
//!
//! The sweep covers every Table II scheme, one member of each algebra
//! family (MX / MSFP / block minifloat), both model families (gated and
//! plain FFN), random cache histories, page sizes and KV storage
//! policies, and a hook whose statistics span the whole buffer: fusing
//! the segments' rows into one hook call would change its output, so it
//! proves that each hook call sees one segment's rows only.
//!
//! Run with `PROPTEST_CASES=128` (CI does) for the full sweep.

use bbal_core::SchemeSpec;
use bbal_llm::{
    zoo, Activation, ExactHooks, Family, InferenceHooks, KvArena, KvCache, KvStore, StatsSpan,
    TransformerModel,
};
use bbal_quant::registry::{hooks_for, TABLE2_SCHEMES};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One member of each algebra family.
const ALGEBRA_SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::Mx(8, 4, 2),
    SchemeSpec::Msfp(4, 16),
    SchemeSpec::BlockMf(4, 3, 8),
];

/// Every scheme the sweep draws from.
fn schemes() -> Vec<SchemeSpec> {
    TABLE2_SCHEMES
        .iter()
        .copied()
        .chain(ALGEBRA_SCHEMES)
        .collect()
}

/// A hook whose statistics span the whole buffer it is handed:
/// activations snap to a grid set by the buffer's largest magnitude, and
/// the FFN activation adds an eighth of the buffer's mean.
struct GlobalHooks;

impl InferenceHooks for GlobalHooks {
    fn transform_activations(&self, activations: &mut [f32]) {
        let max = activations.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if max > 0.0 {
            let step = max / 16.0;
            for v in activations {
                *v = (*v / step).round() * step;
            }
        }
    }

    fn activation_stats_span(&self) -> StatsSpan {
        StatsSpan::Global
    }

    fn activation(&self, xs: &mut [f32], kind: Activation) {
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        ExactHooks.activation(xs, kind);
        for v in xs {
            *v += mean * 0.125;
        }
    }
}

/// The two-layer Tiny model of `family`.
fn spec(family: Family) -> bbal_llm::ModelSpec {
    let mut spec = zoo::tiny_test_model();
    spec.layers = 2;
    spec.family = family;
    spec
}

/// The models under test, built once: for each family, the dense
/// synthesised model (run under [`GlobalHooks`]) followed by one
/// prepared (PTQ-transformed and packed) model per [`schemes`] entry.
fn models() -> &'static [Vec<TransformerModel>; 2] {
    static MODELS: OnceLock<[Vec<TransformerModel>; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        [Family::Llama, Family::Opt].map(|family| {
            let reference = TransformerModel::synthesize(&spec(family));
            let mut models = vec![reference.clone()];
            for scheme in schemes() {
                let hooks = hooks_for(scheme).expect("every swept scheme has hooks");
                models.push(reference.with_prepared_weights(scheme, &hooks.as_ref()));
            }
            models
        })
    })
}

/// One segment as drawn: cached history, chunk length, page size and
/// KV storage knobs, and a token seed.
type SegmentDraw = (usize, usize, usize, bool, bool, u64);

fn segment() -> impl Strategy<Value = SegmentDraw> {
    (
        0usize..12,
        // Half one-token decode rows, half 2..=5-token prefill chunks.
        (0usize..8).prop_map(|n| if n < 4 { 1 } else { n - 2 }),
        0usize..4,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
}

/// `n` in-vocab tokens from `seed`.
fn tokens(n: usize, seed: u64, vocab: usize) -> Vec<usize> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % vocab as u64) as usize
        })
        .collect()
}

proptest! {
    #[test]
    fn fused_segments_match_per_segment_prefill_chunks(
        model_idx in 0usize..=TABLE2_SCHEMES.len() + ALGEBRA_SCHEMES.len(),
        opt in any::<bool>(),
        draws in proptest::collection::vec(segment(), 1..6),
    ) {
        let model = &models()[usize::from(opt)][model_idx];
        let (scheme, hooks): (SchemeSpec, Box<dyn InferenceHooks + Send>) = match model_idx {
            0 => (SchemeSpec::Fp32, Box::new(GlobalHooks)),
            i => {
                let scheme = schemes()[i - 1];
                (scheme, hooks_for(scheme).expect("every swept scheme has hooks"))
            }
        };
        let hooks = hooks.as_ref();
        let vocab = model.spec().vocab;

        // Two identical caches per segment: one for the fused call, one
        // for the segment's own prefill_chunk.
        let mut fused: Vec<KvCache> = Vec::new();
        let mut alone: Vec<KvCache> = Vec::new();
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        for &(past, new, page, quantize, packed, seed) in &draws {
            let arena = KvArena::unbounded([1, 3, 4, 16][page]);
            let store = KvStore { scheme, quantize, packed };
            let history = tokens(past, seed, vocab);
            for caches in [&mut fused, &mut alone] {
                let mut cache = model.kv_cache_with(&arena, store);
                if past > 0 {
                    model.prefill_chunk(&history, &hooks, &mut cache);
                }
                caches.push(cache);
            }
            chunks.push(tokens(new, seed.rotate_left(23), vocab));
        }

        let mut segments: Vec<(&mut KvCache, &[usize])> = fused
            .iter_mut()
            .zip(&chunks)
            .map(|(cache, chunk)| (cache, chunk.as_slice()))
            .collect();
        let logits = model.forward_segments(&mut segments, &hooks);

        let mut row = 0;
        for (s, (cache, chunk)) in alone.iter_mut().zip(&chunks).enumerate() {
            let want = model.prefill_chunk(chunk, &hooks, cache);
            for r in 0..chunk.len() {
                let same = logits
                    .row(row + r)
                    .iter()
                    .zip(want.row(r))
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                prop_assert!(same, "{:?}: segment {} logits row {}", scheme, s, r);
            }
            row += chunk.len();
            let got = &fused[s];
            prop_assert_eq!(got.len(), cache.len(), "segment {} cache length", s);
            for layer in 0..model.spec().layers {
                for pos in 0..cache.len() {
                    let (gk, gv) = got.kv_row(layer, pos);
                    let (wk, wv) = cache.kv_row(layer, pos);
                    let same = gk.iter().chain(&gv).zip(wk.iter().chain(&wv))
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    prop_assert!(same, "{:?}: segment {} layer {} row {}", scheme, s, layer, pos);
                }
            }
        }
        prop_assert_eq!(row, logits.rows());
    }
}

/// The tensor-wide hook really couples rows: one fused call over two
/// segments through a *single* hook call would differ from the
/// per-segment result — so the equality above is not vacuous.
#[test]
fn global_hook_depends_on_which_rows_share_a_call() {
    let mut joint = vec![0.1f32, 0.2, 3.0, 0.4];
    GlobalHooks.transform_activations(&mut joint);
    let mut split = vec![0.1f32, 0.2, 3.0, 0.4];
    let (a, b) = split.split_at_mut(2);
    GlobalHooks.transform_activations(a);
    GlobalHooks.transform_activations(b);
    assert_ne!(joint, split);
}
