//! Decoder operator graphs at *paper-scale* dimensions.
//!
//! The cycle-level simulator (`bbal-accel`) does not need tensors — it
//! needs operator shapes. This module emits the operator list of one
//! decoder pass at the true dimensions of the paper's models
//! (Llama-7B = 4096 hidden, 11008 FFN, 32 heads × 32 layers), which is
//! what Fig. 1(b)'s runtime breakdown sweeps over sequence length.
//!
//! Every pass is a batch of [`Chunk`]s: a prompt prefill is one chunk
//! over an empty cache, a decode step a one-token chunk over the cached
//! tokens, a serving tick several chunks fused. [`tick_ops`] is the one
//! builder; [`decoder_ops`] and [`decode_step_ops`] name its two
//! single-sequence cases.

/// True dimensions of a paper model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperDims {
    /// Hidden width.
    pub hidden: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Attention heads.
    pub heads: usize,
    /// Decoder layers.
    pub layers: usize,
    /// Whether the FFN is gated (Llama) or plain (OPT).
    pub gated_ffn: bool,
}

/// Looks up the published dimensions of a paper model by name.
pub fn paper_dims(name: &str) -> Option<PaperDims> {
    let d = match name {
        "Llama-7B" | "Llama2-7B" => PaperDims {
            hidden: 4096,
            ffn: 11008,
            heads: 32,
            layers: 32,
            gated_ffn: true,
        },
        "Llama-13B" => PaperDims {
            hidden: 5120,
            ffn: 13824,
            heads: 40,
            layers: 40,
            gated_ffn: true,
        },
        "Llama-30B" => PaperDims {
            hidden: 6656,
            ffn: 17920,
            heads: 52,
            layers: 60,
            gated_ffn: true,
        },
        "Llama-65B" => PaperDims {
            hidden: 8192,
            ffn: 22016,
            heads: 64,
            layers: 80,
            gated_ffn: true,
        },
        "Llama3-8B" => PaperDims {
            hidden: 4096,
            ffn: 14336,
            heads: 32,
            layers: 32,
            gated_ffn: true,
        },
        "OPT-1.3B" => PaperDims {
            hidden: 2048,
            ffn: 8192,
            heads: 32,
            layers: 24,
            gated_ffn: false,
        },
        "OPT-2.7B" => PaperDims {
            hidden: 2560,
            ffn: 10240,
            heads: 32,
            layers: 32,
            gated_ffn: false,
        },
        "OPT-6.7B" => PaperDims {
            hidden: 4096,
            ffn: 16384,
            heads: 32,
            layers: 32,
            gated_ffn: false,
        },
        "OPT-13B" => PaperDims {
            hidden: 5120,
            ffn: 20480,
            heads: 40,
            layers: 40,
            gated_ffn: false,
        },
        "OPT-30B" => PaperDims {
            hidden: 7168,
            ffn: 28672,
            heads: 56,
            layers: 48,
            gated_ffn: false,
        },
        "OPT-66B" => PaperDims {
            hidden: 9216,
            ffn: 36864,
            heads: 72,
            layers: 64,
            gated_ffn: false,
        },
        _ => return None,
    };
    Some(d)
}

/// One operator in the decoder graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A GEMM: `[m × k] · [k × n]`.
    Gemm {
        /// Which linear layer this is (for reporting).
        name: GemmKind,
        /// Output rows.
        m: usize,
        /// Contraction depth.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Row-wise softmax over an `rows × cols` score matrix.
    Softmax {
        /// Number of rows (sequence × heads).
        rows: usize,
        /// Row width (keys attended).
        cols: usize,
    },
    /// Elementwise activation over `elems` values.
    Activation {
        /// SILU (gated) or GELU.
        silu: bool,
        /// Element count.
        elems: usize,
    },
}

/// The linear layers the paper names in Fig. 1(b) and Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GemmKind {
    /// Query projection.
    Query,
    /// Key projection.
    Key,
    /// Value projection.
    Value,
    /// Attention score matmul (`q·kᵀ`).
    AttnScore,
    /// Attention context matmul (`probs·v`).
    AttnContext,
    /// Attention output projection.
    Proj,
    /// FFN up (FC1).
    Fc1,
    /// FFN gate (Llama only).
    Gate,
    /// FFN down (FC2).
    Fc2,
}

impl Op {
    /// Multiply-accumulate count of this operator.
    pub fn macs(&self) -> u64 {
        match *self {
            Op::Gemm { m, k, n, .. } => m as u64 * k as u64 * n as u64,
            // Softmax/activation are not MACs; they cost nonlinear-unit
            // cycles instead.
            Op::Softmax { .. } | Op::Activation { .. } => 0,
        }
    }

    /// Number of scalar elements the nonlinear unit must process.
    pub fn nonlinear_elems(&self) -> u64 {
        match *self {
            Op::Gemm { .. } => 0,
            Op::Softmax { rows, cols } => rows as u64 * cols as u64,
            Op::Activation { elems, .. } => elems as u64,
        }
    }

    /// True for softmax/activation operators.
    pub fn is_nonlinear(&self) -> bool {
        !matches!(self, Op::Gemm { .. })
    }
}

/// One sequence's share of a decoder pass: `new` tokens entering a KV
/// cache that already holds `past` tokens. A whole-prompt prefill is
/// `Chunk { new: s, past: 0 }` and a decode step is a one-token chunk,
/// `Chunk { new: 1, past: cached }` — the same layer dataflow either
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Tokens processed by this pass.
    pub new: usize,
    /// Tokens already in the KV cache.
    pub past: usize,
}

/// Emits the operator list of a full prefill pass over `seq_len` tokens.
///
/// # Panics
///
/// Panics if `seq_len` is zero.
pub fn decoder_ops(dims: &PaperDims, seq_len: usize) -> Vec<Op> {
    tick_ops(
        dims,
        &[Chunk {
            new: seq_len,
            past: 0,
        }],
    )
}

/// Emits the operator list of one autoregressive *decode* step: a single
/// query token attending to a KV cache of `kv_len` tokens (including
/// itself). This is the regime where the linear work collapses to
/// `O(h²)` per layer while the attention/softmax work stays
/// `O(kv_len)` — the long-context serving case.
///
/// # Panics
///
/// Panics if `kv_len` is zero.
pub fn decode_step_ops(dims: &PaperDims, kv_len: usize) -> Vec<Op> {
    assert!(kv_len > 0, "a decode step attends over at least itself");
    tick_ops(
        dims,
        &[Chunk {
            new: 1,
            past: kv_len - 1,
        }],
    )
}

/// Emits the fused operator list of one batched decoder pass (one
/// serving scheduler tick) over `chunks`.
///
/// Continuous batching on a weight-stationary accelerator works because
/// the *linear* layers of every co-scheduled sequence share weights: the
/// token rows of every chunk concatenate into one `[m_total × k]`
/// activation matrix per projection/FFN GEMM, so the weight tiles stream
/// from DRAM once per pass instead of once per sequence (ORCA-style
/// selective batching). Attention cannot fuse that way — its operands
/// are per-sequence KV state — so score/softmax/context are emitted per
/// chunk, chunk row `i` attending over `past + i + 1` keys (costed at
/// the chunk's full span).
///
/// # Panics
///
/// Panics if `chunks` is empty or any chunk has no new tokens.
pub fn tick_ops(dims: &PaperDims, chunks: &[Chunk]) -> Vec<Op> {
    assert!(!chunks.is_empty(), "a tick needs at least one work item");
    assert!(chunks.iter().all(|c| c.new > 0), "degenerate item");
    let m_total: usize = chunks.iter().map(|c| c.new).sum();
    let h = dims.hidden;
    let dh = h / dims.heads;
    let mut ops = Vec::new();
    for _ in 0..dims.layers {
        for name in [GemmKind::Query, GemmKind::Key, GemmKind::Value] {
            ops.push(Op::Gemm {
                name,
                m: m_total,
                k: h,
                n: h,
            });
        }
        // Per-head score and context matmuls, emitted once per chunk
        // with the head count folded into m.
        for c in chunks {
            let span = c.past + c.new;
            let rows = c.new * dims.heads;
            ops.push(Op::Gemm {
                name: GemmKind::AttnScore,
                m: rows,
                k: dh,
                n: span,
            });
            ops.push(Op::Softmax { rows, cols: span });
            ops.push(Op::Gemm {
                name: GemmKind::AttnContext,
                m: rows,
                k: span,
                n: dh,
            });
        }
        ops.push(Op::Gemm {
            name: GemmKind::Proj,
            m: m_total,
            k: h,
            n: h,
        });
        let (first, silu) = if dims.gated_ffn {
            (GemmKind::Gate, true)
        } else {
            (GemmKind::Fc1, false)
        };
        ops.push(Op::Gemm {
            name: first,
            m: m_total,
            k: h,
            n: dims.ffn,
        });
        ops.push(Op::Activation {
            silu,
            elems: m_total * dims.ffn,
        });
        if dims.gated_ffn {
            ops.push(Op::Gemm {
                name: GemmKind::Fc1,
                m: m_total,
                k: h,
                n: dims.ffn,
            });
        }
        ops.push(Op::Gemm {
            name: GemmKind::Fc2,
            m: m_total,
            k: dims.ffn,
            n: h,
        });
    }
    ops
}

/// Total MACs of an operator list.
pub fn total_macs(ops: &[Op]) -> u64 {
    ops.iter().map(Op::macs).sum()
}

/// Total nonlinear elements of an operator list.
pub fn total_nonlinear_elems(ops: &[Op]) -> u64 {
    ops.iter().map(Op::nonlinear_elems).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_models_have_dims() {
        assert!(paper_dims("Llama-7B").is_some());
        assert!(paper_dims("OPT-66B").is_some());
        assert!(paper_dims("GPT-5").is_none());
    }

    #[test]
    fn llama7b_macs_match_analytic_count() {
        let d = paper_dims("Llama-7B").unwrap();
        let s = 128;
        let ops = decoder_ops(&d, s);
        // Per layer: 4 h*h GEMMs + 2 attention GEMMs + 3 FFN GEMMs.
        let per_layer =
            4 * s * d.hidden * d.hidden + 2 * s * s * d.hidden + 3 * s * d.hidden * d.ffn;
        assert_eq!(total_macs(&ops), (d.layers * per_layer) as u64);
    }

    #[test]
    fn nonlinear_share_grows_with_sequence_length() {
        // The mechanism behind Fig. 1(b): softmax work is O(s^2) while
        // linear work is O(s), so the nonlinear fraction rises with s.
        let d = paper_dims("Llama-7B").unwrap();
        let frac = |s: usize| -> f64 {
            let ops = decoder_ops(&d, s);
            let nl = total_nonlinear_elems(&ops) as f64;
            let macs = total_macs(&ops) as f64;
            nl / macs
        };
        assert!(frac(4096) > frac(1024));
        assert!(frac(1024) > frac(128));
    }

    #[test]
    fn gated_ffn_adds_gate_gemm() {
        let llama = paper_dims("Llama-7B").unwrap();
        let opt = paper_dims("OPT-6.7B").unwrap();
        let lops = decoder_ops(&llama, 64);
        let oops = decoder_ops(&opt, 64);
        let count_gate = |ops: &[Op]| {
            ops.iter()
                .filter(|o| {
                    matches!(
                        o,
                        Op::Gemm {
                            name: GemmKind::Gate,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(count_gate(&lops), llama.layers);
        assert_eq!(count_gate(&oops), 0);
    }

    #[test]
    fn decode_step_linear_work_is_constant_in_kv_len() {
        let d = paper_dims("Llama-7B").unwrap();
        let short = decode_step_ops(&d, 128);
        let long = decode_step_ops(&d, 4096);
        // GEMM MACs grow only through the attention matmuls (O(kv_len));
        // the projection/FFN MACs are identical.
        let proj_macs = |ops: &[Op]| -> u64 {
            ops.iter()
                .filter(|o| {
                    matches!(
                        o,
                        Op::Gemm {
                            name: GemmKind::Query,
                            ..
                        } | Op::Gemm {
                            name: GemmKind::Fc1,
                            ..
                        } | Op::Gemm {
                            name: GemmKind::Fc2,
                            ..
                        }
                    )
                })
                .map(Op::macs)
                .sum()
        };
        assert_eq!(proj_macs(&short), proj_macs(&long));
        // But softmax work scales with the cache length.
        assert!(total_nonlinear_elems(&long) / total_nonlinear_elems(&short).max(1) > 2);
    }

    #[test]
    fn decode_step_nonlinear_share_exceeds_prefill_share() {
        // Decode is the regime where the nonlinear bottleneck bites
        // hardest: linear work is O(h^2), softmax is O(kv_len).
        let d = paper_dims("Llama-7B").unwrap();
        let decode = decode_step_ops(&d, 4096);
        let prefill = decoder_ops(&d, 64);
        let share = |ops: &[Op]| total_nonlinear_elems(ops) as f64 / total_macs(ops).max(1) as f64;
        assert!(share(&decode) > share(&prefill));
    }

    #[test]
    fn softmax_elems_scale_quadratically() {
        let d = paper_dims("Llama-7B").unwrap();
        let nl = |s: usize| {
            decoder_ops(&d, s)
                .iter()
                .filter(|o| matches!(o, Op::Softmax { .. }))
                .map(|o| o.nonlinear_elems())
                .sum::<u64>()
        };
        let r = nl(256) as f64 / nl(128) as f64;
        assert!((3.9..4.1).contains(&r), "ratio {r}");
    }

    #[test]
    fn fused_batch_preserves_total_work() {
        // Batching reshapes the linear GEMMs but must not change the
        // MAC count or the nonlinear element count.
        let d = paper_dims("Llama-7B").unwrap();
        let items = [
            Chunk { new: 1, past: 99 },
            Chunk { new: 1, past: 199 },
            Chunk { new: 16, past: 8 },
        ];
        let fused = tick_ops(&d, &items);
        let separate: Vec<Op> = items
            .iter()
            .flat_map(|i| tick_ops(&d, std::slice::from_ref(i)))
            .collect();
        let macs = |ops: &[Op]| ops.iter().map(Op::macs).sum::<u64>();
        let nl = |ops: &[Op]| ops.iter().map(Op::nonlinear_elems).sum::<u64>();
        assert_eq!(macs(&fused), macs(&separate));
        assert_eq!(nl(&fused), nl(&separate));
    }

    #[test]
    #[should_panic(expected = "at least one work item")]
    fn empty_tick_is_rejected() {
        let _ = tick_ops(&paper_dims("Llama-7B").unwrap(), &[]);
    }

    // Exact op-list goldens on small geometries: hidden 8 / 2 heads
    // (head dim 4) gated over 2 layers, hidden 6 / 3 heads (head dim 2)
    // plain over 1 layer.
    const GATED: PaperDims = PaperDims {
        hidden: 8,
        ffn: 12,
        heads: 2,
        layers: 2,
        gated_ffn: true,
    };
    const PLAIN: PaperDims = PaperDims {
        hidden: 6,
        ffn: 10,
        heads: 3,
        layers: 1,
        gated_ffn: false,
    };

    fn gemm(name: GemmKind, m: usize, k: usize, n: usize) -> Op {
        Op::Gemm { name, m, k, n }
    }

    /// Both layers of `GATED` over `m` fused rows; `attn` holds one
    /// `(rows × heads, span)` pair per chunk.
    fn gated_layer(m: usize, attn: &[(usize, usize)]) -> Vec<Op> {
        use GemmKind::*;
        let mut ops = vec![
            gemm(Query, m, 8, 8),
            gemm(Key, m, 8, 8),
            gemm(Value, m, 8, 8),
        ];
        for &(rows, span) in attn {
            ops.extend([
                gemm(AttnScore, rows, 4, span),
                Op::Softmax { rows, cols: span },
                gemm(AttnContext, rows, span, 4),
            ]);
        }
        ops.extend([
            gemm(Proj, m, 8, 8),
            gemm(Gate, m, 8, 12),
            Op::Activation {
                silu: true,
                elems: m * 12,
            },
            gemm(Fc1, m, 8, 12),
            gemm(Fc2, m, 12, 8),
        ]);
        ops.repeat(2)
    }

    #[test]
    fn gated_goldens() {
        use GemmKind::*;
        // Whole-prompt prefill of 5 tokens.
        assert_eq!(
            decoder_ops(&GATED, 5),
            [
                gemm(Query, 5, 8, 8),
                gemm(Key, 5, 8, 8),
                gemm(Value, 5, 8, 8),
                gemm(AttnScore, 10, 4, 5),
                Op::Softmax { rows: 10, cols: 5 },
                gemm(AttnContext, 10, 5, 4),
                gemm(Proj, 5, 8, 8),
                gemm(Gate, 5, 8, 12),
                Op::Activation {
                    silu: true,
                    elems: 60
                },
                gemm(Fc1, 5, 8, 12),
                gemm(Fc2, 5, 12, 8),
            ]
            .repeat(2)
        );
        assert_eq!(decoder_ops(&GATED, 5), gated_layer(5, &[(10, 5)]));
        // Decode step over a 7-token cache (including the new token).
        assert_eq!(decode_step_ops(&GATED, 7), gated_layer(1, &[(2, 7)]));
        // Mid-sequence chunk: 3 new tokens after 4 cached.
        assert_eq!(
            tick_ops(&GATED, &[Chunk { new: 3, past: 4 }]),
            gated_layer(3, &[(6, 7)])
        );
        // Mixed tick: decode over 9, chunk 2 after 5, whole prompt 4.
        assert_eq!(
            tick_ops(
                &GATED,
                &[
                    Chunk { new: 1, past: 8 },
                    Chunk { new: 2, past: 5 },
                    Chunk { new: 4, past: 0 },
                ]
            ),
            gated_layer(7, &[(2, 9), (4, 7), (8, 4)])
        );
    }

    #[test]
    fn plain_goldens() {
        use GemmKind::*;
        let layer = |m: usize, attn: &[(usize, usize)]| {
            let mut ops = vec![
                gemm(Query, m, 6, 6),
                gemm(Key, m, 6, 6),
                gemm(Value, m, 6, 6),
            ];
            for &(rows, span) in attn {
                ops.extend([
                    gemm(AttnScore, rows, 2, span),
                    Op::Softmax { rows, cols: span },
                    gemm(AttnContext, rows, span, 2),
                ]);
            }
            ops.extend([
                gemm(Proj, m, 6, 6),
                gemm(Fc1, m, 6, 10),
                Op::Activation {
                    silu: false,
                    elems: m * 10,
                },
                gemm(Fc2, m, 10, 6),
            ]);
            ops
        };
        assert_eq!(
            decoder_ops(&PLAIN, 4),
            [
                gemm(Query, 4, 6, 6),
                gemm(Key, 4, 6, 6),
                gemm(Value, 4, 6, 6),
                gemm(AttnScore, 12, 2, 4),
                Op::Softmax { rows: 12, cols: 4 },
                gemm(AttnContext, 12, 4, 2),
                gemm(Proj, 4, 6, 6),
                gemm(Fc1, 4, 6, 10),
                Op::Activation {
                    silu: false,
                    elems: 40
                },
                gemm(Fc2, 4, 10, 6),
            ]
        );
        assert_eq!(decode_step_ops(&PLAIN, 6), layer(1, &[(3, 6)]));
        assert_eq!(
            tick_ops(&PLAIN, &[Chunk { new: 2, past: 3 }]),
            layer(2, &[(6, 5)])
        );
        assert_eq!(
            tick_ops(
                &PLAIN,
                &[
                    Chunk { new: 3, past: 0 },
                    Chunk { new: 1, past: 7 },
                    Chunk { new: 2, past: 6 },
                ]
            ),
            layer(6, &[(9, 3), (3, 8), (6, 8)])
        );
    }
}
