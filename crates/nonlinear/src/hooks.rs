//! Adapters exposing the nonlinear unit as [`bbal_llm::InferenceHooks`] —
//! the Table IV rows: *Softmax only*, *SILU only*, *Altogether*.

use crate::unit::{NonlinearUnit, NonlinearUnitConfig};
use bbal_llm::{Activation, InferenceHooks};
use std::cell::RefCell;

/// Which nonlinear operations route through the unit (Table IV rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonlinearScope {
    /// Only attention softmax is quantised.
    SoftmaxOnly,
    /// Only the FFN activation is quantised.
    ActivationOnly,
    /// Both (the paper's "Altogether").
    Altogether,
}

impl NonlinearScope {
    /// The paper's row label.
    pub fn label(&self) -> &'static str {
        match self {
            NonlinearScope::SoftmaxOnly => "Softmax Only",
            NonlinearScope::ActivationOnly => "SILU Only",
            NonlinearScope::Altogether => "Altogether",
        }
    }
}

/// Hooks that route softmax/activation through a [`NonlinearUnit`] while
/// leaving linear layers untouched.
#[derive(Debug)]
pub struct NonlinearUnitHooks {
    unit: RefCell<NonlinearUnit>,
    scope: NonlinearScope,
    label: String,
}

impl NonlinearUnitHooks {
    /// Wraps a unit configuration with the given scope.
    pub fn new(config: NonlinearUnitConfig, scope: NonlinearScope) -> NonlinearUnitHooks {
        NonlinearUnitHooks {
            unit: RefCell::new(NonlinearUnit::new(config)),
            scope,
            label: format!("{} {}", config.format.display_name(), scope.label()),
        }
    }
}

impl InferenceHooks for NonlinearUnitHooks {
    fn softmax_row(&self, row: &mut [f32]) {
        match self.scope {
            NonlinearScope::SoftmaxOnly | NonlinearScope::Altogether => {
                self.unit.borrow_mut().softmax_row(row);
            }
            NonlinearScope::ActivationOnly => bbal_llm::ops::softmax_in_place(row),
        }
    }

    fn activation(&self, xs: &mut [f32], kind: Activation) {
        match self.scope {
            NonlinearScope::ActivationOnly | NonlinearScope::Altogether => match kind {
                Activation::Silu => self.unit.borrow_mut().silu(xs),
                Activation::Gelu => self.unit.borrow_mut().gelu(xs),
            },
            NonlinearScope::SoftmaxOnly => match kind {
                Activation::Silu => bbal_llm::ops::silu_in_place(xs),
                Activation::Gelu => bbal_llm::ops::gelu_in_place(xs),
            },
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbal_llm::ops;

    #[test]
    fn scope_controls_which_ops_are_quantised() {
        let softmax_only =
            NonlinearUnitHooks::new(NonlinearUnitConfig::paper(), NonlinearScope::SoftmaxOnly);
        // Activation path must be exact for SoftmaxOnly.
        let mut a = vec![1.0f32, -1.0, 0.5];
        let mut exact = a.clone();
        ops::silu_in_place(&mut exact);
        softmax_only.activation(&mut a, Activation::Silu);
        assert_eq!(a, exact);
    }

    #[test]
    fn altogether_quantises_both() {
        let hooks =
            NonlinearUnitHooks::new(NonlinearUnitConfig::paper(), NonlinearScope::Altogether);
        let mut row = vec![0.5f32, 1.5, -0.7, 2.0];
        hooks.softmax_row(&mut row);
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        let mut xs = vec![1.0f32, -2.0];
        hooks.activation(&mut xs, Activation::Silu);
        assert!(xs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn labels_match_table4_rows() {
        let h = NonlinearUnitHooks::new(NonlinearUnitConfig::paper(), NonlinearScope::SoftmaxOnly);
        assert_eq!(h.name(), "BBFP(10,5) Softmax Only");
        let b = NonlinearUnitHooks::new(NonlinearUnitConfig::bfp10(), NonlinearScope::Altogether);
        assert_eq!(b.name(), "BFP10 Altogether");
    }
}
