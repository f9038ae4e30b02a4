//! Optimizers.

use crate::param::ParamBuf;
use serde::{Deserialize, Serialize};

/// The Adam optimizer (Kingma & Ba) over a set of [`ParamBuf`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay rate of the first moment.
    pub beta1: f64,
    /// Exponential decay rate of the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub eps: f64,
    t: u64,
}

impl Adam {
    /// Adam with the usual defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update to all parameters and clear their gradients.
    pub fn step<'a>(&mut self, params: impl IntoIterator<Item = &'a mut ParamBuf>) {
        self.t += 1;
        for p in params {
            p.adam_step(self.lr, self.beta1, self.beta2, self.eps, self.t);
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counter_increments_and_grads_clear() {
        let mut adam = Adam::new(0.01);
        let mut p = ParamBuf::new(vec![1.0]);
        p.grad[0] = 1.0;
        adam.step([&mut p]);
        assert_eq!(adam.steps(), 1);
        assert_eq!(p.grad[0], 0.0);
        assert!(p.data[0] < 1.0);
    }

    #[test]
    fn optimizes_multiple_buffers() {
        let mut adam = Adam::new(0.05);
        let mut a = ParamBuf::new(vec![5.0]);
        let mut b = ParamBuf::new(vec![-5.0]);
        for _ in 0..1500 {
            a.grad[0] = 2.0 * a.data[0];
            b.grad[0] = 2.0 * b.data[0];
            adam.step([&mut a, &mut b]);
        }
        assert!(a.data[0].abs() < 0.05);
        assert!(b.data[0].abs() < 0.05);
    }
}
