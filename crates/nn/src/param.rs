//! Trainable parameter buffers.

use serde::{Deserialize, Serialize};

/// A flat buffer of trainable parameters together with its gradient and
/// Adam moment estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamBuf {
    /// Parameter values.
    pub data: Vec<f64>,
    /// Accumulated gradient (same length as `data`).
    pub grad: Vec<f64>,
    /// First-moment estimate (Adam).
    pub m: Vec<f64>,
    /// Second-moment estimate (Adam).
    pub v: Vec<f64>,
}

impl ParamBuf {
    /// Create a parameter buffer from initial values.
    pub fn new(data: Vec<f64>) -> Self {
        let n = data.len();
        ParamBuf {
            data,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Zero-initialised buffer of length `n`.
    pub fn zeros(n: usize) -> Self {
        ParamBuf::new(vec![0.0; n])
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Apply one Adam update with bias correction for step `t` (1-based;
    /// past `i32::MAX` steps the correction has long been 1 and `t`
    /// saturates).
    pub fn adam_step(&mut self, lr: f64, beta1: f64, beta2: f64, eps: f64, t: u64) {
        let t = i32::try_from(t.max(1)).unwrap_or(i32::MAX);
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        // One length check, so the zipped sweep below covers every
        // parameter and carries no bounds checks.
        let n = self.data.len();
        assert_eq!(
            (self.grad.len(), self.m.len(), self.v.len()),
            (n, n, n),
            "grad / m / v must be as long as data"
        );
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((x, &g), (m, v)) in self.data.iter_mut().zip(&self.grad).zip(moments) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *x -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Apply one plain SGD update.
    pub fn sgd_step(&mut self, lr: f64) {
        for i in 0..self.data.len() {
            self.data[i] -= lr * self.grad[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_moves_against_gradient() {
        let mut p = ParamBuf::new(vec![1.0, -1.0]);
        p.grad = vec![1.0, -1.0];
        p.adam_step(0.1, 0.9, 0.999, 1e-8, 1);
        assert!(p.data[0] < 1.0);
        assert!(p.data[1] > -1.0);
    }

    #[test]
    fn adam_step_count_saturates_instead_of_wrapping() {
        // Under `t as i32`, step `2^32 + 1` wrapped to step 1 and got the
        // first step's bias correction back.
        let stepped = |t: u64| {
            let mut p = ParamBuf::new(vec![1.0]);
            p.grad = vec![0.5];
            p.adam_step(0.1, 0.9, 0.999, 1e-8, t);
            p.data[0].to_bits()
        };
        assert_eq!(stepped((1 << 32) + 1), stepped(i32::MAX as u64));
        assert_ne!(stepped((1 << 32) + 1), stepped(1));
    }

    #[test]
    #[should_panic(expected = "as long as data")]
    fn adam_step_refuses_ragged_buffers() {
        let mut p = ParamBuf::zeros(3);
        p.v.pop();
        p.adam_step(0.1, 0.9, 0.999, 1e-8, 1);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = ParamBuf::zeros(3);
        p.grad = vec![1.0, 2.0, 3.0];
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0; 3]);
    }

    #[test]
    fn sgd_step_is_linear() {
        let mut p = ParamBuf::new(vec![2.0]);
        p.grad = vec![0.5];
        p.sgd_step(0.2);
        assert!((p.data[0] - 1.9).abs() < 1e-12);
    }

    #[test]
    fn repeated_adam_steps_converge_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut p = ParamBuf::new(vec![0.0]);
        for t in 1..=2000 {
            p.zero_grad();
            p.grad[0] = 2.0 * (p.data[0] - 3.0);
            p.adam_step(0.05, 0.9, 0.999, 1e-8, t);
        }
        assert!((p.data[0] - 3.0).abs() < 1e-2, "got {}", p.data[0]);
    }
}
