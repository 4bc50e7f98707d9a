//! Second-order diagnostics for §II-E / Fig. 4 of the paper: the largest eigenvalue
//! of the loss Hessian tracks "critical learning periods", and the paper shows that the
//! (much cheaper) first-order gradient variance follows the same trajectory — which is
//! the approximation SelSync's `Δ(g_i)` metric builds on.
//!
//! * [`hvp`] — Hessian-vector products via central finite differences of the gradient,
//!   so no second-order autodiff is needed.
//! * [`power`] — power iteration on the Hessian-vector product to estimate the top
//!   eigenvalue.
//! * [`variance`] — per-step gradient variance (the first-order proxy).
//!
//! [`crate::fig4_hessian_vs_variance`] runs both along a training trajectory and
//! tabulates the two series side by side.

pub mod hvp;
pub mod power;
pub mod variance;
