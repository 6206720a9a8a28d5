//! Numerics substrate for the Cedar reproduction.
//!
//! Cedar's wait-duration optimization and its order-statistics-based online
//! learning need a small, dependency-free numerics toolkit:
//!
//! - [`special`] — error function, standard normal pdf/cdf/quantile,
//!   log-gamma, and regularized incomplete beta/gamma functions;
//! - [`integrate`] — composite Simpson, adaptive Simpson and fixed-order
//!   Gauss–Legendre quadrature;
//! - [`order_stats`] — expected order statistics of the standard normal
//!   distribution (exact by quadrature, and the Blom approximation), the
//!   statistical core of Cedar's de-biased estimator (§4.2.2 of the paper);
//! - [`table`] — monotone piecewise-linear interpolation tables, used to
//!   memoize the recursive quality profile `q_n(D)`;
//! - [`kahan`] — compensated summation;
//! - [`roots`] — bracketed root finding (bisection and Brent), used to
//!   invert CDFs that have no closed-form quantile;
//! - [`simd`] — lane-struct (SIMD-shaped) batch evaluation of the fast
//!   erf/erfc/normal-CDF kernels, bit-identical to the scalars, and
//!   [`simd::widest`], which runs such a kernel compiled for AVX2 when
//!   the CPU has it (this crate's one `unsafe` function);
//! - [`fxhash`] — the FxHash multiply-rotate hasher for small fixed
//!   keys, used by the hot-path caches instead of SipHash.
//!
//! Everything here is implemented from scratch; no external statistics
//! crates are used. Accuracy targets are documented per function and
//! enforced by the test suite against high-precision reference values.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod fxhash;
pub mod integrate;
pub mod kahan;
pub mod ks;
pub mod order_stats;
pub mod roots;
pub mod simd;
pub mod special;
pub mod table;

pub use kahan::KahanSum;
pub use table::InterpTable;
