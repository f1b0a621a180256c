//! # cfir-predict
//!
//! Prediction substrate for the CFIR simulator:
//!
//! * [`Gshare`] — the 64K-entry gshare conditional-branch predictor of
//!   Table 1, with speculative global-history management (history is
//!   updated at prediction time and repaired from a checkpoint on a
//!   misprediction, as a real front end does).
//! * [`StridePredictor`] — the memory-address stride predictor of
//!   §2.3.2/Figure 3 (González & González, EuroPar'97 style): a 4-way ×
//!   256-set table holding `{PC, last address, stride, 2-bit confidence,
//!   S flag}`. A prediction is *trusted* when confidence > 1. The `S`
//!   flag marks loads selected for speculative vectorization by the
//!   control-independence mechanism in `cfir-core`.

//! ```
//! use cfir_predict::StridePredictor;
//!
//! let mut sp = StridePredictor::paper();
//! for i in 0..4u64 {
//!     sp.observe(0x40, 0x1000 + i * 8);
//! }
//! let e = sp.lookup(0x40).unwrap();
//! assert!(e.trusted());
//! assert_eq!(e.stride, 8);
//! assert_eq!(e.predict(2), e.last_addr + 16);
//! ```

pub mod gshare;
pub mod stride;

pub use gshare::{Gshare, GSHARE_ENTRIES};
pub use stride::{StrideEntry, StridePredictor, STRIDE_SETS, STRIDE_WAYS};
