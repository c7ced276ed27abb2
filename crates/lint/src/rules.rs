//! Compatibility facade over the split-out pass modules.
//!
//! The original single-file rule engine grew into [`crate::items`] (the
//! token-stream item model), [`crate::callgraph`] (panic reachability)
//! and [`crate::passes`] (one module per rule family). External callers
//! and the fixture self-tests keep importing through `rules::*`.

pub use crate::callgraph::check_reachability;
pub use crate::items::{line_is_exempt, test_exempt_ranges};
pub use crate::passes::boundary::check_boundary;
pub use crate::passes::casts::check_casts;
pub use crate::passes::determinism::check_determinism;
pub use crate::passes::unsafe_check::{check_unsafe_containment, unsafe_fn_names, unsafe_lines};
pub use crate::passes::{collect_suppressions, Suppressions, KNOWN_RULES};
