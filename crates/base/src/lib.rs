#![warn(missing_docs)]
//! Base types shared by every crate in the `sorete` workspace.
//!
//! This crate is the bottom of the dependency stack. It provides:
//!
//! - [`Symbol`]: an interned string with O(1) equality/hash ([`symbol`]);
//! - [`Value`]: the dynamic value type of the rule language and the
//!   relational substrate ([`value`]);
//! - [`Wme`] and [`TimeTag`]: working-memory elements, the "tuples with a
//!   time tag" the paper builds on ([`wme`]);
//! - fast hashing ([`hash`]), typed index arenas ([`arena`]);
//! - the conflict-set interchange types every match algorithm produces
//!   ([`inst`]): [`ConflictItem`], [`InstKey`], [`CsDelta`], [`MatchStats`];
//! - structured tracing ([`trace`]), hierarchical execution spans
//!   ([`span`]), and the metrics registry with memory accounting and run
//!   telemetry ([`metrics`]);
//! - shared error types ([`error`]).
//!
//! Nothing here knows about rules, Rete, or databases; it is pure substrate.

pub mod arena;
pub mod error;
pub mod flight;
pub mod hash;
pub mod inst;
pub mod metrics;
pub mod shutdown;
pub mod span;
pub mod symbol;
pub mod trace;
pub mod value;
pub mod wme;

pub use arena::Arena;
pub use error::{BaseError, Result};
pub use flight::{CycleRecord, Flight, FlightCounts};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use inst::{
    ConflictItem, CsDelta, InstKey, KeyPart, MatchStats, RetimeInfo, RowIter, Rows, RuleId, Tags,
};
pub use metrics::{
    MemoryRegion, MemoryReport, MetricId, MetricKind, Metrics, MetricsRegistry, SnapshotWriter,
};
pub use span::{
    logical_tree, render_perfetto, render_span_table, span_stats, OpenSpan, Span, SpanCatStats,
    Spans,
};
pub use symbol::Symbol;
pub use trace::{
    CollectSink, JsonlSink, NetProfile, NodeProfile, SelfTimer, SharedSink, TraceEvent, TraceSink,
    Tracer,
};
pub use value::Value;
pub use wme::{TimeTag, Wme};

/// Define a `u32`-backed typed index, for use with [`Arena`].
///
/// ```
/// sorete_base::define_id!(pub struct NodeId);
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $name {
            /// Build an id from a raw index.
            #[inline]
            $vis fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                Self(index as u32)
            }
            /// The raw index.
            #[inline]
            $vis fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::arena::ArenaId for $name {
            #[inline]
            fn from_index(index: usize) -> Self {
                Self::new(index)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}
