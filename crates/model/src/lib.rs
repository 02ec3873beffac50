//! # `lowband-model` — the supported low-bandwidth model
//!
//! This crate implements the computational model that the paper
//! *Low-Bandwidth Matrix Multiplication: Faster Algorithms and More General
//! Forms of Sparsity* (SPAA 2024) assumes as "hardware":
//!
//! * there are `n` computers (nodes), indexed `0..n`;
//! * computation proceeds in synchronous rounds;
//! * in each round every computer can **send at most one message** and
//!   **receive at most one message** (each message is one algebra element,
//!   i.e. `O(log n)` bits in the paper's accounting);
//! * local computation is free and unbounded (Definition 6.3 of the paper).
//!
//! The *supported* aspect of the model is that the sparsity structure of an
//! instance is known in advance, so arbitrary preprocessing may depend on the
//! structure (but never on the runtime values). We realize this by splitting
//! an algorithm into two artifacts:
//!
//! 1. a [`Schedule`] — the communication/computation plan, compiled centrally
//!    from the support only, and
//! 2. a [`Machine`] execution — the runtime that carries the actual values,
//!    enforcing the bandwidth constraint round by round.
//!
//! The number of communication rounds in a schedule is exactly the paper's
//! complexity measure; [`Machine::run`] refuses to execute any round in which
//! a node would send or receive more than one message, so a completed
//! execution *is* a certificate that the algorithm respects the model.
//!
//! ## Example
//!
//! ```
//! use lowband_model::{Key, Machine, Merge, ScheduleBuilder, Transfer, NodeId};
//! use lowband_model::algebra::Nat;
//!
//! // Two computers; node 0 sends its value of A(0,0) to node 1, which
//! // accumulates it into X(0,0).
//! let mut b = ScheduleBuilder::new(2);
//! b.round(vec![Transfer {
//!     src: NodeId(0), src_key: Key::a(0, 0),
//!     dst: NodeId(1), dst_key: Key::x(0, 0),
//!     merge: Merge::Add,
//! }]).unwrap();
//! let schedule = b.build();
//! assert_eq!(schedule.rounds(), 1);
//!
//! let mut m: Machine<Nat> = Machine::new(2);
//! m.load(NodeId(0), Key::a(0, 0), Nat(7));
//! m.load(NodeId(1), Key::x(0, 0), Nat(35));
//! let stats = m.run(&schedule).unwrap();
//! assert_eq!(stats.rounds, 1);
//! assert_eq!(m.get(NodeId(1), Key::x(0, 0)), Some(&Nat(42)));
//! ```

#![forbid(unsafe_code)]

pub mod algebra;
pub mod binser;
pub mod compress;
pub mod error;
pub mod key;
pub mod link;
pub mod machine;
pub mod parallel;
pub mod recovery;
pub mod schedule;
pub mod serial;
pub mod stats;

pub use algebra::{PackedSemiring, Semiring};
pub use binser::BinSerError;
pub use compress::{compress, compress_traced};
pub use error::ModelError;
pub use key::Key;
pub use link::{
    link, link_traced, LinkedMachine, LinkedOp, LinkedSchedule, LinkedStepView, LinkedTransfer,
    PackedLinkedMachine,
};
pub use machine::{ExecutionStats, Machine};
pub use recovery::{Checkpoint, RunWindow};
pub use schedule::{LocalOp, Merge, Round, Schedule, ScheduleBuilder, Step, Transfer};
pub use serial::{read_schedule, write_schedule};
pub use stats::ScheduleStats;

// The instrumentation substrate, re-exported so downstream crates don't
// need a separate dependency edge for the common case.
pub use lowband_trace as trace;
pub use lowband_trace::{NoopTracer, Tracer};

// The fault-injection layer, re-exported the same way: executors take any
// `FaultHook`, and `NoopFaults` keeps the hot paths fault-free.
pub use lowband_faults as faults;
pub use lowband_faults::{FaultHook, FaultPlan, FaultSpec, NoopFaults, Tamper};

/// Identifier of a real computer in the network, in `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}
