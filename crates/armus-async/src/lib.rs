//! # armus-async
//!
//! The async front-end of the Armus reproduction: `Future`-returning
//! phaser / barrier / latch / clock ops over the sync crate's
//! `begin_await` / `poll_await_with_waker` wait machine, plus a minimal
//! executor that threads task identity through spawn points. The sync
//! crate's blocking waits step the same machine and park their OS thread;
//! a future parks only its task's **waker** (woken exactly once when its
//! wait's fate resolves) — so a bounded worker pool verifies millions of
//! in-flight tasks where the thread-per-task front-end tops out at the OS
//! thread limit.
//!
//! The avoidance check runs inline at `begin_await` exactly as on the
//! sync path; verifier decisions and deadlock reports are identical
//! between front-ends (proven byte-for-byte by the testkit's differential
//! oracle).
//!
//! ## Example
//!
//! ```
//! use armus_async::prelude::*;
//! use armus_sync::{Phaser, Runtime};
//!
//! let rt = Runtime::avoidance();
//! let exec = Executor::new(2);
//! let ph = Phaser::new(&rt); // calling task registered at phase 0
//!
//! // Identity flows through the spawn like `Runtime::spawn_clocked`:
//! // each child is registered at the spawning task's phase.
//! let workers: Vec<_> = (0..8)
//!     .map(|_| {
//!         let ph2 = ph.clone();
//!         exec.spawn_clocked(&[&ph], async move {
//!             for _ in 0..10 {
//!                 ph2.advance_async().await.unwrap();
//!             }
//!             ph2.deregister().unwrap();
//!         })
//!     })
//!     .collect();
//!
//! ph.deregister().unwrap(); // the spawner leaves; workers sync alone
//! for handle in workers {
//!     handle.join().unwrap();
//! }
//! assert!(!rt.verifier().found_deadlock());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod future;
pub mod ops;
pub mod scope;

pub use executor::{Executor, JoinHandle, TaskResult};
pub use future::{Advance, AwaitPhase};
pub use ops::{AsyncBarrier, AsyncClock, AsyncClockedVar, AsyncLatch, AsyncPhaser};
pub use scope::{scoped_fresh, Scoped};

/// The traits and types async Armus programs need.
pub mod prelude {
    pub use crate::executor::{Executor, JoinHandle};
    pub use crate::ops::{AsyncBarrier, AsyncClock, AsyncClockedVar, AsyncLatch, AsyncPhaser};
    pub use crate::scope::Scoped;
}
