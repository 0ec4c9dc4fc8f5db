//! # braid-net
//!
//! The std-only networking layer under the BrAID remote transport
//! (DESIGN.md §11). No registry dependencies: the wire codec is
//! hand-rolled in the same bounds-checked, typed-error idiom as
//! `braid-sim`'s JSON codec, and everything runs on `std::net`.
//!
//! Five pieces:
//!
//! - [`wire`] — primitive encoders/decoders (`WireWriter`/`WireReader`)
//!   for fixed-width integers, floats, and length-prefixed strings and
//!   byte slices. Every read is bounds-checked; malformed input yields a
//!   typed [`NetError`], never a panic.
//! - [`frame`] — length-prefixed frames `[len: u32 BE][kind: u8][payload]`
//!   over any `Read`/`Write`, with a maximum-frame-size guard so a
//!   corrupt length prefix cannot cause an unbounded allocation.
//! - [`proxy`] — [`FaultProxy`], a real TCP proxy that injects faults
//!   (connection resets, byte-level truncation, latency spikes,
//!   black-hole stalls, outage windows) decided deterministically per
//!   accepted connection by a seeded [`ProxyPlan`], mirroring the
//!   `FaultPlan` idiom from `braid-remote`.
//! - [`listener`] — [`Listener`], the accept-loop skeleton every server
//!   here shares: stop flag, live-connection registry pruned on accept,
//!   and a cut-sockets-then-join shutdown.
//! - [`port`] — ephemeral-port allocation (`bind 127.0.0.1:0`, pass the
//!   bound address around) so network tests never flake on fixed ports.

pub mod error;
pub mod frame;
pub mod listener;
pub mod port;
pub mod proxy;
pub mod wire;

pub use error::NetError;
pub use frame::{read_frame, write_frame, Frame, MAX_FRAME_BYTES};
pub use listener::Listener;
pub use port::bind_ephemeral;
pub use proxy::{FaultProxy, ProxyFault, ProxyPlan, ProxyStatsSnapshot};
pub use wire::{WireReader, WireWriter};
