//! What a runtime message may allocate: the packet that carries it and the
//! buffer it is received into — nothing to frame a notify or a ship, and
//! nothing to decode one. A message without a payload (a control packet,
//! a barrier round) allocates nothing at all.
//!
//! A notify's and a ship's frames are built on the stack, and the receiver
//! reads a message in place from the bytes it received. A counting global
//! allocator (per-thread counters: an image is a thread) pins the count
//! per notify/wait round trip and per ship, on both images and both
//! substrates. The images run as tasks on one run slot, so every run takes
//! the same schedule.

use caf::{CafConfig, CafUniverse, ExecConfig, Image, SubstrateKind};
use caf_bench::heap::{allocs, Counting};
use caf_fabric::{Fabric, FabricConfig, Packet};

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 8;
const ROUNDS: u64 = 64;

/// Allocations per round on each of two images, as `job` counts them.
fn per_round(kind: SubstrateKind, job: impl Fn(&Image) -> u64 + Sync) -> Vec<u64> {
    let cfg = CafConfig {
        exec: ExecConfig { workers: 1, ..ExecConfig::tasks() },
        ..CafConfig::on(kind)
    };
    let rows = CafUniverse::run_with_config(2, cfg, |img| {
        let spent = job(img);
        img.sync_all();
        spent
    });
    rows.into_iter()
        .map(|spent| {
            assert_eq!(spent % ROUNDS, 0, "{kind:?}: {spent} allocations in {ROUNDS} rounds");
            spent / ROUNDS
        })
        .collect()
}

/// Allocations over `ROUNDS` runs of `round`, after `WARMUP` runs that
/// bring the mailboxes, the event table and the ship registry to their
/// high-water marks.
fn counted(mut round: impl FnMut()) -> u64 {
    for _ in 0..WARMUP {
        round();
    }
    let before = allocs();
    for _ in 0..ROUNDS {
        round();
    }
    allocs() - before
}

/// One allocation per image per round trip: the packet payload of the
/// notify it sends. Receiving the other's notify allocates the received
/// bytes on CAF-MPI (`recv`) and the runtime's copy of the medium payload
/// GASNet lends its handler on CAF-GASNet. A notify framed in a `Vec`
/// would be a third.
#[test]
fn a_notify_wait_round_trip_allocates_its_packet_and_its_receive() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let spent = per_round(kind, |img| {
            let w = img.team_world();
            let (ping, pong) = (img.event_alloc(&w), img.event_alloc(&w));
            counted(|| {
                if img.this_image() == 0 {
                    img.event_notify(&w, &ping, 1);
                    img.event_wait(&pong);
                } else {
                    img.event_wait(&ping);
                    img.event_notify(&w, &pong, 0);
                }
            })
        });
        assert_eq!(spent, [2, 2], "{kind:?}: allocations per round trip on images 0 and 1");
    }
}

/// Image 0 ships a closure to image 1, which runs it; the closure posts
/// on image 1 and notifies image 0 back. Image 0 allocates the boxed
/// closure, the ship's packet and the receive of the notify; image 1 the
/// receive of the ship and the notify's packet. The finish around the
/// rounds ends after they are counted.
#[test]
fn a_ship_allocates_its_closure_its_packet_and_its_receive() {
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let spent = per_round(kind, |img| {
            let w = img.team_world();
            let (ran, back) = (img.event_alloc(&w), img.event_alloc(&w));
            img.finish(&w, |img| {
                counted(|| {
                    if img.this_image() == 0 {
                        let team = w.clone();
                        img.ship(&w, 1, move |img| {
                            img.event_notify(&team, &ran, 1);
                            img.event_notify(&team, &back, 0);
                        });
                        img.event_wait(&back);
                    } else {
                        img.event_wait(&ran);
                    }
                })
            })
        });
        assert_eq!(spent, [3, 2], "{kind:?}: allocations per ship on images 0 and 1");
    }
}

/// A header-only packet sent and received: its empty payload holds no
/// heap storage, so the round trip allocates nothing once the mailboxes
/// have grown.
#[test]
fn a_control_packet_round_trip_allocates_nothing() {
    let exec = ExecConfig { workers: 1, ..ExecConfig::tasks() };
    let spent = Fabric::run_with_config(2, FabricConfig { exec, ..FabricConfig::default() }, |ep| {
        let peer = 1 - ep.rank();
        counted(|| {
            let ping = || ep.send(peer, Packet::control(ep.rank(), 7, 0, [1, 2, 3, 4])).unwrap();
            let pong = || assert!(ep.recv_blocking().unwrap().payload.is_empty());
            if ep.rank() == 0 {
                ping();
                pong();
            } else {
                pong();
                ping();
            }
        })
    });
    assert_eq!(spent, [0, 0], "allocations in {ROUNDS} control round trips on ranks 0 and 1");
}

/// A CAF-MPI barrier's rounds are zero-byte collective messages: nothing
/// to allocate on either image.
#[test]
fn a_caf_mpi_barrier_allocates_nothing() {
    let spent = per_round(SubstrateKind::Mpi, |img| counted(|| img.sync_all()));
    assert_eq!(spent, [0, 0], "allocations per barrier on images 0 and 1");
}
