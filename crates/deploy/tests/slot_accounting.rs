//! Slot time accounting (ISSUE 9, satellite 1): over the serial-equivalence
//! grid, the runtime telemetry's per-slot `busy`/`idle` spans must tile
//! each slot's timeline exactly — `busy + idle == build_slots × makespan` —
//! and the span-derived totals must agree with the report's
//! `slot_busy()` / `slot_idle(k)` accessors, so the report methods are
//! anchored to the timeline rather than being a restatement of themselves.
//! The runtime telemetry is a projection of the journal, so replaying a
//! run's journal with telemetry on reproduces the live stream event for
//! event, and the same tiling holds for the replayed stream.

mod common;

use common::{assert_bit_identical, initial_plan, instance, policy, scenario};
use idd_deploy::{replay_traced, DeployRuntime, DispatchPolicy};
use idd_telemetry::{Telemetry, TraceStream};

/// Tolerance for slot-seconds sums: the spans are re-derived from
/// `finish − start` differences, which can differ from the report's
/// `cost + wasted` accumulators in the last bits.
const EPS: f64 = 1e-9;

#[test]
fn busy_plus_idle_tiles_every_slot_timeline() {
    for inst_seed in [3u64, 17] {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, inst_seed.wrapping_mul(31) + 1);
        for kind in 0u8..5 {
            let scenario = scenario(&inst, kind, 11 + inst_seed);
            for policy_choice in 0u8..3 {
                for slots in [1usize, 2, 3] {
                    let telemetry = Telemetry::recording();
                    let config = policy(policy_choice).with_build_slots(slots);
                    let runtime = DeployRuntime::new(config).with_telemetry(telemetry.clone());
                    let report = runtime
                        .execute(&inst, &plan, &scenario)
                        .expect("grid scenarios must execute");
                    let stream = telemetry.drain();

                    // Track 0 is the event loop; tracks 1..=slots are the
                    // build slots.
                    assert_eq!(stream.tracks.len(), 1 + slots, "one track per slot");
                    let mut busy = 0.0;
                    let mut idle = 0.0;
                    for slot in 0..slots {
                        let track = 1 + slot;
                        assert_eq!(stream.track_name(track), format!("slot{slot}"));
                        let slot_busy = stream.span_total(track, "busy");
                        let slot_idle = stream.span_total(track, "idle");
                        // Each slot's own spans tile [0, makespan].
                        assert!(
                            (slot_busy + slot_idle - report.total_clock).abs() <= EPS,
                            "slot {slot}: busy {slot_busy} + idle {slot_idle} \
                             != makespan {} (seed {inst_seed} kind {kind} \
                             policy {policy_choice} slots {slots})",
                            report.total_clock,
                        );
                        busy += slot_busy;
                        idle += slot_idle;
                    }

                    // The invariant: busy + idle == build_slots × makespan.
                    let total = slots as f64 * report.total_clock;
                    assert!(
                        (busy + idle - total).abs() <= EPS,
                        "busy {busy} + idle {idle} != {slots} × {}",
                        report.total_clock,
                    );

                    // And the report's accessors agree with the spans.
                    assert!(
                        (report.slot_busy() - busy).abs() <= EPS,
                        "slot_busy() {} != span-derived busy {busy}",
                        report.slot_busy(),
                    );
                    assert!(
                        (report.slot_idle(slots) - idle).abs() <= EPS,
                        "slot_idle({slots}) {} != span-derived idle {idle}",
                        report.slot_idle(slots),
                    );
                }
            }
        }
    }
}

/// Sums the `busy` and `idle` spans of the `slots` slot tracks, which
/// follow the `deploy` track (track 0).
fn busy_and_idle(stream: &TraceStream, slots: usize) -> (f64, f64) {
    (1..=slots).fold((0.0, 0.0), |(busy, idle), track| {
        (
            busy + stream.span_total(track, "busy"),
            idle + stream.span_total(track, "idle"),
        )
    })
}

#[test]
fn replayed_journals_reproduce_the_live_stream() {
    for inst_seed in [3u64, 17] {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, inst_seed.wrapping_mul(31) + 1);
        for kind in 0u8..5 {
            let scenario = scenario(&inst, kind, 11 + inst_seed);
            for policy_choice in 0u8..3 {
                for slots in [1usize, 2, 3, 4] {
                    for dispatch in [DispatchPolicy::HeadOfLine, DispatchPolicy::WorkConserving] {
                        let live = Telemetry::recording();
                        let config = policy(policy_choice)
                            .with_build_slots(slots)
                            .with_dispatch(dispatch);
                        let (report, journal) = DeployRuntime::new(config)
                            .with_telemetry(live.clone())
                            .with_trace_scope("run/")
                            .execute_journaled(&inst, &plan, &scenario)
                            .expect("grid scenarios must execute");
                        let live = live.drain();

                        let replayed = Telemetry::recording();
                        let replayed_report =
                            replay_traced(&inst, &plan, &journal, slots, &replayed, "run/")
                                .expect("own journal must replay");
                        let replayed = replayed.drain();
                        assert_bit_identical(&replayed_report, &report);

                        let context = format!(
                            "seed {inst_seed} kind {kind} policy {policy_choice} \
                             slots {slots} {dispatch:?}"
                        );
                        assert_eq!(replayed.tracks, live.tracks, "{context}");
                        assert_eq!(
                            replayed.deterministic_view(),
                            live.deterministic_view(),
                            "{context}"
                        );
                        let (busy, idle) = busy_and_idle(&replayed, slots);
                        let total = slots as f64 * report.total_clock;
                        assert!(
                            (busy + idle - total).abs() <= EPS,
                            "{context}: replayed busy {busy} + idle {idle} != {slots} × {}",
                            report.total_clock,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn slot_idle_clamps_to_slots_actually_used() {
    let inst = instance(5);
    let plan = initial_plan(&inst, 9);
    let scenario = scenario(&inst, 4, 0); // quiet
    let report = DeployRuntime::new(policy(0).with_build_slots(2))
        .execute(&inst, &plan, &scenario)
        .expect("quiet grid scenario must execute");
    let used = report.slots_used();
    assert!(used >= 1);
    // Understating the slot count cannot produce negative idle time: the
    // accessor clamps up to the realized concurrency ceiling.
    assert!(report.slot_idle(0) >= -1e-9);
    assert_eq!(
        report.slot_idle(0).to_bits(),
        report.slot_idle(used).to_bits()
    );
}
