//! Self times of the benchmark's own wall-clock spans, drained from the
//! telemetry stream.
//!
//! A span's self time is its duration minus the durations of the spans
//! nested directly inside it on the same track.

use idd_telemetry::{EventKind, TraceStream, TrackId};
use std::collections::BTreeMap;

/// Per span name, the duration and self time of every closed span, in
/// seconds, in the order the spans closed.
#[derive(Debug, Default)]
pub struct SpanTimes {
    durations: BTreeMap<String, Vec<f64>>,
    self_times: BTreeMap<String, Vec<f64>>,
}

impl SpanTimes {
    /// Reads the `SpanBegin`/`SpanEnd` pairs of `track`. Fails on an
    /// unbalanced or mis-nested pair.
    pub fn from_stream(stream: &TraceStream, track: TrackId) -> Result<Self, String> {
        let mut times = SpanTimes::default();
        // (name, begin µs, µs covered by direct children)
        let mut open: Vec<(&str, u64, u64)> = Vec::new();
        for event in stream.events_for(track) {
            match &event.kind {
                EventKind::SpanBegin { name } => open.push((name, event.wall_us, 0)),
                EventKind::SpanEnd { name } => {
                    let (begun, start, children) = open
                        .pop()
                        .ok_or(format!("span `{name}` ends but none is open"))?;
                    if begun != name {
                        return Err(format!("span `{begun}` is closed as `{name}`"));
                    }
                    let duration = event.wall_us.saturating_sub(start);
                    if let Some(parent) = open.last_mut() {
                        parent.2 += duration;
                    }
                    let secs = |us: u64| us as f64 * 1e-6;
                    times
                        .durations
                        .entry(name.clone())
                        .or_default()
                        .push(secs(duration));
                    times
                        .self_times
                        .entry(name.clone())
                        .or_default()
                        .push(secs(duration.saturating_sub(children)));
                }
                _ => {}
            }
        }
        match open.last() {
            Some((name, ..)) => Err(format!("span `{name}` never ends")),
            None => Ok(times),
        }
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self times of every span called `name`.
    pub fn self_times(&self, name: &str) -> &[f64] {
        self.self_times.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total self time of the spans called `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.self_times(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_telemetry::Telemetry;

    #[test]
    fn nested_spans_subtract_their_children() {
        let telemetry = Telemetry::recording();
        let track = telemetry.register("bench");
        {
            let _guard = track.install();
            idd_telemetry::span_begin("outer");
            idd_telemetry::span_begin("inner");
            std::thread::sleep(std::time::Duration::from_millis(20));
            idd_telemetry::span_end("inner");
            idd_telemetry::span_end("outer");
        }
        let times = SpanTimes::from_stream(&telemetry.drain(), track.id()).unwrap();
        let inner = times.durations("inner")[0];
        let outer = times.durations("outer")[0];
        assert!(inner >= 0.02, "{inner}");
        assert!(outer >= inner);
        assert!((times.self_total("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(times.self_total("inner"), inner);
    }

    #[test]
    fn unbalanced_spans_are_an_error() {
        let telemetry = Telemetry::recording();
        let track = telemetry.register("bench");
        {
            let _guard = track.install();
            idd_telemetry::span_begin("a");
            idd_telemetry::span_begin("b");
            idd_telemetry::span_end("a");
        }
        assert!(SpanTimes::from_stream(&telemetry.drain(), track.id()).is_err());
    }
}
