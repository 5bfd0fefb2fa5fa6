//! Chrome Trace Event JSON export.
//!
//! Emits the classic `{"traceEvents":[...]}` document that Perfetto
//! (and `chrome://tracing`) loads: metadata events naming processes and
//! tracks, `B`/`E` duration pairs for spans, `i` instants, and `s`/`f`
//! flow pairs that render as arrows between slices. The writer is
//! hand-rolled (like `ecc-telemetry`'s snapshot JSON) so identical
//! timelines serialize byte-identically: processes ascend by pid, tracks
//! by tid, and each track's events keep their recorded order.

use ecc_telemetry::push_json_string;

use crate::{Record, Tracer};

/// Formats a nanosecond instant as the microsecond `ts` value the Chrome
/// trace format expects, with exact (3-decimal) precision.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_event(out: &mut String, first: &mut bool, body: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('{');
    body(out);
    out.push('}');
}

impl Tracer {
    /// Serializes the whole timeline as a Chrome Trace Event JSON
    /// document (Perfetto-loadable). Deterministic: identical timelines
    /// produce byte-identical documents.
    pub fn chrome_trace_json(&self) -> String {
        self.snapshot_state(|state| {
            let mut out = String::with_capacity(4096);
            out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
            let mut first = true;

            // Metadata: process and track names, with sort indices that
            // pin the UI ordering to ours.
            for (&pid, process) in &state.processes {
                push_event(&mut out, &mut first, |o| {
                    o.push_str(&format!("\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":"));
                    push_json_string(o, &process.name);
                    o.push('}');
                });
                push_event(&mut out, &mut first, |o| {
                    o.push_str(&format!(
                        "\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\"args\":{{\"sort_index\":{pid}}}"
                    ));
                });
                for (&tid, track) in &process.tracks {
                    push_event(&mut out, &mut first, |o| {
                        o.push_str(&format!(
                            "\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
                        ));
                        push_json_string(o, &track.name);
                        o.push('}');
                    });
                    push_event(&mut out, &mut first, |o| {
                        o.push_str(&format!(
                            "\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}"
                        ));
                    });
                }
            }

            // Events, per process then per track, in recorded order.
            for (&pid, process) in &state.processes {
                for (&tid, track) in &process.tracks {
                    for record in &track.records {
                        push_event(&mut out, &mut first, |o| {
                            let ts = ts_us(record.ts());
                            match record {
                                Record::Begin { name, detail, .. } => {
                                    o.push_str(&format!(
                                        "\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"cat\":\"ecc\",\"name\":"
                                    ));
                                    push_json_string(o, name);
                                    if !detail.is_empty() {
                                        o.push_str(",\"args\":{\"detail\":");
                                        push_json_string(o, detail);
                                        o.push('}');
                                    }
                                }
                                Record::End { .. } => {
                                    o.push_str(&format!(
                                        "\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}"
                                    ));
                                }
                                Record::Instant { name, detail, .. } => {
                                    o.push_str(&format!(
                                        "\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":"
                                    ));
                                    push_json_string(o, name);
                                    if !detail.is_empty() {
                                        o.push_str(",\"args\":{\"detail\":");
                                        push_json_string(o, detail);
                                        o.push('}');
                                    }
                                }
                                Record::FlowStart { id, name, .. } => {
                                    o.push_str(&format!(
                                        "\"ph\":\"s\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"cat\":\"flow\",\"id\":{id},\"name\":"
                                    ));
                                    push_json_string(o, name);
                                }
                                Record::FlowEnd { id, name, .. } => {
                                    o.push_str(&format!(
                                        "\"ph\":\"f\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"cat\":\"flow\",\"id\":{id},\"bp\":\"e\",\"name\":"
                                    ));
                                    push_json_string(o, name);
                                }
                            }
                        });
                    }
                }
            }
            out.push_str("]}");
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_formats_exact_microseconds() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(1_000), "1.000");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn export_is_deterministic_and_ordered() {
        let build = || {
            let (tracer, clock) = Tracer::with_manual_clock();
            let a = tracer.track(1, "node1", "encode");
            let b = tracer.track(0, "node0", "recv");
            let span = tracer.span(a, "encode.packet", "pkt 0");
            clock.advance_ns(1_500);
            let flow = tracer.flow_start(a, "p2p");
            drop(span);
            clock.advance_ns(300);
            let recv = tracer.span(b, "recv.packet", "pkt 0");
            tracer.flow_end(b, flow, "p2p");
            drop(recv);
            tracer.chrome_trace_json()
        };
        let json = build();
        assert_eq!(json, build(), "identical manual-clock runs must export identically");
        // Processes are emitted ascending by pid even though pid 1
        // registered first.
        let p0 = json.find("\"name\":\"node0\"").expect("node0 metadata");
        let p1 = json.find("\"name\":\"node1\"").expect("node1 metadata");
        assert!(p0 < p1);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("\"ts\":1.500"));
    }

    #[test]
    fn detail_strings_are_escaped() {
        let (tracer, _clock) = Tracer::with_manual_clock();
        let tk = tracer.track(0, "node0", "main");
        tracer.instant(tk, "note", "say \"hi\"\n");
        let json = tracer.chrome_trace_json();
        assert!(json.contains("say \\\"hi\\\"\\n"));
    }
}
