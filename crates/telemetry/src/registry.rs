//! Metrics registry: one labeled namespace unifying the hot-path
//! counters ([`crate::metrics`]), span timers ([`crate::span`]) and
//! trace-buffer health ([`crate::trace`]) behind a single snapshot
//! that renders as Prometheus text exposition format 0.0.4.
//!
//! The registry itself is an owned, single-threaded value — callers
//! build one per scrape via [`MetricsRegistry::gather`] (or by hand in
//! tests), so the hot-path rules (no locks, no threads) hold trivially.
//! All concurrency lives in the atomic sources being snapshotted.
//!
//! # Naming conventions (see DESIGN.md §9)
//!
//! * every metric is prefixed `spmv_`;
//! * monotonic totals end in `_total`, accumulated durations in
//!   `_seconds_total`;
//! * instantaneous/derived values (ratios, capacities, flags) carry no
//!   suffix and are exported as gauges;
//! * span timings share one metric, `spmv_span_seconds_total`, with
//!   the span name as the `span` label.

use crate::hist::{serve_latency, serve_stats, Exemplar, HistogramSnapshot, LatencyHistogram};
use crate::metrics::{
    engine_dispatch, menu_selection, preprocessing, profiling_runs, serve_encode,
};
use crate::roofline::monitor;
use crate::span::SpanSet;
use crate::trace::tracer;

/// Prometheus metric type as exported in `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Instantaneous value that can go up and down.
    Gauge,
}

impl MetricKind {
    /// The exposition-format keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One exported sample: optional labels plus a value, optionally
/// carrying an OpenMetrics-style exemplar (a recent RequestId and its
/// stage breakdown, appended as `# {...}` after the value).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `(label name, label value)` pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// Exemplar rendered after the value, OpenMetrics-style.
    pub exemplar: Option<Exemplar>,
}

/// One metric family: name, help text, type and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Full metric name (already `spmv_`-prefixed).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Samples, in registration order.
    pub samples: Vec<Sample>,
}

/// An insertion-ordered collection of metric families.
///
/// Pushing a sample under an existing name appends to that family
/// (keeping the first help/kind), so label variants of one metric
/// render under a single `# HELP`/`# TYPE` header as the exposition
/// format requires.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registered metric families, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Pushes an unlabeled sample.
    pub fn push(&mut self, name: &str, help: &str, kind: MetricKind, value: f64) {
        self.push_labeled(name, help, kind, &[], value);
    }

    /// Pushes a sample with labels. Samples pushed under one name are
    /// merged into a single family in first-seen order.
    pub fn push_labeled(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.push_labeled_exemplar(name, help, kind, labels, value, None);
    }

    /// Pushes a labeled sample carrying an optional exemplar (see
    /// [`Sample::exemplar`]); otherwise identical to
    /// [`push_labeled`](MetricsRegistry::push_labeled).
    pub fn push_labeled_exemplar(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
        exemplar: Option<Exemplar>,
    ) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let sample = Sample {
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            value,
            exemplar,
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(metric) => metric.samples.push(sample),
            None => self.metrics.push(Metric {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                samples: vec![sample],
            }),
        }
    }

    /// Exports a [`SpanSet`] as `spmv_span_seconds_total{span="..."}`
    /// samples, aggregating duplicate span names first so each label
    /// value appears once per scrape.
    pub fn record_spans(&mut self, spans: &SpanSet) {
        let mut seen: Vec<(&str, f64)> = Vec::new();
        for s in spans.spans() {
            match seen.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += s.seconds,
                None => seen.push((&s.name, s.seconds)),
            }
        }
        for (name, seconds) in seen {
            self.push_labeled(
                "spmv_span_seconds_total",
                "Accumulated wall-clock seconds per named cold-path span.",
                MetricKind::Counter,
                &[("span", name)],
                seconds,
            );
        }
    }

    /// Snapshots the process-wide telemetry sources — dispatch stats,
    /// preprocessing and profiling counters, trace-buffer health —
    /// into a fresh registry.
    pub fn gather() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let d = engine_dispatch().snapshot();
        reg.push(
            "spmv_dispatches_total",
            "Pooled dispatches executed by ExecEngine::run.",
            MetricKind::Counter,
            d.dispatches as f64,
        );
        reg.push(
            "spmv_dispatch_threads_total",
            "Sum of team sizes over all pooled dispatches.",
            MetricKind::Counter,
            d.threads as f64,
        );
        reg.push(
            "spmv_dispatch_wall_seconds_total",
            "Wall-clock seconds spent inside ExecEngine::run.",
            MetricKind::Counter,
            d.wall_seconds,
        );
        reg.push(
            "spmv_dispatch_busy_seconds_total",
            "Per-thread busy seconds summed over all workers and dispatches.",
            MetricKind::Counter,
            d.busy_seconds,
        );
        reg.push(
            "spmv_dispatch_max_busy_seconds_total",
            "Per-dispatch maximum busy seconds, summed over dispatches.",
            MetricKind::Counter,
            d.max_busy_seconds,
        );
        reg.push(
            "spmv_dispatch_wake_latency_seconds",
            "Mean wake + synchronization latency per dispatch.",
            MetricKind::Gauge,
            d.wake_latency_seconds(),
        );
        reg.push(
            "spmv_dispatch_imbalance_ratio",
            "Mean max-over-mean busy-time ratio per dispatch (1.0 = balanced).",
            MetricKind::Gauge,
            d.imbalance_ratio(),
        );
        let prep = preprocessing();
        reg.push(
            "spmv_preprocessing_total",
            "Format conversions / preprocessing passes performed.",
            MetricKind::Counter,
            prep.count() as f64,
        );
        reg.push(
            "spmv_preprocessing_seconds_total",
            "Wall-clock seconds spent in preprocessing.",
            MetricKind::Counter,
            prep.seconds(),
        );
        let prof = profiling_runs();
        reg.push(
            "spmv_profiling_runs_total",
            "Micro-benchmark profiling runs performed by the tuner.",
            MetricKind::Counter,
            prof.count() as f64,
        );
        reg.push(
            "spmv_profiling_seconds_total",
            "Wall-clock seconds spent in profiling runs.",
            MetricKind::Counter,
            prof.seconds(),
        );
        let menu = menu_selection();
        reg.push(
            "spmv_menu_searches_total",
            "Microkernel menu searches performed by the tuner.",
            MetricKind::Counter,
            menu.searches() as f64,
        );
        reg.push(
            "spmv_menu_cache_hits_total",
            "Menu plan-cache hits (searches skipped entirely).",
            MetricKind::Counter,
            menu.cache_hits() as f64,
        );
        let selected = menu.selected();
        if !selected.is_empty() {
            reg.push_labeled(
                "spmv_menu_selected",
                "Last microkernel selected by the menu search (1 = current).",
                MetricKind::Gauge,
                &[("kernel", &selected)],
                1.0,
            );
        }
        let t = tracer();
        reg.push(
            "spmv_trace_events_total",
            "Trace events recorded since process start (including dropped).",
            MetricKind::Counter,
            t.recorded() as f64,
        );
        reg.push(
            "spmv_trace_events_dropped_total",
            "Trace events overwritten by ring-buffer wraparound.",
            MetricKind::Counter,
            t.dropped() as f64,
        );
        reg.push(
            "spmv_trace_events_shed_total",
            "Trace events shed at claim time because the slot was owned by a concurrent writer.",
            MetricKind::Counter,
            t.shed() as f64,
        );
        reg.push(
            "spmv_trace_capacity_events",
            "Trace ring-buffer capacity in events.",
            MetricKind::Gauge,
            t.capacity() as f64,
        );
        reg.push(
            "spmv_trace_enabled",
            "Whether the global tracer is currently recording (1/0).",
            MetricKind::Gauge,
            if t.enabled() { 1.0 } else { 0.0 },
        );
        let s = serve_stats();
        reg.push(
            "spmv_serve_admitted_total",
            "Serving requests admitted past admission control.",
            MetricKind::Counter,
            s.admitted() as f64,
        );
        reg.push(
            "spmv_serve_rejected_total",
            "Serving requests rejected by bounded-queue backpressure.",
            MetricKind::Counter,
            s.rejected() as f64,
        );
        reg.push(
            "spmv_serve_completed_total",
            "Serving requests completed (result delivered).",
            MetricKind::Counter,
            s.completed() as f64,
        );
        reg.push(
            "spmv_serve_batches_total",
            "Coalesced SpMM batches dispatched by the request scheduler.",
            MetricKind::Counter,
            s.batches() as f64,
        );
        reg.push(
            "spmv_serve_batched_requests_total",
            "Requests carried inside coalesced SpMM batches.",
            MetricKind::Counter,
            s.batched_requests() as f64,
        );
        reg.push(
            "spmv_serve_failed_total",
            "Serving requests that failed inside the kernel dispatch.",
            MetricKind::Counter,
            s.failed() as f64,
        );
        let encode = serve_encode();
        reg.push(
            "spmv_serve_encode_total",
            "SpMV results encoded into reply bodies (hex lines or digest line).",
            MetricKind::Counter,
            encode.count() as f64,
        );
        reg.push(
            "spmv_serve_encode_seconds_total",
            "Wall-clock seconds spent encoding SpMV results into reply bodies.",
            MetricKind::Counter,
            encode.seconds(),
        );
        for m in monitor().snapshot() {
            reg.push_labeled(
                "spmv_roofline_attainment",
                "Measured GFLOP/s EWMA over the tuner's simulated roofline bound (1.0 = at \
                 the roofline; 0 until the first dispatch).",
                MetricKind::Gauge,
                &[("matrix", &m.name)],
                m.attainment,
            );
            reg.push_labeled(
                "spmv_roofline_bound_gflops",
                "Simulated roofline bound from the tuner's machine model, GFLOP/s.",
                MetricKind::Gauge,
                &[("matrix", &m.name)],
                m.bound_gflops,
            );
            reg.push_labeled(
                "spmv_roofline_achieved_gflops",
                "EWMA of measured kernel throughput, GFLOP/s.",
                MetricKind::Gauge,
                &[("matrix", &m.name)],
                m.achieved_gflops,
            );
            reg.push_labeled(
                "spmv_roofline_drift_total",
                "Drift episodes: attainment stayed below threshold for N consecutive windows.",
                MetricKind::Counter,
                &[("matrix", &m.name)],
                m.drift_total as f64,
            );
        }
        reg.record_latency_histogram(&serve_latency().snapshot());
        reg
    }

    /// Exports a serving-latency snapshot in Prometheus histogram
    /// shape — cumulative `_bucket{le=...}` samples, `_sum`, `_count`
    /// — plus derived p50/p99 gauges for dashboards (and the load
    /// generator's report) that don't run `histogram_quantile`.
    pub fn record_latency_histogram(&mut self, snap: &HistogramSnapshot) {
        let mut cumulative = 0u64;
        for (i, count) in snap.counts.iter().enumerate() {
            cumulative += count;
            let bound = LatencyHistogram::bound_seconds(i);
            let le = if bound.is_infinite() { "+Inf".to_string() } else { format!("{bound}") };
            self.push_labeled_exemplar(
                "spmv_serve_latency_seconds_bucket",
                "Serving request latency histogram (admission to result delivery).",
                MetricKind::Counter,
                &[("le", &le)],
                cumulative as f64,
                snap.exemplars[i],
            );
        }
        self.push(
            "spmv_serve_latency_seconds_sum",
            "Total serving latency summed over all requests.",
            MetricKind::Counter,
            snap.sum_seconds,
        );
        self.push(
            "spmv_serve_latency_seconds_count",
            "Serving requests recorded in the latency histogram.",
            MetricKind::Counter,
            snap.count() as f64,
        );
        self.push(
            "spmv_serve_latency_p50_seconds",
            "Median serving latency (bucket upper bound; 0 when empty).",
            MetricKind::Gauge,
            snap.quantile(0.5).unwrap_or(0.0),
        );
        self.push(
            "spmv_serve_latency_p99_seconds",
            "99th-percentile serving latency (bucket upper bound; 0 when empty).",
            MetricKind::Gauge,
            snap.quantile(0.99).unwrap_or(0.0),
        );
    }

    /// Renders the registry in Prometheus text exposition format 0.0.4
    /// (`text/plain; version=0.0.4`), ending with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            out.push_str("# HELP ");
            out.push_str(&metric.name);
            out.push(' ');
            escape_help(&metric.help, &mut out);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&metric.name);
            out.push(' ');
            out.push_str(metric.kind.as_str());
            out.push('\n');
            for sample in &metric.samples {
                out.push_str(&metric.name);
                if !sample.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in sample.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(k);
                        out.push_str("=\"");
                        escape_label_value(v, &mut out);
                        out.push('"');
                    }
                    out.push('}');
                }
                out.push(' ');
                out.push_str(&format_value(sample.value));
                if let Some(ex) = &sample.exemplar {
                    // OpenMetrics exemplar: `# {labels} value` after
                    // the sample, linking the bucket to a concrete
                    // RequestId and its stage breakdown.
                    out.push_str(&format!(
                        " # {{request_id=\"{}\",queue_seconds=\"{}\",kernel_seconds=\"{}\"}} {}",
                        ex.rid, ex.queue_seconds, ex.kernel_seconds, ex.value_seconds
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// HELP text escaping: backslash and newline.
fn escape_help(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Label-value escaping: backslash, double quote and newline.
fn escape_label_value(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Formats a sample value: integral values print without a fraction,
/// everything else uses Rust's shortest round-trip float form.
fn format_value(value: f64) -> String {
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_golden_counter_and_gauge() {
        let mut reg = MetricsRegistry::new();
        reg.push("spmv_dispatches_total", "Pooled dispatches.", MetricKind::Counter, 42.0);
        reg.push("spmv_dispatch_imbalance_ratio", "Imbalance.", MetricKind::Gauge, 1.25);
        assert_eq!(
            reg.render(),
            "# HELP spmv_dispatches_total Pooled dispatches.\n\
             # TYPE spmv_dispatches_total counter\n\
             spmv_dispatches_total 42\n\
             # HELP spmv_dispatch_imbalance_ratio Imbalance.\n\
             # TYPE spmv_dispatch_imbalance_ratio gauge\n\
             spmv_dispatch_imbalance_ratio 1.25\n"
        );
    }

    #[test]
    fn labeled_samples_merge_under_one_header() {
        let mut reg = MetricsRegistry::new();
        reg.push_labeled(
            "spmv_span_seconds_total",
            "Spans.",
            MetricKind::Counter,
            &[("span", "a")],
            1.0,
        );
        reg.push_labeled(
            "spmv_span_seconds_total",
            "ignored",
            MetricKind::Gauge,
            &[("span", "b")],
            2.5,
        );
        let text = reg.render();
        assert_eq!(text.matches("# HELP").count(), 1);
        assert_eq!(text.matches("# TYPE").count(), 1);
        assert!(text.contains("spmv_span_seconds_total{span=\"a\"} 1\n"), "{text}");
        assert!(text.contains("spmv_span_seconds_total{span=\"b\"} 2.5\n"), "{text}");
        // First-seen kind wins.
        assert!(text.contains("# TYPE spmv_span_seconds_total counter\n"));
    }

    #[test]
    fn pathological_label_values_escape() {
        let mut reg = MetricsRegistry::new();
        reg.push_labeled(
            "spmv_span_seconds_total",
            "Help with \\ backslash\nand newline.",
            MetricKind::Counter,
            &[("span", "weird \"name\" \\ with\nnewline ✓")],
            0.5,
        );
        let text = reg.render();
        assert!(
            text.contains(
                "# HELP spmv_span_seconds_total Help with \\\\ backslash\\nand newline.\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("{span=\"weird \\\"name\\\" \\\\ with\\nnewline ✓\"} 0.5\n"),
            "{text}"
        );
        // Escaped output stays single-line per sample.
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn record_spans_aggregates_duplicates() {
        let mut spans = SpanSet::new();
        spans.record("bound:P_ML", 1.0);
        spans.record("bound:P_ML", 2.0);
        spans.record("bound:P_CMP", 0.25);
        let mut reg = MetricsRegistry::new();
        reg.record_spans(&spans);
        let text = reg.render();
        assert!(text.contains("spmv_span_seconds_total{span=\"bound:P_ML\"} 3\n"), "{text}");
        assert!(text.contains("spmv_span_seconds_total{span=\"bound:P_CMP\"} 0.25\n"), "{text}");
    }

    #[test]
    fn gather_exports_all_families() {
        let text = MetricsRegistry::gather().render();
        for name in [
            "spmv_dispatches_total",
            "spmv_dispatch_threads_total",
            "spmv_dispatch_wall_seconds_total",
            "spmv_dispatch_busy_seconds_total",
            "spmv_dispatch_max_busy_seconds_total",
            "spmv_dispatch_wake_latency_seconds",
            "spmv_dispatch_imbalance_ratio",
            "spmv_preprocessing_total",
            "spmv_preprocessing_seconds_total",
            "spmv_profiling_runs_total",
            "spmv_profiling_seconds_total",
            "spmv_trace_events_total",
            "spmv_trace_events_dropped_total",
            "spmv_trace_events_shed_total",
            "spmv_trace_capacity_events",
            "spmv_trace_enabled",
            "spmv_serve_admitted_total",
            "spmv_serve_rejected_total",
            "spmv_serve_completed_total",
            "spmv_serve_batches_total",
            "spmv_serve_batched_requests_total",
            "spmv_serve_failed_total",
            "spmv_serve_encode_total",
            "spmv_serve_encode_seconds_total",
            "spmv_serve_latency_seconds_sum",
            "spmv_serve_latency_seconds_count",
            "spmv_serve_latency_p50_seconds",
            "spmv_serve_latency_p99_seconds",
        ] {
            assert!(text.contains(&format!("\n{name} ")), "missing {name} in:\n{text}");
        }
        assert!(text.contains("spmv_serve_latency_seconds_bucket{le=\"+Inf\"}"), "{text}");
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn gather_exports_the_encode_counter_as_two_counters() {
        // Only this test feeds the process-wide encode counter in
        // this binary, so one event shows up as exactly one.
        serve_encode().add(0.25);
        let text = MetricsRegistry::gather().render();
        for name in ["spmv_serve_encode_total", "spmv_serve_encode_seconds_total"] {
            assert!(text.contains(&format!("# TYPE {name} counter\n")), "{name} in:\n{text}");
        }
        assert!(text.contains("\nspmv_serve_encode_total 1\n"), "{text}");
        assert!(text.contains("\nspmv_serve_encode_seconds_total 0.25\n"), "{text}");
    }

    #[test]
    fn latency_histogram_renders_cumulative_buckets() {
        let h = LatencyHistogram::new();
        h.observe_ns(2_000); // ~2µs
        h.observe_ns(2_000);
        h.observe_ns(500_000_000); // 0.5s
        let mut reg = MetricsRegistry::new();
        reg.record_latency_histogram(&h.snapshot());
        let text = reg.render();
        // Buckets are cumulative: the +Inf bucket carries the total.
        assert!(text.contains("spmv_serve_latency_seconds_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("spmv_serve_latency_seconds_count 3\n"), "{text}");
        // p50 in the microsecond range, p99 in the slow bucket.
        let p50: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("spmv_serve_latency_p50_seconds "))
            .unwrap()
            .parse()
            .unwrap();
        let p99: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("spmv_serve_latency_p99_seconds "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(p50 < 1e-4, "{p50}");
        assert!(p99 >= 0.5, "{p99}");
    }

    #[test]
    fn bucket_exemplars_render_openmetrics_style() {
        let h = LatencyHistogram::new();
        h.observe_with_exemplar(2e-6, 77, 1_000, 500);
        let mut reg = MetricsRegistry::new();
        reg.record_latency_histogram(&h.snapshot());
        let text = reg.render();
        let line = text
            .lines()
            .find(|l| l.contains("request_id=\"77\""))
            .unwrap_or_else(|| panic!("no exemplar line in:\n{text}"));
        assert!(line.starts_with("spmv_serve_latency_seconds_bucket{le="), "{line}");
        // Seconds values go through ns→f64 conversion, so compare
        // prefixes rather than exact decimal strings.
        assert!(line.contains(" # {request_id=\"77\",queue_seconds=\"0.000001"), "{line}");
        assert!(line.contains("kernel_seconds=\"0.0000005"), "{line}");
        // Buckets without a recent sample carry no exemplar.
        assert_eq!(text.matches(" # {").count(), 1, "{text}");
    }

    #[test]
    fn gather_exports_roofline_families_once_registered() {
        // The global monitor is shared process state: use a name no
        // other test registers and only assert presence.
        let id = monitor().register("registry-gather-probe", 10.0).expect("slot");
        monitor().observe(id, 5.0);
        let text = MetricsRegistry::gather().render();
        assert!(
            text.contains("spmv_roofline_attainment{matrix=\"registry-gather-probe\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("spmv_roofline_bound_gflops{matrix=\"registry-gather-probe\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("spmv_roofline_achieved_gflops{matrix=\"registry-gather-probe\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("spmv_roofline_drift_total{matrix=\"registry-gather-probe\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn value_formatting_is_stable() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(42.0), "42");
        assert_eq!(format_value(-3.0), "-3");
        assert_eq!(format_value(1.25), "1.25");
        assert_eq!(format_value(f64::INFINITY), "inf");
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("spmv_dispatches_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9bad"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
    }
}
