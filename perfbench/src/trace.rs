//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! stay in memory while the workload runs and are written out as JSON at
//! the end. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover. Recording is off until
//! [`Recorder::set_on`]; while off, [`Recorder::span`] costs one branch.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    id: u32,
    /// 0 for a top-level span.
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Run `f` inside a span `name` caused by `parent` (0: top level).
    /// `f` receives the new span's id, the parent of its own spans.
    pub fn span<T>(&self, parent: u32, name: &'static str, f: impl FnOnce(u32) -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log lock").push(Span { id, parent, name, start_ns, end_ns });
        out
    }

    /// Self seconds and span count per span name.
    fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.lock().expect("span log lock");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in spans.iter() {
            // Union of the children's intervals clipped to this span, so
            // children running on parallel threads are not counted twice.
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    /// Self time per layer span, on stderr.
    pub fn print_self_times(&self) {
        for (name, (secs, n)) in self.self_times() {
            eprintln!("[perfbench] self time {name:<28} {secs:>10.4} s over {n} span(s)");
        }
    }

    /// Write every span as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let rec = Recorder::new();
        rec.set_on(true);
        rec.span(0, "outer", |id| {
            rec.span(id, "inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let t = rec.self_times();
        let (outer, inner) = (t["outer"].0, t["inner"].0);
        assert!(inner >= 0.02 && outer >= 0.01, "outer {outer} inner {inner}");
        assert!(outer < 0.02, "child time leaked into the parent's self time: {outer}");
    }

    #[test]
    fn recording_is_off_by_default() {
        let rec = Recorder::new();
        assert_eq!(rec.span(0, "x", |id| id), 0);
        assert!(rec.self_times().is_empty());
    }
}
