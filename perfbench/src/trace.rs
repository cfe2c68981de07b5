//! The traced run's instruments: in-memory spans around each call the
//! benchmark makes into a layer crate, and a [`Media`] wrapper that times
//! the medium underneath the backup engines.
//!
//! Nothing here touches the layers' own code: spans open and close in
//! the benchmark, and the wrapper implements the public `Media` trait.

use std::time::Instant;

use obs::Json;
use simkit::media::Media;
use simkit::media::MediaError;
use simkit::media::MediaStats;
use simkit::media::Record;

/// One closed span: `<layer>.<op>`, host seconds since the run began,
/// and the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Start, host seconds since the run began.
    pub start_s: f64,
    /// End, host seconds since the run began.
    pub end_s: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Records spans while active; while inactive every call is a no-op, so
/// untraced cycles pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    active: bool,
    run_id: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the tracer was inactive.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle(Option<usize>);

impl Tracer {
    /// An inactive tracer for run `run_id`.
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            active: false,
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Turns recording on or off (between cycles, never inside a span).
    pub fn set_active(&mut self, on: bool) {
        self.active = on;
    }

    /// Opens span `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanHandle {
        if !self.active {
            return SpanHandle(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanHandle(Some(idx))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, handle: SpanHandle) {
        if let Some(idx) = handle.0 {
            self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as JSON, for the trace file written when the run ends.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("id", Json::Num(i as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run", Json::Str(self.run_id.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// Host time spent inside a medium and the record calls made on it
/// (write, read and skip) during one engine call.
#[derive(Debug, Clone, Copy, Default)]
pub struct MediaUse {
    /// Host seconds inside the medium's methods.
    pub secs: f64,
    /// `write_record` + `read_record` + `skip_record` calls.
    pub records: u64,
    /// `read_record` calls alone: the records whose payload was read.
    pub reads: u64,
}

/// A [`Media`] that forwards to `inner`, timing every call.
pub struct TimedMedia<'a> {
    inner: &'a mut dyn Media,
    used: MediaUse,
}

impl<'a> TimedMedia<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Media) -> TimedMedia<'a> {
        TimedMedia {
            inner,
            used: MediaUse::default(),
        }
    }

    /// What the wrapped medium has cost so far.
    pub fn used(&self) -> MediaUse {
        self.used
    }

    fn timed<R>(&mut self, record: bool, f: impl FnOnce(&mut dyn Media) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.used.secs += t.elapsed().as_secs_f64();
        self.used.records += u64::from(record);
        r
    }
}

impl Media for TimedMedia<'_> {
    fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        self.timed(true, |m| m.write_record(record))
    }

    fn read_record(&mut self) -> Result<Record, MediaError> {
        self.used.reads += 1;
        self.timed(true, |m| m.read_record())
    }

    fn skip_record(&mut self) -> Result<(), MediaError> {
        self.timed(true, |m| m.skip_record())
    }

    fn rewind(&mut self) {
        self.timed(false, |m| m.rewind())
    }

    fn truncate_records(&mut self, keep: u64) {
        self.timed(false, |m| m.truncate_records(keep))
    }

    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn stats(&self) -> MediaStats {
        self.inner.stats()
    }

    fn note_delay(&mut self, secs: f64) {
        self.timed(false, |m| m.note_delay(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new("r".into());
        let off = t.open("core.ignored");
        t.close(off);
        assert!(t.spans().is_empty(), "inactive tracer records nothing");
        t.set_active(true);
        let outer = t.open("perfbench.cycle");
        let inner = t.open("core.logical_dump");
        t.close(inner);
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start_s >= s[0].start_s && s[1].end_s <= s[0].end_s);
    }

    #[test]
    fn timed_media_counts_record_calls_only() {
        let mut drive = tape::TapeDrive::new(tape::TapePerf::ideal(), u64::MAX);
        let mut m = TimedMedia::new(&mut drive);
        m.write_record(Record::from_bytes(vec![1, 2, 3])).unwrap();
        m.rewind();
        assert_eq!(m.read_record().unwrap().len(), 3);
        assert_eq!(m.used().records, 2);
        assert_eq!(m.used().reads, 1);
        assert_eq!(m.total_records(), 1);
    }
}
