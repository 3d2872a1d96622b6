//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions.
//!
//! A span has a name, a start and end (nanoseconds since the process's
//! trace epoch), the span that was open on the same thread when it began
//! (its parent), and a request id shared by every span of one request
//! (an app row, an analysed app, a daemon job). Spans are buffered per
//! thread, moved to one process-wide list by [`flush_thread`], taken
//! from it by [`drain`], and written out once when the run ends.
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`span`] costs one relaxed load and runs its closure directly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified call name, e.g. `device.rotate.stock`.
    pub name: &'static str,
    /// The request this span served.
    pub req: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collected() -> &'static Mutex<Vec<Span>> {
    static ALL: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static DONE: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    DONE.with(|done| {
        done.borrow_mut().push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Moves this thread's closed spans to the process-wide list. Call it
/// before a worker thread ends, or its spans are lost.
pub fn flush_thread() {
    let mine = DONE.with(|done| std::mem::take(&mut *done.borrow_mut()));
    if !mine.is_empty() {
        collected()
            .lock()
            .expect("no thread panics while holding the span list")
            .extend(mine);
    }
}

/// Takes every span flushed so far (this thread's included), leaving
/// the list empty.
pub fn drain() -> Vec<Span> {
    flush_thread();
    std::mem::take(
        &mut *collected()
            .lock()
            .expect("no thread panics while holding the span list"),
    )
}

/// Self time per span name: each span's duration minus the part its
/// children on the same thread cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Total duration of the spans that have no parent.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.name,
            s.req,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "outer",
                req: 7,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "inner",
                req: 7,
                start_ns: 10,
                end_ns: 40,
            },
        ];
        let own = self_time_ns(&spans);
        assert_eq!(own["outer"], 70);
        assert_eq!(own["inner"], 30);
        assert_eq!(top_level_ns(&spans), 100);
    }
}
