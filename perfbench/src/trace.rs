//! In-memory span recorder for the traced run.
//!
//! Every generator thread owns a thread-local buffer. A client call opens
//! a span; the transport and coordinator wrappers record child spans
//! under whichever span is open on the calling thread. All spans of one
//! operation share its op id. Nothing is recorded unless the thread has
//! called [`enable`], so the wrappers cost one thread-local read when
//! tracing is off.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// The layer boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    ClientGet,
    ClientSet,
    ClientMultiGet,
    ServerCall,
    ServerCallMany,
    CoordinatorHeartbeat,
    CoordinatorFullTable,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientGet => "client.get",
            Name::ClientSet => "client.set_opts",
            Name::ClientMultiGet => "client.multi_get",
            Name::ServerCall => "server.call",
            Name::ServerCallMany => "server.call_many",
            Name::CoordinatorHeartbeat => "coordinator.heartbeat",
            Name::CoordinatorFullTable => "coordinator.full_table",
        }
    }
}

/// One recorded span. `parent` is the index of the enclosing span in the
/// same thread's buffer, or [`NO_PARENT`] for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub name: Name,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub const NO_PARENT: u32 = u32::MAX;

struct Tracer {
    origin: Instant,
    on: bool,
    op: u64,
    open: u32,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a buffer on the calling thread; `origin` is the shared time
/// base so spans of different threads line up.
pub fn install(origin: Instant, capacity: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin,
            on: false,
            op: 0,
            open: NO_PARENT,
            spans: Vec::with_capacity(capacity),
        })
    });
}

/// Turns recording on or off for the calling thread.
pub fn enable(on: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.on = on;
        }
    });
}

/// Nanoseconds since the trace origin, or `None` when the calling thread
/// is not recording.
pub fn now() -> Option<u64> {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .filter(|t| t.on)
            .map(|t| t.origin.elapsed().as_nanos() as u64)
    })
}

/// Opens a root span for operation `op`; returns its index.
pub fn open(op: u64, name: Name, start_ns: u64) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer installed");
        t.op = op;
        t.open = t.spans.len() as u32;
        t.spans.push(Span {
            op,
            parent: NO_PARENT,
            name,
            start_ns,
            end_ns: start_ns,
        });
        t.open
    })
}

/// Closes the root span `idx` opened by [`open`].
pub fn close(idx: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("tracer installed");
        let end = t.origin.elapsed().as_nanos() as u64;
        t.spans[idx as usize].end_ns = end;
        t.open = NO_PARENT;
    });
}

/// Records a finished child span under the currently open span.
pub fn child(name: Name, start_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| t.on) else {
            return;
        };
        let end_ns = t.origin.elapsed().as_nanos() as u64;
        let (op, parent) = (t.op, t.open);
        t.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns,
        });
    });
}

/// Removes and returns the calling thread's spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    })
}

/// Writes spans as tab-separated `thread op span parent name start end`
/// lines (span and parent are per-thread indices).
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{t}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
