//! The benchmark's own span recorder. Spans wrap the calls the harness makes
//! into a layer; they are kept in memory and written once at exit. Spans
//! inside the program are a later change (see README.md).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that stores spans only when `on`; when off, [`Recorder::span`]
    /// still times the call but records nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the seconds it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// `[{id, parent, name, start_ns, end_ns, self_ns}, ...]`; self time is
    /// the span minus the part its children cover.
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("\n]");
        out
    }
}
